/**
 * @file
 * Centralized instruction-count constants for the allocator cost model.
 *
 * The simulator charges work in instruction blocks; these constants are
 * the per-operation instruction counts of the corresponding UPMEM C
 * routines (estimated from the paper's description and typical compiled
 * code for the operations). Keeping them in one header makes the cost
 * model auditable and lets sensitivity tests vary them coherently.
 */

#ifndef PIM_ALLOC_COST_MODEL_HH
#define PIM_ALLOC_COST_MODEL_HH

#include <cstdint>

namespace pim::alloc::cost {

/** Buddy tree: decode one node's state and decide the next step. */
inline constexpr uint64_t kNodeVisitInstrs = 12;

/** Buddy tree: update one node's state (read-modify-write of a word). */
inline constexpr uint64_t kNodeUpdateInstrs = 8;

/** SW metadata buffer: bounds check + word extract on a hit. */
inline constexpr uint64_t kSwBufferHitInstrs = 6;

/** SW metadata buffer: flush/refill bookkeeping on a miss (excl. DMA). */
inline constexpr uint64_t kSwBufferMissInstrs = 40;

/** HW buddy cache: miss-path bookkeeping (excl. DMA and fill). */
inline constexpr uint64_t kHwCacheMissInstrs = 6;

/** Size-class lookup at the front of pimMalloc(). */
inline constexpr uint64_t kSizeClassLookupInstrs = 6;

/** Thread cache: scan one 64-bit bitmap word for a free sub-block. */
inline constexpr uint64_t kBitmapWordScanInstrs = 4;

/** Thread cache: fast-path bookkeeping around a hit (list walk, addr). */
inline constexpr uint64_t kThreadCacheHitInstrs = 14;

/** Thread cache: one hop of the span-list walk (inspect a span, move on). */
inline constexpr uint64_t kListHopInstrs = 2;

/** Thread cache: install a freshly fetched 4 KB span into a list. */
inline constexpr uint64_t kSpanInstallInstrs = 24;

/** Thread cache: free-path bookkeeping (span locate + bit set). */
inline constexpr uint64_t kThreadCacheFreeInstrs = 16;

/** pimMalloc()/pimFree() call overhead (args, dispatch, return). */
inline constexpr uint64_t kApiOverheadInstrs = 8;

/** Host model: instructions per buddy-tree level on the host CPU. */
inline constexpr uint64_t kHostInstrsPerLevel = 25;

/** Host model: per-allocation fixed overhead (call, locking, queueing). */
inline constexpr uint64_t kHostAllocOverheadInstrs = 120;

} // namespace pim::alloc::cost

#endif // PIM_ALLOC_COST_MODEL_HH
