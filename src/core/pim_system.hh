/**
 * @file
 * The rank-aware PIM system the command-queue runtime executes against.
 *
 * A PimSystem owns the (sampled) sim::Dpu instances of a logical system
 * of `numDpus` DPUs grouped into ranks of `dpusPerRank` (UPMEM: 64 DPUs
 * per DIMM rank). Commands — transfers, launches, host compute — are
 * addressed to a DpuSet: the whole system, one rank, or a set of
 * ranks. Like real UPMEM hosts, experiments can thus launch work on a
 * subset of ranks while other ranks are busy or being fed data.
 *
 * Memory realism vs scale: only `sampleDpus` DPU instances are
 * materialized (bank-level DPUs share no state, and the paper's
 * workloads shard near-uniformly), spread across the global index space
 * by sampleGlobalIndex() so index-dependent sharding stays
 * representative. `numDpus` still drives transfer bandwidth and
 * aggregate statistics.
 */

#ifndef PIM_CORE_PIM_SYSTEM_HH
#define PIM_CORE_PIM_SYSTEM_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/parallel_engine.hh"
#include "sim/config.hh"
#include "sim/dpu.hh"
#include "sim/host_model.hh"
#include "sim/transfer_model.hh"

namespace pim::core {

/** System-wide configuration of the runtime. */
struct PimSystemConfig
{
    /** Logical system size. */
    unsigned numDpus = 512;
    /** DPU instances actually materialized (0 = all). */
    unsigned sampleDpus = 0;
    /**
     * Materialize the first DPU of every rank instead of spreading
     * `sampleDpus` over the index space — for rank-granular experiments
     * (e.g. the overlapped design space) where every rank must have a
     * representative member regardless of how numDpus divides.
     */
    bool samplePerRank = false;
    /** DPUs per rank (UPMEM: 64 per DIMM rank). */
    unsigned dpusPerRank = 64;
    /** DPU hardware parameters. */
    sim::DpuConfig dpuCfg{};
    /** Host CPU model (hostCompute commands). */
    sim::HostConfig hostCfg{};
    /** Host<->PIM transfer model (memcpy commands, launch overhead). */
    sim::TransferConfig xferCfg{};
    /** Host worker threads simulating DPUs (0 = PIM_SIM_THREADS env,
     *  else hardware concurrency). Results are thread-count invariant. */
    unsigned simThreads = 0;
};

/**
 * Configuration of a one-DPU system (single-DPU microbenchmarks and
 * examples): one materialized DPU, no worker-thread fan-out.
 */
PimSystemConfig singleDpuConfig(const sim::DpuConfig &dpu_cfg = {});

/**
 * Global DPU index represented by sample slot @p slot when @p sample of
 * @p num_dpus DPUs are materialized. Spreads the sample evenly across
 * the whole index space — including a non-divisible tail — via
 * floor(slot * num_dpus / sample); identical to the historical
 * slot * (num_dpus / sample) stride whenever sample divides num_dpus.
 */
unsigned sampleGlobalIndex(unsigned slot, unsigned sample,
                           unsigned num_dpus);

class PimSystem;

/**
 * The ranks and materialized sample slots of a DpuSet, built once when
 * the set is made and shared (by shared_ptr) by the set's copies and
 * every command enqueued against it. Slots are sorted ascending and
 * globalIndex() is strictly increasing with rankOf() monotone, so a
 * set's sample slots group into one contiguous run per rank: the run of
 * ranks[i] is slots[rankSlotBegin[i] .. rankSlotBegin[i+1]) (empty for
 * a rank with no materialized member). The command queue's timeline
 * fold walks the runs in one O(slots + ranks) pass instead of
 * rescanning every slot per rank.
 */
struct SlotPartition
{
    /** Rank ids the set touches, ascending (== DpuSet::ranks()). */
    std::vector<unsigned> ranks;
    /** Materialized sample slots, ascending (== DpuSet::slots()). */
    std::vector<unsigned> slots;
    /** Run offsets into slots, one per rank plus the end sentinel. */
    std::vector<unsigned> rankSlotBegin;
};

/**
 * A selection of DPUs a command is addressed to: the DPUs of a
 * non-empty set of ranks (the whole system, one rank, or any subset).
 * Copies are cheap and share one SlotPartition.
 */
class DpuSet
{
  public:
    /** Logical number of DPUs addressed (drives transfer bandwidth). */
    unsigned size() const { return size_; }

    /** True if global DPU index @p global is a member. */
    bool contains(unsigned global) const;

    /**
     * Position of member @p global within the set, counting members in
     * ascending global order — the dense zero-based id workloads shard
     * by when they run on a partition instead of the whole system.
     * Fatal if @p global is not a member.
     */
    unsigned indexOf(unsigned global) const;

    /** Global index of the set's @p idx-th member (ascending order);
     *  the inverse of indexOf. Fatal if idx >= size(). */
    unsigned memberAt(unsigned idx) const;

    /**
     * Split this set's ranks into a leading partition of roughly
     * @p fraction of them and the rest — the prefill/decode split of
     * disaggregated serving, applied to the whole system or to the
     * ranks a RankScheduler granted a tenant. Requires a set of at
     * least two ranks; the first member holds the k lowest rank ids
     * with k = round(fraction * ranks) clamped to [1, ranks - 1], so
     * both halves are always non-empty.
     */
    std::pair<DpuSet, DpuSet> partitionRanks(double fraction) const;

    /** Rank ids the set touches, ascending. */
    const std::vector<unsigned> &ranks() const { return part_->ranks; }

    /** Materialized sample slots belonging to the set, ascending. */
    const std::vector<unsigned> &slots() const { return part_->slots; }

    /** The set's ranks and slots with their per-rank slot runs. */
    const std::shared_ptr<const SlotPartition> &partition() const
    {
        return part_;
    }

  private:
    friend class PimSystem;

    /** @p rank_ids: sorted, deduplicated, non-empty, each < numRanks. */
    DpuSet(const PimSystem *sys, std::vector<unsigned> rank_ids);

    const PimSystem *sys_;
    unsigned size_ = 0;
    std::shared_ptr<const SlotPartition> part_;
};

/** The DPU set a command queue executes against. */
class PimSystem
{
  public:
    explicit PimSystem(const PimSystemConfig &cfg);

    const PimSystemConfig &config() const { return cfg_; }

    /** Logical system size. */
    unsigned numDpus() const { return cfg_.numDpus; }

    /** Number of ranks (ceil(numDpus / dpusPerRank)). */
    unsigned numRanks() const { return numRanks_; }

    /** DPUs in rank @p r (the last rank may be ragged). */
    unsigned rankSize(unsigned r) const;

    /** Rank owning global DPU index @p global. */
    unsigned rankOf(unsigned global) const;

    /** Number of materialized DPU instances. */
    unsigned sampleCount() const
    {
        return static_cast<unsigned>(dpus_.size());
    }

    /** Materialized DPU of sample slot @p slot. */
    sim::Dpu &dpu(unsigned slot);

    /** Global DPU index represented by sample slot @p slot. */
    unsigned globalIndex(unsigned slot) const;

    /**
     * Sample slot materializing global index @p global; fatal if that
     * index is not part of the sample (see DpuSet::slots for membership
     * queries).
     */
    unsigned slotOf(unsigned global) const;

    /** The whole system (built once; copies share its partition). */
    DpuSet all() const { return *all_; }

    /** One rank. */
    DpuSet rank(unsigned r) const;

    /** The DPUs of an arbitrary set of ranks (deduplicated, sorted). */
    DpuSet ranks(std::vector<unsigned> rank_ids) const;

    /** Shared host thread pool commands execute on. */
    const ParallelDpuEngine &engine() const { return engine_; }

    /** Host<->PIM transfer cost model. */
    const sim::TransferModel &transferModel() const { return xfer_; }

    /** Host compute cost model. */
    const sim::HostModel &hostModel() const { return host_; }

  private:
    PimSystemConfig cfg_;
    unsigned numRanks_;
    sim::HostModel host_;
    sim::TransferModel xfer_;
    ParallelDpuEngine engine_;
    std::vector<std::unique_ptr<sim::Dpu>> dpus_;
    /** Built once the DPUs are materialized. Every set points back at
     *  this system, which engine_ keeps non-copyable and non-movable. */
    std::optional<DpuSet> all_;
};

} // namespace pim::core

#endif // PIM_CORE_PIM_SYSTEM_HH
