/**
 * @file
 * Tests for FlatMemory (the MRAM bank's backing store), the Tasklet DMA
 * cost model and the DPU's WRAM budget.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <iterator>

#include "resident_pages.hh"
#include "sim/dpu.hh"
#include "sim/memory.hh"

using namespace pim::sim;

TEST(FlatMemory, TypedReadWrite)
{
    FlatMemory m(1024, "test");
    m.write<uint32_t>(16, 0xdeadbeef);
    EXPECT_EQ(m.read<uint32_t>(16), 0xdeadbeefu);
    m.write<uint64_t>(64, 0x0123456789abcdefull);
    EXPECT_EQ(m.read<uint64_t>(64), 0x0123456789abcdefull);
}

TEST(FlatMemory, InitiallyZero)
{
    FlatMemory m(256, "test");
    for (uint32_t i = 0; i < 256; i += 8)
        EXPECT_EQ(m.read<uint64_t>(i), 0u);
}

TEST(FlatMemory, BulkCopy)
{
    FlatMemory m(1024, "test");
    const char src[] = "hello pim";
    m.writeBytes(100, src, sizeof(src));
    char dst[sizeof(src)];
    m.readBytes(100, dst, sizeof(src));
    EXPECT_STREQ(dst, "hello pim");
}

TEST(FlatMemory, MoveBytesOverlapping)
{
    FlatMemory m(64, "test");
    for (uint8_t i = 0; i < 16; ++i)
        m.write<uint8_t>(i, i);
    m.moveBytes(4, 0, 16); // overlapping forward shift
    for (uint8_t i = 0; i < 16; ++i)
        EXPECT_EQ(m.read<uint8_t>(4 + i), i);
}

TEST(FlatMemory, Fill)
{
    FlatMemory m(64, "test");
    m.fill(8, 16, 0xab);
    EXPECT_EQ(m.read<uint8_t>(7), 0u);
    EXPECT_EQ(m.read<uint8_t>(8), 0xabu);
    EXPECT_EQ(m.read<uint8_t>(23), 0xabu);
    EXPECT_EQ(m.read<uint8_t>(24), 0u);
}

TEST(FlatMemoryDeath, OutOfRangePanics)
{
    FlatMemory m(64, "tiny");
    uint8_t buf[8] = {};
    EXPECT_DEATH(m.read<uint32_t>(62), "out of range");
    EXPECT_DEATH(m.write<uint32_t>(64, 1), "out of range");
    EXPECT_DEATH(m.readBytes(57, buf, 8), "tiny access out of range");
    EXPECT_DEATH(m.writeBytes(57, buf, 8), "tiny access out of range");
    EXPECT_DEATH(m.fill(32, 33, 0), "tiny access out of range");
    EXPECT_DEATH(m.moveBytes(57, 0, 8), "tiny access out of range");
    EXPECT_DEATH(m.moveBytes(0, 57, 8), "tiny access out of range");
}

TEST(FlatMemoryDeath, LastWordPassesOneByteFurtherPanics)
{
    FlatMemory m(64, "tiny");
    uint8_t buf[8] = {};
    m.write<uint32_t>(60, 0x01020304);
    EXPECT_EQ(m.read<uint32_t>(60), 0x01020304u);
    m.readBytes(56, buf, 8);
    m.writeBytes(56, buf, 8);
    m.fill(0, 64, 0);
    m.moveBytes(56, 0, 8);
    m.moveBytes(0, 56, 8);
    EXPECT_DEATH(m.read<uint32_t>(61), "tiny access out of range");
    EXPECT_DEATH(m.write<uint32_t>(61, 1), "tiny access out of range");
    EXPECT_DEATH(m.readBytes(56, buf, 9), "tiny access out of range");
    EXPECT_DEATH(m.fill(0, 65, 0), "tiny access out of range");
}

namespace {

/** Three whole host pages and 100 B: the last page is partial. */
size_t
threePagesAndABit()
{
    return 3 * static_cast<size_t>(sysconf(_SC_PAGESIZE)) + 100;
}

bool
allZero(const FlatMemory &m)
{
    return std::all_of(m.raw(), m.raw() + m.size(),
                       [](uint8_t b) { return b == 0; });
}

} // namespace

TEST(FlatMemory, ResetZeroesEveryByteAndKeepsTheSize)
{
    const size_t bytes = threePagesAndABit();
    FlatMemory m(bytes, "test");
    m.fill(0, bytes, 0xa5);
    m.reset();
    EXPECT_EQ(m.size(), bytes);
    EXPECT_TRUE(allZero(m));
    m.write<uint32_t>(0, 0x01020304);
    m.write<uint32_t>(bytes - 4, 0xdeadbeef);
    EXPECT_EQ(m.read<uint32_t>(0), 0x01020304u);
    EXPECT_EQ(m.read<uint32_t>(bytes - 4), 0xdeadbeefu);
}

TEST(FlatMemoryDeath, BoundIsTheSizeNotTheWholePages)
{
    const size_t bytes = threePagesAndABit();
    FlatMemory m(bytes, "odd");
    const auto last = static_cast<MramAddr>(bytes - 4);
    m.write<uint32_t>(last, 7);
    EXPECT_EQ(m.read<uint32_t>(last), 7u);
    EXPECT_DEATH(m.read<uint32_t>(last + 1), "odd access out of range");
    m.reset();
    EXPECT_EQ(m.read<uint32_t>(last), 0u);
    EXPECT_DEATH(m.write<uint32_t>(last + 1, 1), "odd access out of range");
}

TEST(FlatMemory, ZeroBytesConstructsAndResets)
{
    FlatMemory m(0, "empty");
    EXPECT_EQ(m.size(), 0u);
    m.reset();
    EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMemory, ResetReturnsTouchedPagesToTheOs)
{
    const size_t bytes = size_t{64} << 20;
    FlatMemory m(bytes, "MRAM");
    m.fill(0, bytes / 4, 0x5a);
    EXPECT_GT(pim::test::residentPagesInside(m), 0u);
    m.reset();
    // Counted before any read: a read maps the shared zero page, and
    // mincore reports that as resident.
    EXPECT_EQ(pim::test::residentPagesInside(m), 0u);
    EXPECT_EQ(m.read<uint64_t>(0), 0u);
    EXPECT_EQ(m.read<uint64_t>(bytes / 4 - 8), 0u);
}

TEST(Dma, ReadCostMatchesModel)
{
    Dpu dpu;
    const auto &cfg = dpu.config();
    dpu.run(1, [](Tasklet &t) { t.dmaRead(0, 1024); });
    const uint64_t expect = cfg.dmaSetupCycles
        + static_cast<uint64_t>(cfg.dmaCyclesPerByte * 1024);
    EXPECT_EQ(dpu.lastElapsedCycles(), expect);
    EXPECT_EQ(dpu.lastBreakdown().of(CycleKind::IdleMemory), expect);
}

TEST(Dma, EachChargeRoundsUpOnItsOwnDpusConfig)
{
    // 0.3 cycles/B makes the ceil matter on every size below, and the
    // repeated and alternating sizes walk any per-size memo through its
    // hits and misses.
    DpuConfig cfg;
    cfg.dmaSetupCycles = 17;
    cfg.dmaCyclesPerByte = 0.3;
    Dpu dpu(cfg);
    Dpu plain; // built before dpu charges anything
    struct Charge
    {
        uint32_t bytes;
        uint64_t cycles; // 17 + ceil(0.3 * bytes)
    };
    const Charge odd[] = {{4, 19}, {2048, 632}, {4, 19},
                          {7, 20}, {7, 20},     {1, 18}};
    dpu.run(1, [&](Tasklet &t) {
        for (size_t i = 0; i < std::size(odd); ++i) {
            SCOPED_TRACE(i);
            const uint64_t before = t.clock();
            if (i % 2 == 0)
                t.dmaRead(0, odd[i].bytes);
            else
                t.dmaWrite(0, odd[i].bytes);
            EXPECT_EQ(t.clock() - before, odd[i].cycles);
        }
    });
    // A default-config DPU launched next on the same host thread charges
    // by its own config, starting with the size the last charge above
    // used.
    const Charge defaults[] = {{1, 65}, {4, 66}, {7, 68}, {2048, 1088}};
    plain.run(1, [&](Tasklet &t) {
        for (const Charge &c : defaults) {
            SCOPED_TRACE(c.bytes);
            const uint64_t before = t.clock();
            t.dmaWrite(0, c.bytes);
            EXPECT_EQ(t.clock() - before, c.cycles);
        }
    });
}

TEST(Dma, TrafficAccounting)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.dmaRead(0, 100, TrafficClass::Data);
        t.dmaWrite(0, 50, TrafficClass::Data);
        t.dmaRead(0, 8, TrafficClass::Metadata);
        t.dmaWrite(0, 4, TrafficClass::Metadata);
    });
    const auto &tr = dpu.traffic();
    EXPECT_EQ(tr.dataReadBytes, 100u);
    EXPECT_EQ(tr.dataWriteBytes, 50u);
    EXPECT_EQ(tr.metadataReadBytes, 8u);
    EXPECT_EQ(tr.metadataWriteBytes, 4u);
    EXPECT_EQ(tr.dmaTransfers, 4u);
    EXPECT_EQ(tr.totalBytes(), 162u);
    EXPECT_EQ(tr.metadataBytes(), 12u);
}

TEST(Dma, TypedMramHelpersChargeMinimumEightBytes)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.mramWrite<uint32_t>(128, 77);
        EXPECT_EQ(t.mramRead<uint32_t>(128), 77u);
    });
    // Both 4-byte accesses charge the 8-byte DMA minimum.
    EXPECT_EQ(dpu.traffic().dataWriteBytes, 8u);
    EXPECT_EQ(dpu.traffic().dataReadBytes, 8u);
}

TEST(Dma, ResetStatsClearsTraffic)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) { t.dmaRead(0, 64); });
    EXPECT_GT(dpu.traffic().totalBytes(), 0u);
    dpu.resetStats();
    EXPECT_EQ(dpu.traffic().totalBytes(), 0u);
}

TEST(Dpu, WramReserveBudget)
{
    DpuConfig cfg;
    cfg.wramBytes = 1024;
    Dpu dpu(cfg);
    EXPECT_EQ(dpu.wramReserve(512), 0u);
    EXPECT_EQ(dpu.wramReserve(256), 512u);
    EXPECT_EQ(dpu.wramUsed(), 768u);
}

TEST(DpuDeath, WramOverflowPanics)
{
    DpuConfig cfg;
    cfg.wramBytes = 1024;
    Dpu dpu(cfg);
    dpu.wramReserve(1024);
    EXPECT_DEATH(dpu.wramReserve(1), "WRAM budget exceeded");
}

TEST(DpuDeath, WramRequestThatWrapsPastFourGiBPanics)
{
    Dpu dpu;
    EXPECT_EQ(dpu.wramReserve(1024), 0u);
    // 1024 + 0xFFFFFC01 is 2^32 + 1: one byte once it wraps.
    EXPECT_DEATH(dpu.wramReserve(0xFFFFFC01u), "WRAM budget exceeded");
    EXPECT_EQ(dpu.wramUsed(), 1024u);
}
