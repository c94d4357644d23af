/**
 * @file
 * Domain example #1 — dynamic graph updates (the paper's case study 1).
 *
 * Builds a power-law graph, shards it across a PIM system, and streams
 * edge insertions into the chosen adjacency representation, comparing
 * the static CSR baseline against allocator-backed dynamic structures.
 *
 * Run:  ./graph_update [--structure=csr|linkedlist|vararray]
 *                      [--allocator=sw|hwsw|straw-man]
 *                      [--dpus=64] [--nodes=24000] [--edges=120000]
 *                      [--sample=2] [--threads=0]
 *
 * --threads=0 resolves PIM_SIM_THREADS, then hardware concurrency.
 */

#include <iostream>

#include "util/cli.hh"
#include "util/table.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads::graph;

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "structure,allocator,dpus,nodes,edges,sample,threads");

    GraphUpdateConfig cfg;
    const std::string structure = cli.get("structure", "linkedlist");
    if (structure == "csr")
        cfg.structure = StructureKind::StaticCsr;
    else if (structure == "vararray")
        cfg.structure = StructureKind::VarArray;
    else
        cfg.structure = StructureKind::LinkedList;
    cfg.allocator =
        core::allocatorKindFromName(cli.get("allocator", "sw"));
    cfg.numDpus = static_cast<unsigned>(cli.getCount("dpus", 64, 1));
    cfg.sampleDpus = static_cast<unsigned>(cli.getCount("sample", 2, 0));
    cfg.simThreads = static_cast<unsigned>(cli.getCount("threads", 0, 0));
    cfg.gen.numNodes =
        static_cast<uint32_t>(cli.getCount("nodes", 24000, 2));
    cfg.gen.numEdges =
        static_cast<uint64_t>(cli.getCount("edges", 120000, 1));

    const auto r = runGraphUpdate(cfg);

    util::Table out(std::string(structureKindName(cfg.structure))
                    + (cfg.structure == StructureKind::StaticCsr
                           ? ""
                           : std::string(" on ")
                                 + core::allocatorKindName(cfg.allocator)));
    out.setHeader({"Metric", "Value"});
    out.addRow({"Update edges", util::Table::num(r.updateEdgesTotal)});
    out.addRow({"Update time (ms)",
                util::Table::num(r.updateSeconds * 1e3, 2)});
    out.addRow({"Throughput (Medges/s)",
                util::Table::num(r.millionEdgesPerSec, 2)});
    out.addRow({"Run %",
                util::Table::num(
                    r.breakdown.fraction(sim::CycleKind::Run) * 100, 1)});
    out.addRow({"Busy-wait %",
                util::Table::num(
                    r.breakdown.fraction(sim::CycleKind::BusyWait) * 100,
                    1)});
    out.addRow({"Idle(Memory) %",
                util::Table::num(
                    r.breakdown.fraction(sim::CycleKind::IdleMemory) * 100,
                    1)});
    if (r.allocStats.mallocCalls > 0) {
        out.addRow({"pimMalloc calls",
                    util::Table::num(r.allocStats.mallocCalls)});
        out.addRow({"Mean alloc latency (us)",
                    util::Table::num(r.avgAllocLatencyUs, 2)});
        out.addRow({"Peak fragmentation (A/U)",
                    util::Table::num(r.fragmentation, 2)});
    }
    out.print(std::cout);
    return 0;
}
