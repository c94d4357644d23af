#include "sim/area_model.hh"

#include <cmath>

namespace pim::sim {

namespace {

// 32 nm logic constants, calibrated to CACTI 7.0 CAM estimates for small
// fully-associative arrays. Bit cells are a small fraction of the total;
// the comparators, match lines, and I/O periphery dominate at this size.
constexpr double kCamBitAreaUm2 = 0.35;      // CAM cell (2x SRAM 6T)
constexpr double kPeripheryAreaUm2 = 1500.0; // sense amps, decode, I/O
constexpr double kPerEntryPeripheryUm2 = 24.0;
constexpr double kTagBits = 32.0;
constexpr double kPayloadBits = 32.0;        // one packed metadata word

constexpr double kDynamicPjPerAccess = 3.3;  // match-line + read
constexpr double kLeakageMwPerKbit = 0.9;
constexpr double kAccessesPerSecond = 1.2e9; // worst-case duty at 350 MHz
                                             // with pipelined lookups

constexpr double kBaseDelayNs = 0.22;        // wordline + match at 32 nm
constexpr double kDelayPerEntryNs = 0.004;

} // namespace

AreaModel::AreaModel(Scaling scaling) : scaling_(scaling) {}

HardwareOverheads
AreaModel::estimate(const BuddyCacheConfig &cfg) const
{
    const double bits_per_entry = kTagBits + kPayloadBits + 2.0;
    const double total_bits = bits_per_entry * cfg.entries;

    const double logic_area_um2 = total_bits * kCamBitAreaUm2
        + kPeripheryAreaUm2 + kPerEntryPeripheryUm2 * cfg.entries;
    const double logic_area_mm2 = logic_area_um2 * 1e-6;

    const double dynamic_mw =
        kDynamicPjPerAccess * kAccessesPerSecond * 1e-9
        * (static_cast<double>(cfg.entries) / 16.0);
    const double leakage_mw = kLeakageMwPerKbit * total_bits / 1024.0;
    // Power in the DRAM process is comparable (lower leakage, higher
    // dynamic energy); the paper reports the scaled total directly.
    const double power_mw = dynamic_mw + leakage_mw;

    const double logic_delay_ns =
        kBaseDelayNs + kDelayPerEntryNs * cfg.entries;

    HardwareOverheads out;
    out.logicAreaMm2 = logic_area_mm2;
    out.areaMm2 = logic_area_mm2 * scaling_.areaFactor;
    out.powerMw = power_mw;
    out.accessNs = logic_delay_ns * scaling_.delayFactor;
    out.cyclesAt350Mhz = out.accessNs / (1000.0 / 350.0);
    return out;
}

} // namespace pim::sim
