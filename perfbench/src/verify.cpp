#include "verify.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "exp/sha256.h"

namespace perfbench {

using btbsim::CpuConfig;
using btbsim::SimStats;

namespace {

std::string
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(u));
    return buf;
}

/** "<name> = <v> not in [lo, hi]" when out of range (NaN included). */
std::string
outOfRange(const char *name, double v, double lo, double hi)
{
    if (std::isfinite(v) && v >= lo && v <= hi)
        return {};
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s = %.17g not in [%g, %g]", name, v,
                  lo, hi);
    return buf;
}

} // namespace

std::string
checkPoint(const SimStats &s, const CpuConfig &cfg, std::uint64_t warmup,
           std::uint64_t measure, std::uint64_t committed)
{
    // Cpu::run stops at the first cycle whose commit reaches the target,
    // so each phase may overshoot it by less than one commit group.
    const std::uint64_t group = cfg.backend.commit_width;
    if (s.instructions < measure || s.instructions >= measure + group)
        return "measured " + std::to_string(s.instructions) +
               " instructions, requested " + std::to_string(measure);
    if (committed < s.instructions ||
        committed - s.instructions < warmup ||
        committed - s.instructions >= warmup + group)
        return "warmup committed " +
               std::to_string(committed - s.instructions) +
               " instructions, requested " + std::to_string(warmup);
    if (s.cycles == 0)
        return "no measured cycles";

    const double width = std::min(
        {cfg.fetch_width, cfg.decode_width, cfg.alloc_width});
    const struct
    {
        const char *name;
        double v, lo, hi;
    } ranges[] = {
        {"ipc", s.ipc, 1e-9, width},
        {"branch_mpki", s.branch_mpki, 0, 1000},
        {"misfetch_pki", s.misfetch_pki, 0, 1000},
        {"combined_mpki", s.combined_mpki, 0, 1000},
        {"icache_mpki", s.icache_mpki, 0, 1000},
        {"taken_per_ki", s.taken_per_ki, 0, 1000},
        {"cond_mispredict_rate", s.cond_mispredict_rate, 0, 1},
        {"l1_btb_hitrate", s.l1_btb_hitrate, 0, s.btb_hitrate},
        {"btb_hitrate", s.btb_hitrate, 0, 1},
        {"fetch_pcs_per_access", s.fetch_pcs_per_access, 0, 1e6},
        {"avg_dyn_bb_size", s.avg_dyn_bb_size, 0, 1e9},
        {"l1_slot_occupancy", s.l1_slot_occupancy, 0, 1e9},
        {"l2_slot_occupancy", s.l2_slot_occupancy, 0, 1e9},
        {"l1_redundancy", s.l1_redundancy, 0, 1e9},
        {"l2_redundancy", s.l2_redundancy, 0, 1e9},
    };
    for (const auto &r : ranges)
        if (std::string e = outOfRange(r.name, r.v, r.lo, r.hi); !e.empty())
            return e;
    if (s.combined_mpki != s.branch_mpki + s.misfetch_pki)
        return "combined_mpki is not branch_mpki + misfetch_pki";
    return {};
}

std::string
canonicalStats(const SimStats &s)
{
    std::string out = s.workload + "|" + s.config + "|" +
                      std::to_string(s.instructions) + "|" +
                      std::to_string(s.cycles) + "|" +
                      std::to_string(s.sample_interval);
    for (double v :
         {s.ipc, s.branch_mpki, s.misfetch_pki, s.combined_mpki,
          s.cond_mispredict_rate, s.l1_btb_hitrate, s.btb_hitrate,
          s.fetch_pcs_per_access, s.taken_per_ki, s.l1_slot_occupancy,
          s.l2_slot_occupancy, s.l1_redundancy, s.l2_redundancy,
          s.icache_mpki, s.avg_dyn_bb_size})
        out += "|" + bits(v);
    for (const btbsim::obs::IntervalSample &x : s.samples) {
        out += "\ns " + std::to_string(x.cycle) + " " +
               std::to_string(x.instructions);
        for (double v : {x.ipc, x.l1_btb_hitrate, x.btb_hitrate,
                         x.branch_mpki, x.misfetch_pki, x.ftq_occupancy,
                         x.icache_mpki})
            out += " " + bits(v);
    }
    for (const auto &[k, v] : s.counters)
        out += "\nc " + k + " " + bits(v);
    return out;
}

std::string
statsDigest(const std::vector<std::string> &canonical)
{
    btbsim::exp::Sha256 h;
    for (const std::string &c : canonical) {
        h.update(c);
        h.update("\n--\n");
    }
    static const char *hex = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : h.digest()) {
        out += hex[b >> 4];
        out += hex[b & 15];
    }
    return out;
}

} // namespace perfbench
