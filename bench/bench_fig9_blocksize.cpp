/**
 * @file
 * Figure 9: extending entry reach (block size) without adding branch
 * slots: B-BTB 1BS Splt at 16/32 instructions; MB-BTB 2BS and 3BS AllBr
 * at 16/32/64 instructions.
 */

#include "bench_common.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Fig. 9 — Increasing entry reach (block size)",
                        "Figure 9 (Section 6.5.2)");

    std::vector<CpuConfig> configs;
    configs.push_back(idealIbtb16());
    auto add = [&](BtbConfig b) {
        CpuConfig c;
        c.btb = b;
        configs.push_back(c);
    };

    add(BtbConfig::bbtb(1, /*split=*/true, 16));
    add(BtbConfig::bbtb(1, /*split=*/true, 32));
    for (unsigned reach : {16u, 32u, 64u})
        add(BtbConfig::mbbtb(2, PullPolicy::kAllBr, reach));
    for (unsigned reach : {16u, 32u, 64u})
        add(BtbConfig::mbbtb(3, PullPolicy::kAllBr, reach));
    // Baseline B-BTB with larger reach for the "unused reach" comparison.
    add(BtbConfig::bbtb(2, false, 32));
    add(BtbConfig::bbtb(2, false, 64));

    ResultSet rs = runAll(ctx, configs);
    printFigure(rs, "I-BTB 16 (ideal)");

    expectation(
        "Reach barely helps B-BTB 1BS Splt (16 -> 32 negligible) and plain "
        "B-BTB (blocks terminate at unconditional branches long before the "
        "limit); MB-BTB 2BS AllBr gains noticeably from 16 -> 32 (paper: "
        "up to 6.3%, 1.3% geomean) then saturates; MB-BTB 3BS AllBr "
        "benefits most (paper: 64-instruction blocks give +6.8% geomean "
        "over 16).");
    return bench::finish();
}
