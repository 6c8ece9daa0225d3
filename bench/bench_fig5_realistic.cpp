/**
 * @file
 * Figure 5: realistic two-level hierarchies (Table 1 sizes): I-BTB 16 vs
 * R-BTB and B-BTB with 1-4 branch slots per entry, structures resized so
 * total branch slots stay constant (Section 6.1). Normalized to the
 * idealistic I-BTB 16.
 */

#include "bench_common.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Fig. 5 — Realistic BTB hierarchies",
                        "Figure 5 (Section 6.1)");

    std::vector<CpuConfig> configs;
    configs.push_back(idealIbtb16());
    configs.push_back(realIbtb16());
    auto add = [&](BtbConfig b) {
        CpuConfig c;
        c.btb = b;
        configs.push_back(c);
    };
    for (unsigned slots : {1u, 2u, 3u, 4u})
        add(BtbConfig::rbtb(slots));
    for (unsigned slots : {1u, 2u, 3u, 4u})
        add(BtbConfig::bbtb(slots));

    ResultSet rs = runAll(ctx, configs);
    printFigure(rs, "I-BTB 16 (ideal)");

    expectation(
        "R-BTB 1BS performs worst (lines hold more than one taken branch); "
        "B-BTB 1BS comes close to realistic I-BTB (paper: 1.74 vs 1.79 "
        "geomean IPC) with the gap explained by redundancy and untracked "
        "branches (combined misfetch+mispredict 5.91 vs 0.84 MPKI, L1 hit "
        "60.8% vs 76.3%); adding slots helps R-BTB up to 3BS then flattens, "
        "while it *hurts* B-BTB (blocks start contending for entries).");
    return bench::finish();
}
