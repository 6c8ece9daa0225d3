/**
 * @file
 * Figure 8: B-BTB with/without entry splitting (Section 6.3) and MB-BTB
 * with the three pull policies (Section 6.4), for 1-3 branch slots.
 */

#include "bench_common.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Fig. 8 — B-BTB splitting and MultiBlock BTB",
                        "Figure 8 (Section 6.5.2)");

    std::vector<CpuConfig> configs;
    configs.push_back(idealIbtb16());
    configs.push_back(realIbtb16());
    auto add = [&](BtbConfig b) {
        CpuConfig c;
        c.btb = b;
        configs.push_back(c);
    };

    add(BtbConfig::rbtb(3, 64, /*dual=*/true)); // best R-BTB from Fig. 7

    add(BtbConfig::bbtb(1));
    add(BtbConfig::bbtb(1, /*split=*/true));
    add(BtbConfig::bbtb(2));
    add(BtbConfig::bbtb(2, /*split=*/true));
    add(BtbConfig::mbbtb(2, PullPolicy::kUncondDir));
    add(BtbConfig::mbbtb(2, PullPolicy::kCallDir));
    add(BtbConfig::mbbtb(2, PullPolicy::kAllBr));
    add(BtbConfig::bbtb(3));
    add(BtbConfig::bbtb(3, /*split=*/true));
    add(BtbConfig::mbbtb(3, PullPolicy::kUncondDir));
    add(BtbConfig::mbbtb(3, PullPolicy::kCallDir));
    add(BtbConfig::mbbtb(3, PullPolicy::kAllBr));

    ResultSet rs = runAll(ctx, configs);
    printFigure(rs, "I-BTB 16 (ideal)");

    expectation(
        "B-BTB 1BS with splitting is the best practical configuration "
        "(paper: splitting adds 2.6% geomean at 1BS, reaching 1.78 vs "
        "1.79 for realistic I-BTB); splitting barely matters at 2-3BS; "
        "MB-BTB pull policies help monotonically (UncndDir < CallDir < "
        "AllBr), most at 3BS (entries are scarcer, so chaining recovers "
        "reach), yet MB-BTB 2BS AllBr still trails B-BTB 1BS Splt.");
    return bench::finish();
}
