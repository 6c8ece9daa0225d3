/**
 * @file
 * Figure 7: R-BTB improvements — even/odd set-interleaved L1 (2L1 R-BTB,
 * Section 6.2), same-geometry entries with 16 branch slots (overflow
 * upper bound), and 128B regions with 2/3/4/6 slots.
 */

#include "bench_common.h"

using namespace btbsim;
using namespace btbsim::bench;

int
main()
{
    Context ctx = setup("Fig. 7 — R-BTB improvements",
                        "Figure 7 (Section 6.5.1)");

    std::vector<CpuConfig> configs;
    configs.push_back(idealIbtb16());
    configs.push_back(realIbtb16());
    auto add = [&](BtbConfig b) {
        CpuConfig c;
        c.btb = b;
        configs.push_back(c);
    };

    add(BtbConfig::rbtb(2));
    add(BtbConfig::rbtb(2, 64, /*dual=*/true)); // 2L1 R-BTB 2BS
    add(BtbConfig::rbtb(3));
    add(BtbConfig::rbtb(3, 64, /*dual=*/true)); // 2L1 R-BTB 3BS

    // Same geometry as the 2BS/3BS configs but 16 slots per entry: an
    // upper bound on shared "overflow" slot storage.
    {
        BtbConfig b = BtbConfig::rbtb(16);
        BtbConfig::realGeometry(2, b.l1, b.l2);
        add(b);
    }
    {
        BtbConfig b = BtbConfig::rbtb(16);
        BtbConfig::realGeometry(3, b.l1, b.l2);
        add(b);
    }

    for (unsigned slots : {2u, 3u, 4u, 6u})
        add(BtbConfig::rbtb(slots, 128));

    ResultSet rs = runAll(ctx, configs);
    printFigure(rs, "I-BTB 16 (ideal)");

    expectation(
        "2L1 interleaving helps only slightly (paper: up to 1.4%, 0.5% "
        "geomean for 2BS); keeping the 2BS/3BS geometry but 16 slots per "
        "entry recovers near-I-BTB performance (pressure is on slots, not "
        "entries); 128B regions need ~4 slots to pay off and lose again at "
        "6 slots (too few entries). Best realistic R-BTB: 2L1 3BS.");
    return bench::finish();
}
