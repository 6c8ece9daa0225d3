/** @file Unit tests for stats primitives. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/sat_counter.h"
#include "common/stats.h"

using namespace btbsim;

TEST(RunningMean, Basics)
{
    RunningMean m;
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
    m.add(2.0);
    m.add(4.0);
    EXPECT_DOUBLE_EQ(m.mean(), 3.0);
    m.add(6.0, 2.0); // weighted
    EXPECT_DOUBLE_EQ(m.mean(), (2 + 4 + 12) / 4.0);
}

TEST(Histogram, MeanAndOverflow)
{
    Histogram h(8);
    h.add(1);
    h.add(3);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    h.add(100); // clamps to bucket 7
    EXPECT_EQ(h.count(7), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, ZeroBucketsClampsToOne)
{
    // Regression: Histogram(0) used to compute buckets_.size() - 1 on an
    // empty vector (underflow) and write out of bounds.
    Histogram h(0);
    EXPECT_EQ(h.bucketCount(), 1u);
    h.add(0);
    h.add(100);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, Merge)
{
    Histogram a(4), b(8);
    a.add(1);
    a.add(100); // clamps to bucket 3
    b.add(6);
    a.merge(b);
    EXPECT_EQ(a.bucketCount(), 8u); // grew to the wider histogram
    EXPECT_EQ(a.count(1), 1u);
    EXPECT_EQ(a.count(3), 1u);
    EXPECT_EQ(a.count(6), 1u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(RunningMean, Merge)
{
    RunningMean a, b;
    a.add(2.0);
    b.add(4.0);
    b.add(6.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.count(), 3.0);
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, SkipsNonPositiveValues)
{
    // Regression: std::log(0) = -inf used to propagate NaN/0 into every
    // reported table containing a single dead run.
    EXPECT_DOUBLE_EQ(geomean({0.0, 4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({-3.0, 9.0}), 9.0);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({-1.0, 0.0}), 0.0);
    EXPECT_FALSE(std::isnan(geomean({-1.0, 2.0, 8.0})));
}

TEST(VecMinMax, Basics)
{
    EXPECT_DOUBLE_EQ(vecMin({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(vecMax({3.0, 1.0, 2.0}), 3.0);
    EXPECT_DOUBLE_EQ(vecMin({}), 0.0);
}

TEST(StatSet, MergeAndGet)
{
    StatSet a, b;
    a["x"] = 2;
    b["x"] = 3;
    b["y"] = 1;
    a.merge(b);
    EXPECT_EQ(a.get("x"), 5u);
    EXPECT_EQ(a.get("y"), 1u);
    EXPECT_EQ(a.get("z"), 0u);
}

TEST(StatSet, LiteralCounterIsTheNamedCounter)
{
    StatSet a;
    EXPECT_TRUE(a.all().empty()); // nothing until first increment
    for (int i = 0; i < 3; ++i)
        ++a["hits"];
    const std::string name = "hits";
    ++a[name];
    EXPECT_EQ(a.get("hits"), 4u);
    EXPECT_EQ(a.all().size(), 1u);
    // More literals than the node cache holds still count correctly.
    const char *names[] = {"c0", "c1", "c2", "c3", "c4", "c5", "c6",
                           "c7", "c8", "c9", "c10", "c11", "c12", "c13",
                           "c14", "c15", "c16", "c17"};
    for (int round = 0; round < 2; ++round) {
        ++a["c0"], ++a["c1"], ++a["c2"], ++a["c3"], ++a["c4"], ++a["c5"];
        ++a["c6"], ++a["c7"], ++a["c8"], ++a["c9"], ++a["c10"], ++a["c11"];
        ++a["c12"], ++a["c13"], ++a["c14"], ++a["c15"], ++a["c16"];
        ++a["c17"];
    }
    for (const char *n : names)
        EXPECT_EQ(a.get(n), 2u) << n;
}

TEST(StatSet, CopiesCountIndependently)
{
    StatSet a;
    ++a["x"];
    StatSet b = a;
    ++b["x"];
    ++a["x"];
    ++a["x"];
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(b.get("x"), 2u);
    b = a;
    ++b["x"];
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(b.get("x"), 4u);
    StatSet c = std::move(b);
    ++c["x"];
    EXPECT_EQ(c.get("x"), 5u);
}

TEST(SatCounter, SaturatesUp)
{
    SatCounter<2> c;
    EXPECT_EQ(c.max(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesDown)
{
    SatCounter<3> c(5);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, SixBitMaxIs63)
{
    SatCounter<6> c;
    EXPECT_EQ(c.max(), 63u);
}

TEST(SignedSatCounter, Rails)
{
    SignedSatCounter<8> w;
    for (int i = 0; i < 300; ++i)
        w.add(1);
    EXPECT_EQ(w.value(), 127);
    for (int i = 0; i < 600; ++i)
        w.add(-1);
    EXPECT_EQ(w.value(), -128);
}
