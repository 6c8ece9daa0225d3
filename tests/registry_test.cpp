/** @file Unit tests for the hierarchical stat registry (src/obs). */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/registry.h"

using namespace btbsim;
using obs::StatRegistry;

TEST(StatRegistry, CounterRegistrationAndDottedLookup)
{
    StatRegistry reg;
    ++reg.counter("l1_btb.hit");
    reg.counter("l1_btb.hit") += 2;
    ++reg.counter("ftq.stall");

    EXPECT_TRUE(reg.has("l1_btb.hit"));
    EXPECT_FALSE(reg.has("l1_btb.miss"));
    EXPECT_DOUBLE_EQ(reg.value("l1_btb.hit"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("ftq.stall"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("absent.path"), 0.0);
}

TEST(StatRegistry, MeansAndHistograms)
{
    StatRegistry reg;
    reg.mean("ftq.occupancy").add(10.0);
    reg.mean("ftq.occupancy").add(20.0);
    reg.histogram("btb.slots", 4).add(1);
    reg.histogram("btb.slots").add(3);

    EXPECT_DOUBLE_EQ(reg.value("ftq.occupancy"), 15.0);
    EXPECT_DOUBLE_EQ(reg.value("btb.slots"), 2.0);
    EXPECT_EQ(reg.histogram("btb.slots").bucketCount(), 4u);
}

TEST(StatRegistry, ScopesNestAndPrefix)
{
    StatRegistry reg;
    StatRegistry::Scope cpu = reg.scope("cpu");
    StatRegistry::Scope btb = cpu.scope("l1_btb");
    ++btb.counter("hit");
    btb.mean("occupancy").add(0.5);

    EXPECT_EQ(btb.prefix(), "cpu.l1_btb");
    EXPECT_TRUE(reg.has("cpu.l1_btb.hit"));
    EXPECT_DOUBLE_EQ(reg.value("cpu.l1_btb.hit"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("cpu.l1_btb.occupancy"), 0.5);
}

TEST(StatRegistry, ImportStatSet)
{
    StatSet s;
    s["accesses"] = 7;
    s["allocs"] = 2;

    StatRegistry reg;
    reg.scope("btb").importStatSet(s);
    EXPECT_DOUBLE_EQ(reg.value("btb.accesses"), 7.0);
    EXPECT_DOUBLE_EQ(reg.value("btb.allocs"), 2.0);

    // Importing again accumulates (merge semantics).
    reg.scope("btb").importStatSet(s);
    EXPECT_DOUBLE_EQ(reg.value("btb.accesses"), 14.0);
}

TEST(StatRegistry, MergeCombinesAllKinds)
{
    StatRegistry a, b;
    a.counter("c.x") = 2;
    b.counter("c.x") = 3;
    b.counter("c.y") = 1;
    a.mean("m") .add(1.0);
    b.mean("m").add(3.0);
    b.mean("m2").add(9.0);
    a.histogram("h", 4).add(1);
    b.histogram("h", 4).add(2);

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.value("c.x"), 5.0);
    EXPECT_DOUBLE_EQ(a.value("c.y"), 1.0);
    EXPECT_DOUBLE_EQ(a.value("m"), 2.0);
    EXPECT_DOUBLE_EQ(a.value("m2"), 9.0);
    EXPECT_EQ(a.histogram("h").total(), 2u);
    EXPECT_EQ(a.histogram("h").count(1), 1u);
    EXPECT_EQ(a.histogram("h").count(2), 1u);
}

TEST(StatRegistry, MergeAcrossThreads)
{
    // Each worker fills its own registry (the sweep-worker pattern: no
    // sharing during the run), then the results merge deterministically.
    constexpr int kThreads = 4;
    constexpr int kIncrements = 1000;
    std::vector<StatRegistry> regs(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&regs, t] {
            for (int i = 0; i < kIncrements; ++i)
                ++regs[t].counter("worker.ticks");
            regs[t].counter("worker.id_sum") = static_cast<unsigned>(t);
        });
    for (auto &t : pool)
        t.join();

    StatRegistry total;
    for (const StatRegistry &r : regs)
        total.merge(r);
    EXPECT_DOUBLE_EQ(total.value("worker.ticks"),
                     double(kThreads) * kIncrements);
    EXPECT_DOUBLE_EQ(total.value("worker.id_sum"), 0.0 + 1 + 2 + 3);
}

TEST(StatRegistry, FlattenProducesDottedMap)
{
    StatRegistry reg;
    reg.counter("a.b") = 4;
    reg.mean("a.c").add(2.0);
    reg.histogram("d", 8).add(5);

    const auto flat = reg.flatten();
    ASSERT_EQ(flat.size(), 3u);
    EXPECT_DOUBLE_EQ(flat.at("a.b"), 4.0);
    EXPECT_DOUBLE_EQ(flat.at("a.c"), 2.0);
    EXPECT_DOUBLE_EQ(flat.at("d"), 5.0);
}
