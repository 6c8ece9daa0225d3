/** @file Tests for the Fetch Target Queue and the allocation-free
 *  instruction hand-off it starts. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "btb_test_util.h"
#include "env_util.h"
#include "frontend/ftq.h"
#include "sim/cpu.h"
#include "trace_util.h"

using namespace btbsim;

namespace {

/// Global operator new calls made by this process so far.
std::size_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace {

DynInst
instAt(Addr pc)
{
    DynInst d;
    d.in.pc = pc;
    return d;
}

} // namespace

TEST(Ftq, SameLineSharesEntry)
{
    Ftq q(4);
    EXPECT_TRUE(q.push(instAt(0x1000), 1, false, true));
    EXPECT_TRUE(q.push(instAt(0x1004), 1, false, false));
    EXPECT_TRUE(q.push(instAt(0x103C), 1, false, false));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().insts.size(), 3u);
}

TEST(Ftq, LineCrossOpensEntry)
{
    Ftq q(4);
    q.push(instAt(0x103C), 1, false, true);
    q.push(instAt(0x1040), 1, false, false);
    EXPECT_EQ(q.size(), 2u);
}

TEST(Ftq, ForcedNewEntryAfterRedirect)
{
    Ftq q(4);
    q.push(instAt(0x1000), 1, false, true);
    // Taken-branch target in the same line still opens a fresh entry.
    q.push(instAt(0x1020), 1, false, true);
    EXPECT_EQ(q.size(), 2u);
}

TEST(Ftq, CapacityEnforced)
{
    Ftq q(2);
    EXPECT_TRUE(q.push(instAt(0x1000), 1, false, true));
    EXPECT_TRUE(q.push(instAt(0x2000), 1, false, true));
    EXPECT_FALSE(q.push(instAt(0x3000), 1, false, true));
    EXPECT_TRUE(q.full());
    // But appending to the open tail entry still works.
    EXPECT_TRUE(q.canAccept(0x2004, false));
    EXPECT_TRUE(q.push(instAt(0x2004), 1, false, false));
}

TEST(Ftq, BypassSetsImmediateIssue)
{
    Ftq q(4);
    q.push(instAt(0x1000), 5, true, true);
    EXPECT_EQ(q.front().min_issue_cycle, 5u);
    q.push(instAt(0x2000), 5, false, true);
    EXPECT_EQ(q.at(1).min_issue_cycle, 6u);
}

TEST(Ftq, NoAppendToIssuedEntry)
{
    Ftq q(4);
    q.push(instAt(0x1000), 1, false, true);
    q.front().issued = true;
    q.push(instAt(0x1004), 2, false, false);
    EXPECT_EQ(q.size(), 2u); // had to open a new entry
}

TEST(Ftq, PopAndClear)
{
    Ftq q(4);
    q.push(instAt(0x1000), 1, false, true);
    q.push(instAt(0x2000), 1, false, true);
    q.popFront();
    EXPECT_EQ(q.size(), 1u);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(Ftq, RecycledSlotComesBackReset)
{
    Ftq q(2);
    q.push(instAt(0x1000), 1, false, true);
    q.push(instAt(0x1004), 1, false, false);
    FtqEntry &old = q.front();
    old.issued = true;
    old.data_ready = 40;
    old.next_idx = 2;
    q.noteIssued();
    q.popFront();
    q.push(instAt(0x2000), 2, false, true); // second slot
    q.popFront();
    // The third entry wraps into the first slot.
    q.push(instAt(0x3008), 7, true, true);
    ASSERT_EQ(q.size(), 1u);
    const FtqEntry &e = q.front();
    EXPECT_EQ(&e, &old);
    EXPECT_EQ(e.line, 0x3000u);
    EXPECT_FALSE(e.issued);
    EXPECT_EQ(e.data_ready, 0u);
    EXPECT_EQ(e.next_idx, 0u);
    EXPECT_EQ(e.min_issue_cycle, 7u);
    ASSERT_EQ(e.insts.size(), 1u);
    EXPECT_EQ(e.insts[0].in.pc, 0x3008u);
    EXPECT_EQ(q.firstUnissued(), 0u);
}

TEST(Ftq, FirstUnissuedAcrossWrapAround)
{
    // Issue and pop at different rates so the issued prefix and the ring
    // head wrap a capacity-5 queue many times.
    Ftq q(5);
    Addr line = 0x10000;
    for (int round = 0; round < 200; ++round) {
        while (!q.full())
            ASSERT_TRUE(q.push(instAt(line += kLineBytes), 1, false, true));
        for (int k = 0; k < 1 + round % 3 && q.firstUnissued() < q.size();
             ++k) {
            q.at(q.firstUnissued()).issued = true;
            q.noteIssued();
        }
        for (int k = 0; k < 1 + round % 2 && q.front().issued; ++k)
            q.popFront();
        std::size_t expect = 0;
        while (expect < q.size() && q.at(expect).issued)
            ++expect;
        ASSERT_EQ(q.firstUnissued(), expect) << "round " << round;
        for (std::size_t i = expect; i < q.size(); ++i)
            ASSERT_FALSE(q.at(i).issued);
    }
}

TEST(Ftq, SameLineEntryHoldsMoreThanOneLineOfInstructions)
{
    // PcGen can append a non-sequential target in the same line to an
    // unissued entry, so an entry may exceed kLineBytes / kInstBytes.
    Ftq q(2);
    const std::size_t n = kLineBytes / kInstBytes + 8;
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(q.push(instAt(0x4000 + (i % 6) * kInstBytes), 1, false,
                           i == 0));
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().insts.size(), n);
}

TEST(Ftq, RecycledSlotsAllocateNothing)
{
    Ftq q(4);
    auto cycle = [&q] {
        // Entries of 1..16 instructions, so every slot meets a full line.
        for (unsigned k = 1; k <= 16; ++k) {
            if (q.full())
                q.popFront();
            const Addr line = 0x8000 + k * kLineBytes;
            for (unsigned i = 0; i < k; ++i)
                q.push(instAt(line + i * kInstBytes), 1, false, i == 0);
        }
    };
    const std::size_t before = g_allocs;
    for (int r = 0; r < 10; ++r)
        cycle();
    EXPECT_EQ(g_allocs, before);
}

TEST(HandOff, CpuAllocatesNothingInSteadyState)
{
    // A 256-instruction loop spanning 16 lines: every cycle moves whole
    // FTQ entries through fetch, decode and allocate into the ROB. (The
    // opt-in checker keeps its own records; it stays off here.)
    test::ScopedEnv no_check("BTBSIM_CHECK", nullptr);
    auto insts = test::straight(0x1000, 255);
    insts.push_back(
        test::branchAt(0x1000 + 255 * kInstBytes, BranchClass::kUncondDirect,
                       0x1000));
    test::VectorTrace trace(std::move(insts));
    for (const CpuConfig &cfg : {CpuConfig{}, CpuConfig{}.withIdealBackend()}) {
        Cpu cpu(cfg, trace);
        for (int i = 0; i < 5000; ++i)
            cpu.step();
        const std::uint64_t committed = cpu.committed();
        const std::size_t before = g_allocs;
        for (int i = 0; i < 20000; ++i)
            cpu.step();
        EXPECT_EQ(g_allocs, before);
        EXPECT_GT(cpu.committed(), committed + 20000);
    }
}
