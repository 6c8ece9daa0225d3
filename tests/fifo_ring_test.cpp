/** @file Tests for the fixed-capacity FIFO ring. */

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <vector>

#include "common/fifo_ring.h"
#include "common/rng.h"

using namespace btbsim;

TEST(FifoRing, ZeroCapacityThrows)
{
    EXPECT_THROW(FifoRing<int>(0), std::invalid_argument);
}

TEST(FifoRing, SizeEmptyFull)
{
    FifoRing<int> r(3);
    EXPECT_EQ(r.capacity(), 3u);
    EXPECT_TRUE(r.empty());
    EXPECT_FALSE(r.full());
    r.push(1);
    r.push(2);
    EXPECT_EQ(r.size(), 2u);
    EXPECT_FALSE(r.empty());
    EXPECT_FALSE(r.full());
    r.push(3);
    EXPECT_TRUE(r.full());
    EXPECT_EQ(r.front(), 1);
    EXPECT_EQ(r.back(), 3);
    r.popFront();
    EXPECT_EQ(r.size(), 2u);
    EXPECT_FALSE(r.full());
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 3u);
}

TEST(FifoRing, FifoOrderAcrossManyWraps)
{
    // A non-power-of-two capacity, driven by random push/pop runs
    // against std::deque, wraps the ring many times.
    for (std::size_t cap : {1u, 5u, 7u, 64u}) {
        FifoRing<std::uint64_t> r(cap);
        std::deque<std::uint64_t> ref;
        Rng rng(cap);
        std::uint64_t next = 0;
        for (int step = 0; step < 20000; ++step) {
            if (!r.full() && (r.empty() || rng.nextBool(0.5))) {
                r.push(++next);
                ref.push_back(next);
            } else {
                ASSERT_EQ(r.front(), ref.front());
                r.popFront();
                ref.pop_front();
            }
            ASSERT_EQ(r.size(), ref.size());
            ASSERT_EQ(r.empty(), ref.empty());
            ASSERT_EQ(r.full(), ref.size() == cap);
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(r[i], ref[i]) << "cap " << cap << " step " << step;
            if (!ref.empty()) {
                ASSERT_EQ(r.back(), ref.back());
            }
        }
        EXPECT_GT(next, 100 * cap) << "ring did not wrap";
    }
}

TEST(FifoRing, PushSlotReusesTheVacatedSlot)
{
    // A slot keeps what its last element owned: a vector's buffer
    // survives a trip round the ring.
    FifoRing<std::vector<int>> r(2);
    r.pushSlot().assign(100, 7);
    const int *buf = r.front().data();
    r.popFront();
    r.pushSlot().clear();
    r.popFront();
    std::vector<int> &again = r.pushSlot();
    EXPECT_EQ(again.data(), buf);
    EXPECT_GE(again.capacity(), 100u);
}
