/** @file Tests for global history folding. */

#include <gtest/gtest.h>

#include <vector>

#include "bpred/history.h"
#include "common/rng.h"

using namespace btbsim;

TEST(GlobalHistory, ShiftAndLow)
{
    GlobalHistory h;
    h.shift(true);
    h.shift(false);
    h.shift(true);
    // Most recent is bit 0: 1,0,1 -> 0b101.
    EXPECT_EQ(h.low(3), 0b101u);
    EXPECT_EQ(h.low(1), 1u);
}

TEST(GlobalHistory, ZeroLengthFoldIsZero)
{
    GlobalHistory h;
    for (int i = 0; i < 100; ++i)
        h.shift(i % 3 == 0);
    EXPECT_EQ(h.fold(0, 12), 0u);
}

TEST(GlobalHistory, FoldDependsOnHistory)
{
    GlobalHistory a, b;
    for (int i = 0; i < 64; ++i) {
        a.shift(true);
        b.shift(i != 13);
    }
    EXPECT_NE(a.fold(64, 12), b.fold(64, 12));
}

TEST(GlobalHistory, FoldStaysInBits)
{
    GlobalHistory h;
    for (int i = 0; i < 256; ++i) {
        h.shift((i * 7) % 5 < 2);
        EXPECT_LT(h.fold(232, 12), 1ull << 12);
        EXPECT_LT(h.fold(17, 9), 1ull << 9);
    }
}

TEST(GlobalHistory, LongShiftPropagatesAcrossWords)
{
    GlobalHistory h;
    h.shift(true);
    for (int i = 0; i < 70; ++i)
        h.shift(false);
    // The 1 is now at position 70; folding the first 64 bits sees zeros,
    // folding 128 sees the 1.
    EXPECT_EQ(h.fold(64, 8), 0u);
    EXPECT_NE(h.fold(128, 8), 0u);
}

TEST(GlobalHistory, ResetClears)
{
    GlobalHistory h;
    for (int i = 0; i < 200; ++i)
        h.shift(true);
    h.reset();
    EXPECT_EQ(h.low(64), 0u);
    EXPECT_EQ(h.fold(232, 12), 0u);
}

TEST(GlobalHistory, FoldAllMatchesFold)
{
    // Length sets: the perceptron's geometric lengths, a zero length,
    // duplicates, word boundaries, unsorted and beyond the register.
    const std::vector<std::vector<unsigned>> sets = {
        {0, 3, 4, 5, 7, 9, 12, 16, 21, 28, 38, 51, 69, 93, 125, 168, 232},
        {0, 0, 1, 1, 64, 64},
        {63, 64, 65, 127, 128, 129, 191, 192, 193},
        {255, 256, 257, 300, 1000},
        {128, 5, 0, 65, 12},
        {},
    };
    Rng rng(42);
    GlobalHistory h;
    std::vector<std::uint64_t> out;
    for (int round = 0; round < 40; ++round) {
        const unsigned shifts = 1 + static_cast<unsigned>(rng.nextBounded(300));
        const double p = rng.nextDouble();
        for (unsigned i = 0; i < shifts; ++i)
            h.shift(rng.nextBool(p));
        for (unsigned bits = 1; bits <= 64; ++bits) {
            for (const auto &lengths : sets) {
                const FoldSchedule s(lengths, bits);
                ASSERT_EQ(s.size(), lengths.size());
                out.assign(lengths.size() + 1, 0xdead);
                h.foldAll(s, out.data());
                for (std::size_t i = 0; i < lengths.size(); ++i)
                    ASSERT_EQ(out[i], h.fold(lengths[i], bits))
                        << "length " << lengths[i] << " bits " << bits;
                EXPECT_EQ(out[lengths.size()], 0xdeadu); // no overrun
            }
        }
    }
}

TEST(GlobalHistory, FoldAllZeroOutBits)
{
    GlobalHistory h;
    for (int i = 0; i < 100; ++i)
        h.shift(true);
    const FoldSchedule s({0, 17, 232}, 0);
    std::uint64_t out[3] = {1, 1, 1};
    h.foldAll(s, out);
    for (std::uint64_t v : out)
        EXPECT_EQ(v, 0u);
}

TEST(PathHistory, ShiftMixes)
{
    PathHistory p;
    p.shift(0x1000);
    const auto v1 = p.value();
    p.shift(0x2000);
    EXPECT_NE(p.value(), v1);
    p.reset();
    EXPECT_EQ(p.value(), 0u);
}
