/** @file Tests for the BTBSIM_* environment-knob facade. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "env_util.h"
#include "sim/runner.h"
#include "traceio/trace_reader.h"

using namespace btbsim;
using btbsim::test::ScopedEnv;

namespace {

constexpr const char *kVar = "BTBSIM_WARMUP"; // Any registered knob.

/** Expect @p read to throw std::invalid_argument naming @p knob. */
template <typename F>
void
expectRejected(const char *knob, const char *value, F read)
{
    ScopedEnv e(knob, value);
    try {
        read();
        ADD_FAILURE() << "accepted " << knob << "=" << value;
    } catch (const std::invalid_argument &ex) {
        EXPECT_NE(std::string(ex.what()).find(knob), std::string::npos)
            << ex.what();
    }
}

} // namespace

TEST(Env, KnobTableIsWellFormed)
{
    const auto &ks = env::knobs();
    ASSERT_FALSE(ks.empty());
    std::set<std::string> names;
    for (const env::Knob &k : ks) {
        EXPECT_TRUE(std::string(k.name).starts_with("BTBSIM_")) << k.name;
        EXPECT_TRUE(names.insert(k.name).second)
            << "duplicate knob " << k.name;
        EXPECT_NE(std::string(k.description), "") << k.name;
        EXPECT_TRUE(env::isKnown(k.name));
    }
    EXPECT_FALSE(env::isKnown("BTBSIM_NO_SUCH_KNOB"));
}

TEST(Env, EveryDocumentedKnobIsRegistered)
{
    // The knobs the rest of the library reads through the facade.
    for (const char *name :
         {"BTBSIM_WARMUP", "BTBSIM_MEASURE", "BTBSIM_TRACES",
          "BTBSIM_THREADS", "BTBSIM_RUN_CACHE", "BTBSIM_RESUME",
          "BTBSIM_SAMPLE_INTERVAL", "BTBSIM_SPANS", "BTBSIM_SPAN_CAP",
          "BTBSIM_SPAN_OUT", "BTBSIM_HOST_COUNTERS", "BTBSIM_TRACE",
          "BTBSIM_TRACE_CAP", "BTBSIM_TRACE_DIR", "BTBSIM_JSON_OUT",
          "BTBSIM_CSV_OUT", "BTBSIM_REPLAY_MMAP", "BTBSIM_REPLAY_CACHE_MB"})
        EXPECT_TRUE(env::isKnown(name)) << name;
}

TEST(Env, RawAndIsSet)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::raw(kVar), "");
        EXPECT_FALSE(env::isSet(kVar));
    }
    {
        ScopedEnv e(kVar, "");
        EXPECT_FALSE(env::isSet(kVar));
    }
    {
        ScopedEnv e(kVar, "123");
        EXPECT_EQ(env::raw(kVar), "123");
        EXPECT_TRUE(env::isSet(kVar));
    }
}

TEST(Env, U64)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::u64(kVar, 77), 77u);
    }
    {
        ScopedEnv e(kVar, "123456789012");
        EXPECT_EQ(env::u64(kVar, 77), 123456789012ull);
    }
    {
        ScopedEnv e(kVar, "0");
        EXPECT_EQ(env::u64(kVar, 77), 0u);
    }
    {
        ScopedEnv e(kVar, "18446744073709551615");
        EXPECT_EQ(env::u64(kVar, 77), 18446744073709551615ull);
    }
    // Anything but plain decimal digits fails loudly, naming the knob:
    // strtoull alone would have read "1e6" as 1, "abc" as 0, "500k" as
    // 500 and "-1" as 2^64-1.
    for (const char *bad :
         {"1e6", "abc", "500k", "-1", "+5", " 5", "5 ", "0x10",
          "18446744073709551616", "99999999999999999999"}) {
        ScopedEnv e(kVar, bad);
        try {
            env::u64(kVar, 77);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const std::invalid_argument &ex) {
            EXPECT_NE(std::string(ex.what()).find(kVar), std::string::npos)
                << ex.what();
        }
    }
}

TEST(Env, U32)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::u32(kVar, 77), 77u);
    }
    {
        ScopedEnv e(kVar, "4294967295");
        EXPECT_EQ(env::u32(kVar, 77), 4294967295u);
    }
    // Above 2^32-1 used to wrap when narrowed (2^32+1 ran one thread).
    for (const char *bad : {"4294967296", "4294967297", "18446744073709551615",
                            "-1", "1e3"})
        expectRejected(kVar, bad, [] { env::u32(kVar, 77); });
}

TEST(Env, ThreadsKnobIsRangeChecked)
{
    {
        ScopedEnv e("BTBSIM_THREADS", "3");
        EXPECT_EQ(RunOptions::fromEnv().threads, 3u);
    }
    for (const char *bad : {"4294967296", "4294967297"})
        expectRejected("BTBSIM_THREADS", bad, [] { RunOptions::fromEnv(); });
}

TEST(Env, ReplayCacheBudgetIsRangeChecked)
{
    using Options = traceio::TraceReplaySource::Options;
    {
        ScopedEnv e("BTBSIM_REPLAY_CACHE_MB", "17592186044415"); // 2^44-1
        EXPECT_EQ(Options::fromEnv().cache_budget_bytes,
                  17592186044415ull << 20);
    }
    // 2^44 MB is 2^64 bytes: the shift would overflow.
    for (const char *bad : {"17592186044416", "18446744073709551615"})
        expectRejected("BTBSIM_REPLAY_CACHE_MB", bad,
                       [] { Options::fromEnv(); });
}

TEST(Env, FlagAndDisabled)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_FALSE(env::flag(kVar));
        EXPECT_FALSE(env::disabled(kVar));
    }
    {
        ScopedEnv e(kVar, "0");
        EXPECT_FALSE(env::flag(kVar));
        EXPECT_TRUE(env::disabled(kVar));
    }
    {
        ScopedEnv e(kVar, "1");
        EXPECT_TRUE(env::flag(kVar));
        EXPECT_FALSE(env::disabled(kVar));
    }
}

TEST(Env, Str)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::str(kVar, "fb"), "fb");
    }
    {
        ScopedEnv e(kVar, "path/x");
        EXPECT_EQ(env::str(kVar, "fb"), "path/x");
    }
}

TEST(Env, OutPathSemantics)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::outPath(kVar, "d.json"), "");
    }
    {
        ScopedEnv e(kVar, "0");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "");
    }
    {
        ScopedEnv e(kVar, "1");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "d.json");
    }
    {
        ScopedEnv e(kVar, "true");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "d.json");
    }
    {
        ScopedEnv e(kVar, "other.json");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "other.json");
    }
}
