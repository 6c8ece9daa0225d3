/** @file Tests for canonical configuration JSON (exp/config_json.h). */

#include <gtest/gtest.h>

#include <vector>

#include "exp/config_json.h"
#include "obs/json.h"

using namespace btbsim;

namespace {

/** A CpuConfig with every field moved off its default. */
CpuConfig
fullyMutatedConfig()
{
    CpuConfig c;
    c.btb = BtbConfig::mbbtb(3, PullPolicy::kAllBr, 32);
    c.btb.skip_taken = true;
    c.btb.region_bytes = 128;
    c.btb.dual_region = true;
    c.btb.split = true;
    c.btb.cond_ends_block = true;
    c.btb.stability_threshold = 7;
    c.btb.allow_last_slot_pull = true;
    c.btb.l1 = {64, 3};
    c.btb.l2 = {2048, 5};
    c.btb.ideal = true;
    c.btb.l2_penalty = 9;

    c.bpred.perceptron.num_tables = 5;
    c.bpred.ras_entries = 32;
    c.mem.l1i.sets = 128;
    c.mem.l2.ways = 12;
    c.mem.llc.next_line_prefetch = true;
    c.mem.dram_latency = 150;
    c.backend.rob_size = 777;
    c.backend.ideal = true;

    c.ftq_entries = 32;
    c.decode_queue = 48;
    c.alloc_queue = 40;
    c.fetch_width = 8;
    c.fetch_lines = 4;
    c.decode_width = 8;
    c.alloc_width = 8;
    c.btb_predecode_fill = true;
    return c;
}

WorkloadSpec
fullyMutatedSpec()
{
    WorkloadSpec s;
    s.name = "roundtrip-wl";
    s.trace_seed = 0xABCDEF;
    s.params.seed = 42;
    s.params.target_static_insts = 12345;
    s.params.num_handlers = 3;
    s.params.mean_block_len = 7.25;
    s.params.w_check = 0.31;
    s.params.w_always_if = 0.11;
    s.params.w_mixed_if = 0.08;
    s.params.w_loop = 0.04;
    s.params.w_call = 0.21;
    s.params.w_icall = 0.06;
    s.params.w_switch = 0.05;
    s.params.w_jump = 0.041;
    s.params.monomorphic_frac = 0.5;
    s.params.pattern_frac = 0.123456789012345; // Exercises %.17g fidelity.
    s.params.min_trips = 3;
    s.params.max_trips = 17;
    s.params.fixed_trip_frac = 0.91;
    s.params.data_footprint = 3ull << 20;
    s.params.frac_load = 0.19;
    s.params.frac_store = 0.08;
    s.params.frac_stream_stack = 0.59;
    s.params.frac_stream_stride = 0.33;
    s.params.dep_locality = 0.21;
    return s;
}

} // namespace

TEST(ConfigJson, CpuConfigRoundTripsExactly)
{
    for (const CpuConfig &c :
         {CpuConfig{}, fullyMutatedConfig(), [] {
              CpuConfig h;
              h.btb = BtbConfig::hetero(2);
              return h;
          }()}) {
        const std::string json = exp::toCanonicalJson(c);
        const CpuConfig back =
            exp::cpuConfigFromJson(obs::parseJson(json));
        EXPECT_EQ(back, c);
        // Re-serializing the round-tripped value is byte-identical:
        // canonical form is a fixed point.
        EXPECT_EQ(exp::toCanonicalJson(back), json);
    }
}

TEST(ConfigJson, RunOptionsRoundTripsExactly)
{
    RunOptions o;
    o.warmup = 123;
    o.measure = 456;
    o.traces = 7;
    o.threads = 3;
    const std::string json = exp::toCanonicalJson(o);
    const RunOptions back = exp::runOptionsFromJson(obs::parseJson(json));
    EXPECT_EQ(back, o);
    EXPECT_EQ(exp::toCanonicalJson(back), json);
}

TEST(ConfigJson, WorkloadSpecRoundTripsExactly)
{
    const WorkloadSpec s = fullyMutatedSpec();
    const std::string json = exp::toCanonicalJson(s);
    const WorkloadSpec back =
        exp::workloadSpecFromJson(obs::parseJson(json));
    EXPECT_EQ(back, s);
    EXPECT_EQ(exp::toCanonicalJson(back), json);
}

TEST(ConfigJson, SerializationIsDeterministic)
{
    const CpuConfig c = fullyMutatedConfig();
    EXPECT_EQ(exp::toCanonicalJson(c), exp::toCanonicalJson(c));
}

TEST(ConfigJson, DifferentConfigsSerializeDifferently)
{
    CpuConfig a, b;
    b.fetch_width = a.fetch_width + 1;
    EXPECT_NE(exp::toCanonicalJson(a), exp::toCanonicalJson(b));
}

TEST(ConfigJson, SchemaMismatchThrows)
{
    std::string json = exp::toCanonicalJson(CpuConfig{});
    const std::string needle =
        "\"_schema\": " + std::to_string(exp::kConfigSchemaVersion);
    const auto pos = json.find(needle);
    ASSERT_NE(pos, std::string::npos);
    json.replace(pos, needle.size(), "\"_schema\": 999");
    EXPECT_THROW(exp::cpuConfigFromJson(obs::parseJson(json)),
                 std::runtime_error);
}

TEST(ConfigJson, MissingKeyThrows)
{
    EXPECT_THROW(exp::runOptionsFromJson(obs::parseJson(
                     "{\"_schema\": 1, \"warmup\": 1}")),
                 std::runtime_error);
}

namespace {

/** @p json with the first `"key": <number>` value replaced by @p value. */
std::string
withValue(std::string json, const std::string &key, const std::string &value)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << key;
    if (pos == std::string::npos)
        return json;
    const auto start = pos + needle.size();
    const auto end = json.find_first_of(",}\n", start);
    return json.replace(start, end - start, value);
}

} // namespace

TEST(ConfigJson, IntegerFieldsRejectFractionsAndOverflow)
{
    // 32-bit fields: a fraction, 2^32 (truncated to 0 before), a value
    // that does not fit 64 bits, and a negative.
    const std::string cpu = exp::toCanonicalJson(CpuConfig{});
    for (const char *key : {"ftq_entries", "icache_interleaves", "rob_size"})
        for (const char *bad : {"1.5", "4294967296", "1e20", "-1"})
            EXPECT_THROW(exp::cpuConfigFromJson(
                             obs::parseJson(withValue(cpu, key, bad))),
                         std::runtime_error)
                << key << " = " << bad;
    EXPECT_EQ(exp::cpuConfigFromJson(obs::parseJson(
                  withValue(cpu, "ftq_entries", "4294967295")))
                  .ftq_entries,
              4294967295u);

    // 64-bit fields: a fraction, 2^64 and beyond.
    const std::string run = exp::toCanonicalJson(RunOptions{});
    for (const char *bad :
         {"0.5", "1000.25", "18446744073709551616", "1e20", "-3"})
        EXPECT_THROW(exp::runOptionsFromJson(
                         obs::parseJson(withValue(run, "warmup", bad))),
                     std::runtime_error)
            << "warmup = " << bad;
    EXPECT_EQ(exp::runOptionsFromJson(
                  obs::parseJson(withValue(run, "warmup", "9007199254740992")))
                  .warmup,
              9007199254740992ull); // 2^53
    EXPECT_THROW(exp::workloadSpecFromJson(obs::parseJson(withValue(
                     exp::toCanonicalJson(WorkloadSpec{}), "trace_seed",
                     "2.5"))),
                 std::runtime_error);
}

TEST(ConfigJson, EnumNamesRoundTrip)
{
    for (BtbKind k : {BtbKind::kInstruction, BtbKind::kRegion,
                      BtbKind::kBlock, BtbKind::kMultiBlock, BtbKind::kHetero})
        EXPECT_EQ(exp::btbKindFromName(exp::btbKindName(k)), k);
    for (PullPolicy p : {PullPolicy::kNone, PullPolicy::kUncondDir,
                         PullPolicy::kCallDir, PullPolicy::kAllBr})
        EXPECT_EQ(exp::pullPolicyFromName(exp::pullPolicyName(p)), p);
    EXPECT_THROW(exp::btbKindFromName("bogus"), std::runtime_error);
    EXPECT_THROW(exp::pullPolicyFromName("bogus"), std::runtime_error);
}
