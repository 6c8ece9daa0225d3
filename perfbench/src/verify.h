/**
 * @file
 * Correctness checks the benchmark applies to every simulated point.
 *
 * The model is not validated against hardware, so there is no accuracy
 * error to report. What the benchmark can check exactly is that a point
 * ran the requested length, that every rate lies in its valid range,
 * and that the simulated statistics are bit-identical wherever the same
 * point is simulated twice (later rounds, and the traced run against the
 * untraced one).
 */

#ifndef PERFBENCH_VERIFY_H
#define PERFBENCH_VERIFY_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/sim_stats.h"

namespace perfbench {

/**
 * Range and length checks of one point's statistics. @p committed is
 * Cpu::committed() after the run (warmup + measurement window).
 * @return an empty string when the point is valid, else the first
 * violation.
 */
std::string checkPoint(const btbsim::SimStats &s,
                       const btbsim::CpuConfig &cfg, std::uint64_t warmup,
                       std::uint64_t measure, std::uint64_t committed);

/**
 * Canonical text of every simulated field of @p s: doubles as their bit
 * patterns, plus the interval samples and the flattened counters. Host
 * fields (timings, span profile, source speed) are excluded, so two
 * runs of the same point compare equal exactly when the simulation
 * matched.
 */
std::string canonicalStats(const btbsim::SimStats &s);

/** Lowercase hex SHA-256 over the canonical texts, in order. */
std::string statsDigest(const std::vector<std::string> &canonical);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_H
