/**
 * @file
 * The benchmark's three workloads (see perfbench/README.md for why each
 * exists and what every metric means on it).
 *
 * Every workload runs the same pipeline through the library's public
 * API — cold compile, replan ladder, solo executes plus the six preload
 * baselines, a serving call and a capacity sweep — over its own model
 * mix, arrival trace and cluster, so each stresses a different layer.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Host seconds the timed passes may take (at least kMinPasses
     * passes always run). */
    double seconds = 10.0;
    /** false: end-to-end metrics from untraced passes. true: per-layer
     * metrics from a traced run. */
    bool trace = false;
    /** Directory the traced run writes its spans file to ("" = none). */
    std::string outDir;
    /** Only set up, and report the set-up times (setup_s and the
     * set-up's per-layer metrics); no passes run. */
    bool setupOnly = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** The measured tree lacks the field behind this metric. */
    bool absent = false;
};

struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Correctness or determinism failures, one line each. */
    std::vector<std::string> errors;
};

/** Workload names runWorkload() accepts. */
const std::vector<std::string> &workloadNames();

/** Run one workload; human-readable progress goes to @p log. */
RunReport runWorkload(const RunOptions &opts, std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
