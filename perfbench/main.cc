/**
 * @file
 * perfbench: one command for the end-to-end and per-layer benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--setup-only]
 *
 * Prints a host fingerprint and a readable report, then, as the last
 * line of standard output, one JSON object with the keys correct,
 * attempted, failed and metrics. With --setup-only the process only
 * sets up and its metrics are the set-up times. Exits 1 when any correctness or
 * determinism check fails, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hh"

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--setup-only]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--setup-only") {
            opts.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end)
                return usage("--seed takes an unsigned integer");
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(val.c_str(), &end);
            if (*end || !(opts.seconds > 0.0))
                return usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = val == "1";
        } else if (arg == "--out-dir") {
            opts.outDir = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    bool known = false;
    for (const auto &w : perfbench::workloadNames())
        known |= w == opts.workload;
    if (!have_workload || !known)
        return usage("--workload must be zoo_plan, multidnn_mix or "
                     "serving_overload");

    // Host fingerprint: wall-clock figures only compare on like hosts.
    // The planner runs at its default thread count (0 = one per
    // hardware thread); sweeps and serving run on the calling thread.
    unsigned hw = std::thread::hardware_concurrency();
#ifdef __clang__
    const char *compiler = "clang";
#else
    const char *compiler = "gcc";
#endif
    std::cout << "host: nproc=" << hw << " compiler=\"" << compiler << " "
              << __VERSION__
              << "\" build=" << PERFBENCH_BUILD_TYPE << " cpu=\""
              << cpuModel() << "\" planner_threads=" << hw
              << " sweep_pool=0 serving_threads=1\n";
    std::cout << "run: workload=" << opts.workload
              << " seed=" << opts.seed << " seconds=" << opts.seconds
              << " trace=" << (opts.trace ? 1 : 0) << "\n";

    auto report = perfbench::runWorkload(opts, std::cout);
    for (const auto &e : report.errors)
        std::cout << "CHECK FAILED: " << e << "\n";

    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &m = report.metrics[i];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        if (m.absent)
            std::snprintf(buf, sizeof(buf), "null");
        std::cout << (i ? ", " : "") << jsonString(m.name)
                  << ": {\"value\": " << buf
                  << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return report.correct ? 0 : 1;
}
