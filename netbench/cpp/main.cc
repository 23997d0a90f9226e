/**
 * @file
 * Entry point of the NetPack benchmark binary:
 *
 *   netbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--workdir <dir>]
 *
 * Runs one workload and prints two lines on stdout: a run record
 * (machine facts, sample counts, generator lag, correctness errors) and,
 * last, the result object {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * per-layer set. Exits 1 when an output check failed, 2 on bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include <unistd.h>

#include "bench.h"

#ifndef NETBENCH_BUILD_TYPE
#define NETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NETBENCH_COMPILER
#define NETBENCH_COMPILER "unknown"
#endif

namespace {

using namespace netbench;

/** End-to-end metrics: every workload reports each of them. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "netbench: " << why
              << "\nusage: netbench --workload "
                 "<sim-philly|place-scale|serve-churn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                usage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(opts.seconds > 0.0) ||
                opts.seconds > 600.0)
                usage("--seconds wants a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--workdir") {
            opts.workdir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return opts;
}

std::string
jsonNumber(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    Result result;
    try {
        if (opts.workload == "sim-philly")
            runSimPhilly(opts, result);
        else if (opts.workload == "place-scale")
            runPlaceScale(opts, result);
        else if (opts.workload == "serve-churn")
            runServeChurn(opts, result);
        else
            usage("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &err) {
        std::cerr << "netbench: " << opts.workload << " failed: " << err.what()
                  << "\n";
        return 1;
    }
    // A workload that runs untimed checks after its load sets this itself.
    if (!result.metrics.count("peak_rss_mb"))
        result.set("peak_rss_mb", peakRssMb(), "MB");

    // Report exactly the requested set: every metric of it, each finite.
    const auto &wanted = opts.trace ? perLayerMetrics() : kEndToEnd;
    std::string metrics;
    for (const auto &[name, unit] : wanted) {
        auto it = result.metrics.find(name);
        if (it == result.metrics.end()) {
            if (!opts.trace) {
                std::cerr << "netbench: " << opts.workload
                          << " did not measure " << name << "\n";
                return 1;
            }
            // A layer this workload never enters: zero calls, zero time.
            it = result.metrics.emplace(name, Metric{0.0, unit}).first;
        }
        if (!std::isfinite(it->second.value))
            result.fail(name + " is not finite");
        if (it->second.unit != unit)
            result.fail(name + " has unit " + it->second.unit);
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(name) + ": {\"value\": " +
                   jsonNumber(std::isfinite(it->second.value) ? it->second.value
                                                              : 0.0) +
                   ", \"unit\": " + jsonString(unit) + "}";
    }

    std::string record = "{\"workload\": " + jsonString(opts.workload) +
                         ", \"seed\": " + std::to_string(opts.seed) +
                         ", \"seconds\": " + jsonNumber(opts.seconds) +
                         ", \"trace\": " + (opts.trace ? "1" : "0") +
                         ", \"nproc\": " +
                         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                         ", \"build_type\": " + jsonString(NETBENCH_BUILD_TYPE) +
                         ", \"compiler\": " + jsonString(NETBENCH_COMPILER);
    for (const auto &[key, value] : result.record)
        record += ", " + jsonString(key) + ": " + jsonNumber(value);
    record += ", \"errors\": [";
    for (std::size_t i = 0; i < result.errors.size(); ++i) {
        if (i > 0)
            record += ", ";
        record += jsonString(result.errors[i]);
    }
    record += "]}";
    for (const std::string &error : result.errors)
        std::cerr << "netbench: check failed: " << error << "\n";

    std::cout << "{\"netbench_record\": " << record << "}\n";
    std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return result.correct ? 0 : 1;
}
