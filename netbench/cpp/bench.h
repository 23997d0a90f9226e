/**
 * @file
 * Shared scaffolding of the NetPack benchmark: run options, sample sets
 * with nearest-rank percentiles, the metric/record sink every workload
 * fills, and small helpers (clock, seed derivation, FNV digests, peak
 * RSS). Nothing here calls into the program; workloads do that.
 */

#ifndef NETBENCH_BENCH_H
#define NETBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace netpack::obs {
struct MetricsSnapshot;
}

namespace netbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured seconds (the timed phases share this budget). */
    double seconds = 10.0;
    /** 0 = end-to-end metrics, 1 = per-layer metrics (traced run). */
    bool trace = false;
    /** Scratch directory for WAL files (inside the checkout). */
    std::string workdir = ".";
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Timing samples; percentiles are nearest-rank. */
class Samples
{
  public:
    void add(double x) { values_.push_back(x); }
    std::size_t count() const { return values_.size(); }
    double sum() const;
    double mean() const;
    /** Nearest-rank quantile, q in [0, 1]; 0 for an empty set. */
    double quantile(double q) const;
    /**
     * True when at least ten samples lie beyond quantile @p q, the
     * benchmark's rule for reporting that percentile.
     */
    bool supports(double q) const;
    /**
     * The p99; with fewer than 1,000 samples, the highest percentile
     * that still has ten samples beyond it (never below the median).
     */
    double p99() const;
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload returns: the correctness verdict, attempted/failed
 * operation counts, the metrics, and the run record (sample counts and
 * other facts that make a number interpretable).
 */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::map<std::string, double> record;
    std::vector<std::string> errors;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Record a correctness failure; the run then reports correct=false. */
    void fail(const std::string &what)
    {
        correct = false;
        errors.push_back(what);
    }
};

/** Deterministic sub-seed: distinct streams per (seed, stream, index). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index = 0);

/** FNV-1a 64-bit over @p bytes, continuing from @p hash. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 14695981039346656037ull);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Median of @p values (sorted copy); 0 when empty. */
double median(std::vector<double> values);

/**
 * Per-layer metrics read from the program's own obs counters and
 * histograms (water-filling, placement, admission) in @p snap.
 */
void fillObsMetrics(const netpack::obs::MetricsSnapshot &snap,
                    Result &result);

/** placement.make_us: median cost of constructing the NetPack placer. */
void measurePlacerMake(Result &result);

/** The workloads; each fills @p result per opts.trace. */
void runSimPhilly(const Options &opts, Result &result);
void runPlaceScale(const Options &opts, Result &result);
void runServeChurn(const Options &opts, Result &result);

/**
 * Every per-layer metric the traced run reports, with its unit. A
 * workload that does not exercise a layer reports 0 for it (0 calls,
 * 0 busy time).
 */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

} // namespace netbench

#endif // NETBENCH_BENCH_H
