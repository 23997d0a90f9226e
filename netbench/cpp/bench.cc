#include "bench.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <sys/resource.h>

#include "obs/metrics.h"
#include "placement/baselines.h"

namespace netbench {

double
Samples::sum() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0 : sum() / static_cast<double>(count());
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    const std::size_t n = sorted.size();
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : std::min(rank, n) - 1;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(index),
                     sorted.end());
    return sorted[index];
}

bool
Samples::supports(double q) const
{
    const double beyond = (1.0 - q) * static_cast<double>(count());
    return beyond >= 10.0 - 1e-9;
}

double
Samples::p99() const
{
    const double n = static_cast<double>(count());
    return quantile(n > 0.0 ? std::clamp(1.0 - 10.0 / n, 0.5, 0.99) : 0.99);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    // splitmix64 over a mix of the three inputs.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                      index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t hash)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    Samples samples;
    for (const double v : values)
        samples.add(v);
    return samples.quantile(0.5);
}

void
fillObsMetrics(const netpack::obs::MetricsSnapshot &snap, Result &result)
{
    const auto counter = [&](const char *name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    const double hits = counter("waterfill.incremental_hits");
    const double fallbacks = counter("waterfill.full_fallbacks");
    result.set("waterfill.estimates", counter("waterfill.estimates"),
               "count");
    result.set("waterfill.incremental_hits", hits, "count");
    result.set("waterfill.full_fallbacks", fallbacks, "count");
    result.set("waterfill.incremental_ratio", ratio(hits, hits + fallbacks),
               "ratio");
    const auto solve = snap.logHistograms.find("waterfill.solve_us");
    if (solve != snap.logHistograms.end() && solve->second.total > 0) {
        result.set("waterfill.solve_p50_us", solve->second.quantile(0.5),
                   "us");
        result.set("waterfill.solve_busy_s", solve->second.sum * 1e-6, "s");
    }

    const double reuses = counter("placement.view_reuses");
    const double rebuilds = counter("placement.view_rebuilds");
    result.set("placement.view_reuse_ratio", ratio(reuses, reuses + rebuilds),
               "ratio");
    const double placed = counter("placement.jobs_placed");
    const double deferred = counter("placement.jobs_deferred");
    result.set("placement.placed_ratio", ratio(placed, placed + deferred),
               "ratio");
    result.set("placement.dp_states_pruned_per_batch",
               ratio(counter("placement.dp_states_pruned"),
                     counter("placement.batches")),
               "count");
    result.set("server.rejected", counter("serve.rejected"), "count");
}

void
measurePlacerMake(Result &result)
{
    Samples us;
    for (int i = 0; i < 201; ++i) {
        const auto t0 = Clock::now();
        const std::unique_ptr<netpack::Placer> placer =
            netpack::makePlacerByName("NetPack");
        us.add(microsBetween(t0, Clock::now()));
    }
    result.set("placement.make_us", us.quantile(0.5), "us");
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics = {
        // sim
        {"sim.wall_s", "s"},
        {"sim.advance_busy_s", "s"},
        {"sim.advance_p50_us", "us"},
        {"sim.advance_calls", "count"},
        {"sim.loop_self_s", "s"},
        {"sim.avg_jct_s", "sim_s"},
        {"sim.avg_de", "ratio"},
        // placement
        {"placement.batch_p50_us", "us"},
        {"placement.batch_p99_us", "us"},
        {"placement.batch_busy_s", "s"},
        {"placement.dp_states_pruned_per_batch", "count"},
        {"placement.placed_ratio", "ratio"},
        {"placement.make_us", "us"},
        {"placement.view_reuse_ratio", "ratio"},
        // waterfill
        {"waterfill.estimates", "count"},
        {"waterfill.solve_p50_us", "us"},
        {"waterfill.solve_busy_s", "s"},
        {"waterfill.incremental_hits", "count"},
        {"waterfill.full_fallbacks", "count"},
        {"waterfill.incremental_ratio", "ratio"},
        // core context clones
        {"context.export_us", "us"},
        {"context.import_us", "us"},
        // serve protocol
        {"protocol.parse_us", "us"},
        {"protocol.serialize_us", "us"},
        // serve WAL and recovery
        {"wal.append_p50_us", "us"},
        {"wal.append_p99_us", "us"},
        {"wal.bytes_per_mutation", "B"},
        {"wal.load_s", "s"},
        {"engine.replay_s", "s"},
        {"engine.recover_s", "s"},
        // serve engine
        {"engine.validate_us", "us"},
        {"engine.apply_place_us", "us"},
        {"engine.apply_depart_us", "us"},
        {"engine.whatif_query_us", "us"},
        {"engine.whatif_candidate_us", "us"},
        {"engine.digest_us", "us"},
        // serve server and admission
        {"server.dispatch_us", "us"},
        {"server.outside_us", "us"},
        {"server.rejected", "count"},
        {"server.req_p99_ms", "ms"},
        {"server.place_p99_ms", "ms"},
        {"server.query_p99_ms", "ms"},
        {"error_ratio", "ratio"},
        // exec
        {"exec.whatif_parallel_gain", "ratio"},
        // load generator and tracing
        {"gen.lag_p99_ms", "ms"},
        {"trace.overhead_ratio", "ratio"},
    };
    return kMetrics;
}

} // namespace netbench
