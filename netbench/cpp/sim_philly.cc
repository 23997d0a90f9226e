/**
 * @file
 * Workload `sim-philly`: the researcher's end-to-end run. Philly-like
 * traces (the simulator-sized shape the figure benches use) replayed
 * with flow fidelity through ClusterSimulator under NetPack on the
 * paper's default 16-rack 1:1 cluster, single-threaded. Most of its
 * wall time is in NetworkModel::advance and placement; it never touches
 * serving.
 *
 * End-to-end: every trace is replayed kReplays times and only its
 * fastest replay counts, because other load on a shared host only ever
 * slows a replay down. throughput_per_s = trace jobs over the summed
 * fastest replay times; p50_ms = placement-epoch latency inside the
 * simulator loop, over the epochs of the fastest replays; setup_s =
 * building the cluster, model, placer and simulator and beginning a run.
 */

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "bench.h"
#include "obs/metrics.h"
#include "placement/baselines.h"
#include "proxies.h"
#include "sim/cluster_sim.h"
#include "sim/flow_model.h"
#include "workload/trace_gen.h"

namespace netbench {
namespace {

using namespace netpack;

constexpr int kTraceJobs = 3000;
/** Replays of each trace in the untraced run; the fastest one counts. */
constexpr int kReplays = 3;

/** The paper's default simulated cluster: 16 racks x 16 servers x 4 GPUs. */
ClusterConfig
simCluster()
{
    ClusterConfig config;
    config.numRacks = 16;
    config.serversPerRack = 16;
    config.gpusPerServer = 4;
    config.serverLinkGbps = 100.0;
    config.oversubscription = 1.0;
    config.torPatGbps = 1000.0;
    config.rtt = 50e-6;
    return config;
}

/**
 * Philly-like trace sized for the 16-rack cluster: ~8-GPU skewed
 * demands arriving every ~0.5 s with ~2-minute median durations keep
 * the cluster near capacity, so placement decisions matter.
 */
JobTrace
philly(std::uint64_t seed, int index)
{
    TraceGenConfig gen;
    gen.numJobs = kTraceJobs;
    gen.seed = subSeed(seed, 1, static_cast<std::uint64_t>(index));
    gen.distribution = DemandDistribution::Philly;
    gen.demandMean = 8.0;
    gen.demandStddev = 5.0;
    gen.maxGpuDemand = 64;
    gen.meanInterarrival = 0.5;
    gen.durationLogMu = 4.8;
    gen.durationLogSigma = 1.0;
    return generateTrace(gen);
}

std::uint64_t
traceDigest(const JobTrace &trace)
{
    std::ostringstream csv;
    trace.saveCsv(csv);
    return fnv1a(csv.str());
}

/** Timings of one or more replays. */
struct Replay
{
    Samples batchUs;
    Samples advanceUs;
    double wallS = 0.0;
    double stepS = 0.0;
    std::int64_t jobs = 0;
    double jctSum = 0.0;
    double deSum = 0.0;
    std::int64_t records = 0;
};

/** Every trace job must end with exactly one finite JobRecord. */
void
checkRecords(const JobTrace &trace, const RunMetrics &metrics,
             Result &result)
{
    std::set<int> expected;
    for (const JobSpec &spec : trace.jobs())
        expected.insert(spec.id.value);
    std::int64_t bad = 0;
    for (const JobRecord &record : metrics.records) {
        const bool finite = std::isfinite(record.jct()) && record.jct() >= 0.0 &&
                            std::isfinite(record.distributionEfficiency());
        if (!finite || expected.erase(record.spec.id.value) != 1)
            ++bad;
    }
    bad += static_cast<std::int64_t>(expected.size());
    if (bad > 0)
        result.fail("sim-philly: " + std::to_string(bad) +
                    " trace jobs without exactly one finite JobRecord");
    result.failed += bad;
}

/**
 * Replay @p trace once. The placer is always timed per epoch (that is
 * the end-to-end epoch latency); @p traced also times the network model
 * and every simulator step.
 */
void
replay(const ClusterTopology &topo, const JobTrace &trace, bool traced,
       Replay &out, Result &result)
{
    const auto start = Clock::now();
    std::unique_ptr<NetworkModel> model =
        std::make_unique<FlowNetworkModel>(topo);
    if (traced)
        model = std::make_unique<TimedNetworkModel>(std::move(model),
                                                    out.advanceUs);
    ClusterSimulator sim(topo, std::move(model),
                         std::make_unique<TimedPlacer>(
                             makePlacerByName("NetPack"), out.batchUs));
    sim.begin(trace);
    if (traced) {
        while (true) {
            const auto t0 = Clock::now();
            const bool more = sim.step();
            out.stepS += secondsSince(t0);
            if (!more)
                break;
        }
    } else {
        while (sim.step()) {
        }
    }
    const RunMetrics metrics = sim.finish();
    out.wallS += secondsSince(start);
    out.jobs += static_cast<std::int64_t>(trace.size());
    for (const JobRecord &record : metrics.records) {
        out.jctSum += record.jct();
        out.deSum += record.distributionEfficiency();
    }
    out.records += static_cast<std::int64_t>(metrics.records.size());
    result.attempted += static_cast<std::int64_t>(trace.size());
    checkRecords(trace, metrics, result);
}

} // namespace

void
runSimPhilly(const Options &opts, Result &result)
{
    const ClusterTopology topo(simCluster());

    // Generator self-test: equal seeds give byte-identical traces,
    // different seeds different ones.
    const JobTrace first = philly(opts.seed, 0);
    if (traceDigest(first) != traceDigest(philly(opts.seed, 0)) ||
        traceDigest(first) == traceDigest(philly(opts.seed + 1, 0)))
        result.fail("sim-philly: trace generator is not a function of the seed");

    if (!opts.trace) {
        std::vector<double> setups;
        for (int i = 0; i < 25; ++i) {
            const auto t0 = Clock::now();
            ClusterSimulator sim(topo, std::make_unique<FlowNetworkModel>(topo),
                                 makePlacerByName("NetPack"));
            sim.begin(first);
            setups.push_back(secondsSince(t0));
        }
        result.set("setup_s", median(setups), "s");

        // The fastest replay of each trace, pooled.
        Replay best;
        std::vector<double> slowdowns;
        const auto start = Clock::now();
        int index = 0;
        // At least two traces, and enough epochs that the p99 has ten
        // samples beyond it; the time cap bounds a pathological slowdown.
        while ((secondsSince(start) < opts.seconds || index < 2 ||
                !best.batchUs.supports(0.99)) &&
               secondsSince(start) < 3.0 * opts.seconds) {
            const JobTrace trace = index == 0 ? first : philly(opts.seed, index);
            std::vector<Replay> runs(kReplays);
            for (Replay &run : runs)
                replay(topo, trace, false, run, result);
            const auto fastest = std::min_element(
                runs.begin(), runs.end(),
                [](const Replay &a, const Replay &b) { return a.wallS < b.wallS; });
            const auto slowest = std::max_element(
                runs.begin(), runs.end(),
                [](const Replay &a, const Replay &b) { return a.wallS < b.wallS; });
            slowdowns.push_back(slowest->wallS / fastest->wallS);
            best.wallS += fastest->wallS;
            best.jobs += fastest->jobs;
            for (const double us : fastest->batchUs.values())
                best.batchUs.add(us);
            ++index;
        }
        result.set("throughput_per_s", static_cast<double>(best.jobs) / best.wallS,
                   "1/s");
        result.set("p50_ms", best.batchUs.quantile(0.5) * 1e-3, "ms");
        result.record["epoch_p99_ms"] = best.batchUs.p99() * 1e-3;
        result.record["traces"] = index;
        result.record["replays_per_trace"] = kReplays;
        result.record["replay_slowdown_max"] =
            *std::max_element(slowdowns.begin(), slowdowns.end());
        result.record["jobs"] = static_cast<double>(best.jobs);
        result.record["epoch_samples"] = static_cast<double>(best.batchUs.count());
        result.record["setup_samples"] = static_cast<double>(setups.size());
        return;
    }

    // Traced run: the same fixed set of traces untraced, then traced, so
    // the overhead ratio compares equal work and the counters repeat
    // exactly for a seed.
    const int traces = std::max(1, static_cast<int>(opts.seconds / 5.0));
    std::vector<JobTrace> inputs{first};
    for (int i = 1; i < traces; ++i)
        inputs.push_back(philly(opts.seed, i));

    Replay plain;
    for (const JobTrace &trace : inputs)
        replay(topo, trace, false, plain, result);

    obs::Registry::instance().reset();
    obs::setMetricsEnabled(true);
    Replay traced;
    for (const JobTrace &trace : inputs)
        replay(topo, trace, true, traced, result);
    obs::setMetricsEnabled(false);
    fillObsMetrics(obs::snapshot(), result);
    measurePlacerMake(result);

    // The split of the traced wall time: advance and placement as their
    // proxies timed them, loop self time as the rest of step(), and
    // begin()/finish() as the rest of the wall time (record only).
    const double placementS = traced.batchUs.sum() * 1e-6;
    const double advanceS = traced.advanceUs.sum() * 1e-6;
    const double loopSelfS = traced.stepS - placementS - advanceS;

    result.set("sim.wall_s", traced.wallS, "s");
    result.set("sim.advance_busy_s", advanceS, "s");
    result.set("sim.advance_p50_us", traced.advanceUs.quantile(0.5), "us");
    result.set("sim.advance_calls", static_cast<double>(traced.advanceUs.count()),
               "count");
    result.set("sim.loop_self_s", loopSelfS, "s");
    result.set("sim.avg_jct_s", traced.jctSum / static_cast<double>(traced.records),
               "sim_s");
    result.set("sim.avg_de", traced.deSum / static_cast<double>(traced.records),
               "ratio");
    result.set("placement.batch_p50_us", traced.batchUs.quantile(0.5), "us");
    result.set("placement.batch_p99_us", traced.batchUs.p99(), "us");
    result.set("placement.batch_busy_s", placementS, "s");
    result.set("trace.overhead_ratio", traced.wallS / plain.wallS, "ratio");
    result.record["traces"] = traces;
    result.record["epoch_samples"] = static_cast<double>(traced.batchUs.count());
    result.record["advance_samples"] = static_cast<double>(traced.advanceUs.count());
    result.record["untraced_wall_s"] = plain.wallS;
    result.record["begin_finish_s"] = traced.wallS - traced.stepS;
}

} // namespace netbench
