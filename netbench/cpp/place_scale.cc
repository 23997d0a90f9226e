/**
 * @file
 * Workload `place-scale`: back-to-back NetPack placeBatch epochs of 8
 * jobs on 256 racks at 4:1 core oversubscription (the Figure 9 scale
 * point), serial, with no simulator: jobs retire oldest-first whenever
 * GPU occupancy passes 60%. It is the workload where worker DP and PS
 * scoring dominate, including the rack- and pod-restricted DP variants
 * and the crossing penalty only oversubscription reaches; an
 * optimisation of the flow model or of serving should leave it alone.
 *
 * Correctness: NetPack and the frozen NetPackRef place the same epochs
 * twice, once from an empty cluster and once from the contended state
 * the timed loop ends in (past 60% occupancy, with retirements behind
 * it), and the decisions and lastScores must agree bit for bit.
 *
 * Timing: an untimed warm-up fills the cluster until the first job
 * retires. The timed loop then takes windows of kWindowEpochs epochs;
 * each window is placed kReplays times from the same saved state with a
 * fresh placer, and only its fastest replay counts, because other load
 * on a shared host only ever slows a replay down.
 *
 * End-to-end: throughput_per_s = epochs over the summed fastest window
 * times, churn included; p50_ms = placeBatch latency over the epochs of
 * the fastest replays; setup_s = building the topology, ledger, context
 * and placer. Peak RSS is taken before the reference check.
 */

#include <algorithm>
#include <cstring>
#include <deque>

#include "bench.h"
#include "obs/metrics.h"
#include "placement/netpack_placer.h"
#include "placement/reference_placer.h"
#include "proxies.h"
#include "workload/trace_gen.h"

namespace netbench {
namespace {

using namespace netpack;

constexpr int kBatch = 8;
/** Epochs of each reference comparison (empty and contended). */
constexpr int kCheckEpochs = 6;
/** Distinct trace jobs; a 35-second run places about 10,000. */
constexpr int kTraceJobs = 16384;
/** Epochs per timed window. */
constexpr int kWindowEpochs = 32;
/** Replays of each window; the fastest one counts. */
constexpr int kReplays = 3;

ClusterConfig
scaleCluster()
{
    ClusterConfig config;
    config.numRacks = 256;
    config.serversPerRack = 16;
    config.gpusPerServer = 4;
    config.serverLinkGbps = 100.0;
    config.oversubscription = 4.0;
    config.torPatGbps = 1000.0;
    config.rtt = 50e-6;
    return config;
}

/** The epoch stream: trace jobs cycled with fresh ids. */
class EpochStream
{
  public:
    explicit EpochStream(std::uint64_t seed)
    {
        TraceGenConfig gen;
        gen.numJobs = kTraceJobs;
        gen.seed = subSeed(seed, 2);
        gen.maxGpuDemand = 64;
        trace_ = generateTrace(gen);
    }

    std::vector<JobSpec> batch(std::int64_t epoch) const
    {
        std::vector<JobSpec> jobs;
        for (int i = 0; i < kBatch; ++i) {
            const std::int64_t k = epoch * kBatch + i;
            JobSpec spec = trace_.at(static_cast<std::size_t>(k % kTraceJobs));
            spec.id = JobId(static_cast<int>(k));
            jobs.push_back(std::move(spec));
        }
        return jobs;
    }

    std::uint64_t digest(std::int64_t epochs) const
    {
        std::uint64_t hash = fnv1a("");
        for (std::int64_t e = 0; e < epochs; ++e) {
            for (const JobSpec &spec : batch(e)) {
                hash = fnv1a(spec.modelName + "/" + std::to_string(spec.id.value) +
                                 "/" + std::to_string(spec.gpuDemand) + "/" +
                                 std::to_string(spec.iterations),
                             hash);
            }
        }
        return hash;
    }

  private:
    JobTrace trace_;
};

/** One placer with its own cluster state and retirement queue. */
struct Lane
{
    explicit Lane(const ClusterTopology &topo) : gpus(topo), ctx(topo) {}

    GpuLedger gpus;
    PlacementContext ctx;
    std::deque<JobId> running;
    std::int64_t retired = 0;
};

/** Make @p to a copy of @p from's cluster state. */
void
copyLane(const Lane &from, Lane &to)
{
    to.gpus = from.gpus;
    to.ctx.importState(from.ctx.exportState());
    to.running = from.running;
    to.retired = from.retired;
}

double
occupancy(const Lane &lane, const ClusterTopology &topo)
{
    return 1.0 - static_cast<double>(lane.gpus.totalFreeGpus()) /
                     static_cast<double>(topo.totalGpus());
}

/** Place one epoch (timed into @p batchUs when given), then retire. */
BatchResult
epoch(Placer &placer, Lane &lane, const ClusterTopology &topo,
      const std::vector<JobSpec> &batch, Samples *batchUs)
{
    const auto t0 = Clock::now();
    BatchResult result = placer.placeBatch(batch, topo, lane.gpus, lane.ctx);
    if (batchUs != nullptr)
        batchUs->add(microsBetween(t0, Clock::now()));
    for (const PlacedJob &job : result.placed)
        lane.running.push_back(job.id);
    while (lane.gpus.totalFreeGpus() < topo.totalGpus() * 2 / 5 &&
           !lane.running.empty()) {
        const JobId victim = lane.running.front();
        lane.running.pop_front();
        lane.gpus.releaseJob(victim);
        lane.ctx.removeJob(victim);
        ++lane.retired;
    }
    return result;
}

bool
sameDecisions(const BatchResult &a, const BatchResult &b)
{
    if (a.placed.size() != b.placed.size() || a.deferred != b.deferred)
        return false;
    for (std::size_t i = 0; i < a.placed.size(); ++i) {
        const Placement &x = a.placed[i].placement;
        const Placement &y = b.placed[i].placement;
        if (a.placed[i].id != b.placed[i].id || x.workers != y.workers ||
            x.psServer != y.psServer || x.extraPsServers != y.extraPsServers ||
            x.inaRacks != y.inaRacks || x.backend != y.backend)
            return false;
    }
    return true;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/**
 * Place kCheckEpochs epochs from @p firstEpoch with NetPack on @p lane
 * and with the frozen NetPackRef on a copy of it; every decision and
 * every lastScores bit must agree.
 */
void
compareWithReference(const ClusterTopology &topo, const EpochStream &stream,
                     Lane &lane, std::int64_t firstEpoch, const char *where,
                     Result &result)
{
    NetPackPlacer placer;
    ReferenceNetPackPlacer reference;
    Lane refLane(topo);
    copyLane(lane, refLane);
    for (std::int64_t e = firstEpoch; e < firstEpoch + kCheckEpochs; ++e) {
        const std::vector<JobSpec> batch = stream.batch(e);
        const BatchResult got = epoch(placer, lane, topo, batch, nullptr);
        const BatchResult want = epoch(reference, refLane, topo, batch, nullptr);
        if (!sameDecisions(got, want) ||
            !sameBits(placer.lastScores(), reference.lastScores())) {
            result.fail(std::string("place-scale: NetPack diverged from NetPackRef ") +
                        where + " at epoch " + std::to_string(e));
            ++result.failed;
        }
        ++result.attempted;
    }
}

/**
 * Correctness gate, run after the timed part so the reference's
 * allocations stay out of peak RSS: the first epochs from an empty
 * cluster, then the epochs after @p contended, the lane the timed part
 * left, once it is past 60% occupancy with retirements behind it.
 */
void
checkAgainstReference(const ClusterTopology &topo, const EpochStream &stream,
                      Lane &contended, std::int64_t nextEpoch, Result &result)
{
    Lane empty(topo);
    compareWithReference(topo, stream, empty, 0, "from an empty cluster", result);
    // A short traced run may end before the churn begins.
    NetPackPlacer filler;
    while (contended.retired == 0 && nextEpoch < kTraceJobs)
        epoch(filler, contended, topo, stream.batch(nextEpoch++), nullptr);
    if (occupancy(contended, topo) < 0.55 || contended.retired == 0)
        result.fail("place-scale: the contended reference window starts at " +
                    std::to_string(occupancy(contended, topo)) +
                    " occupancy with " + std::to_string(contended.retired) +
                    " retirements");
    result.record["check_occupancy"] = occupancy(contended, topo);
    compareWithReference(topo, stream, contended, nextEpoch,
                         "in the contended cluster", result);
}

} // namespace

void
runPlaceScale(const Options &opts, Result &result)
{
    const ClusterTopology topo(scaleCluster());
    const EpochStream stream(opts.seed);
    if (stream.digest(64) != EpochStream(opts.seed).digest(64) ||
        stream.digest(64) == EpochStream(opts.seed + 1).digest(64))
        result.fail("place-scale: epoch stream is not a function of the seed");

    if (!opts.trace) {
        std::vector<double> setups;
        for (int i = 0; i < 25; ++i) {
            const auto t0 = Clock::now();
            const ClusterTopology fresh(scaleCluster());
            Lane freshLane(fresh);
            NetPackPlacer freshPlacer;
            setups.push_back(secondsSince(t0));
        }
        result.set("setup_s", median(setups), "s");

        // Warm-up: fill the cluster until the churn has begun.
        const auto warmStart = Clock::now();
        Lane lane(topo);
        std::int64_t e = 0;
        {
            NetPackPlacer placer;
            while (lane.retired == 0)
                epoch(placer, lane, topo, stream.batch(e++), nullptr);
        }
        result.attempted += e;
        result.record["warmup_epochs"] = static_cast<double>(e);
        result.record["warmup_s"] = secondsSince(warmStart);

        Samples batchUs;
        double bestS = 0.0;
        std::int64_t windows = 0;
        std::vector<double> slowdowns;
        // The time budget alone ends the loop; epoch_p99_ms falls back to
        // a lower percentile when the run has under 1,000 epochs.
        const auto start = Clock::now();
        while (secondsSince(start) < opts.seconds) {
            Lane saved(topo);
            copyLane(lane, saved);
            std::vector<double> times;
            Samples fastest;
            for (int r = 0; r < kReplays; ++r) {
                if (r > 0)
                    copyLane(saved, lane);
                NetPackPlacer placer;
                Samples us;
                const auto t0 = Clock::now();
                for (std::int64_t k = 0; k < kWindowEpochs; ++k)
                    epoch(placer, lane, topo, stream.batch(e + k), &us);
                times.push_back(secondsSince(t0));
                if (times.back() <= *std::min_element(times.begin(), times.end()))
                    fastest = std::move(us);
            }
            const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
            slowdowns.push_back(*hi / *lo);
            bestS += *lo;
            for (const double us : fastest.values())
                batchUs.add(us);
            e += kWindowEpochs;
            result.attempted += kReplays * kWindowEpochs;
            ++windows;
        }
        result.set("throughput_per_s", static_cast<double>(batchUs.count()) / bestS,
                   "1/s");
        result.set("p50_ms", batchUs.quantile(0.5) * 1e-3, "ms");
        result.set("peak_rss_mb", peakRssMb(), "MB");
        result.record["epoch_p99_ms"] = batchUs.p99() * 1e-3;
        result.record["epochs"] = static_cast<double>(batchUs.count());
        result.record["windows"] = static_cast<double>(windows);
        result.record["replays_per_window"] = kReplays;
        result.record["replay_slowdown_max"] =
            *std::max_element(slowdowns.begin(), slowdowns.end());
        result.record["setup_samples"] = static_cast<double>(setups.size());
        const auto checkStart = Clock::now();
        checkAgainstReference(topo, stream, lane, e, result);
        result.record["check_s"] = secondsSince(checkStart);
        return;
    }

    // Traced run: a fixed number of epochs from a fresh state, untraced
    // then traced, so the overhead ratio compares equal work and the
    // counters repeat exactly for a seed.
    const std::int64_t epochs = std::max<std::int64_t>(
        200, static_cast<std::int64_t>(25.0 * opts.seconds));
    const auto runEpochs = [&](Placer &p, Lane &lane) {
        const auto t0 = Clock::now();
        for (std::int64_t e = 0; e < epochs; ++e)
            epoch(p, lane, topo, stream.batch(e), nullptr);
        result.attempted += epochs;
        return secondsSince(t0);
    };
    NetPackPlacer plainPlacer;
    Lane plainLane(topo);
    const double plainWall = runEpochs(plainPlacer, plainLane);

    obs::Registry::instance().reset();
    obs::setMetricsEnabled(true);
    Samples batchUs;
    TimedPlacer timed(std::make_unique<NetPackPlacer>(), batchUs);
    Lane tracedLane(topo);
    const double tracedWall = runEpochs(timed, tracedLane);
    obs::setMetricsEnabled(false);
    fillObsMetrics(obs::snapshot(), result);
    measurePlacerMake(result);

    result.set("placement.batch_p50_us", batchUs.quantile(0.5), "us");
    result.set("placement.batch_p99_us", batchUs.p99(), "us");
    result.set("placement.batch_busy_s", batchUs.sum() * 1e-6, "s");
    result.set("trace.overhead_ratio", tracedWall / plainWall, "ratio");
    result.record["epochs"] = static_cast<double>(epochs);
    result.record["untraced_wall_s"] = plainWall;
    result.record["traced_wall_s"] = tracedWall;
    checkAgainstReference(topo, stream, tracedLane, epochs, result);
}

} // namespace netbench
