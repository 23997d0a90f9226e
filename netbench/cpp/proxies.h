/**
 * @file
 * Timing proxies for the traced runs: a Placer and a NetworkModel that
 * forward every call to the real implementation and time the calls the
 * benchmark attributes to a layer. They are injected through
 * ClusterSimulator's constructor (and used directly by place-scale), so
 * the layers are timed from outside the program.
 */

#ifndef NETBENCH_PROXIES_H
#define NETBENCH_PROXIES_H

#include <memory>

#include "bench.h"
#include "placement/placer.h"
#include "sim/network_model.h"

namespace netbench {

/** Forwards to an owned placer, timing each placeBatch call (µs). */
class TimedPlacer : public netpack::Placer
{
  public:
    TimedPlacer(std::unique_ptr<netpack::Placer> inner, Samples &batchUs)
        : inner_(std::move(inner)), batchUs_(&batchUs)
    {
    }

    std::string name() const override { return inner_->name(); }

    netpack::BatchResult placeBatch(const std::vector<netpack::JobSpec> &batch,
                                    const netpack::ClusterTopology &topo,
                                    netpack::GpuLedger &gpus,
                                    netpack::PlacementContext &ctx) override
    {
        const auto t0 = Clock::now();
        netpack::BatchResult result =
            inner_->placeBatch(batch, topo, gpus, ctx);
        batchUs_->add(microsBetween(t0, Clock::now()));
        return result;
    }

    const std::vector<double> *batchScores() const override
    {
        return inner_->batchScores();
    }
    bool captureRngState(netpack::Rng::State &out) const override
    {
        return inner_->captureRngState(out);
    }
    void restoreRngState(const netpack::Rng::State &state) override
    {
        inner_->restoreRngState(state);
    }

  private:
    std::unique_ptr<netpack::Placer> inner_;
    Samples *batchUs_;
};

/** Forwards to an owned network model, timing each advance call (µs). */
class TimedNetworkModel : public netpack::NetworkModel
{
  public:
    TimedNetworkModel(std::unique_ptr<netpack::NetworkModel> inner,
                      Samples &advanceUs)
        : inner_(std::move(inner)), advanceUs_(&advanceUs)
    {
    }

    void jobStarted(const netpack::JobSpec &spec,
                    const netpack::Placement &placement,
                    netpack::Seconds now) override
    {
        inner_->jobStarted(spec, placement, now);
    }
    void jobFinished(netpack::JobId id, netpack::Seconds now) override
    {
        inner_->jobFinished(id, now);
    }
    void updateInaRacks(netpack::JobId id,
                        const std::set<netpack::RackId> &racks) override
    {
        inner_->updateInaRacks(id, racks);
    }
    netpack::Seconds advance(netpack::Seconds now, netpack::Seconds until,
                             std::vector<netpack::JobId> &completed) override
    {
        const auto t0 = Clock::now();
        const netpack::Seconds t = inner_->advance(now, until, completed);
        advanceUs_->add(microsBetween(t0, Clock::now()));
        return t;
    }
    std::size_t runningJobs() const override { return inner_->runningJobs(); }
    netpack::Gbps currentRate(netpack::JobId id) const override
    {
        return inner_->currentRate(id);
    }
    double progressFraction(netpack::JobId id) const override
    {
        return inner_->progressFraction(id);
    }
    bool snapshotSupported() const override
    {
        return inner_->snapshotSupported();
    }
    double remainingIterations(netpack::JobId id) const override
    {
        return inner_->remainingIterations(id);
    }
    void setRemainingIterations(netpack::JobId id, double remaining) override
    {
        inner_->setRemainingIterations(id, remaining);
    }

  private:
    std::unique_ptr<netpack::NetworkModel> inner_;
    Samples *advanceUs_;
};

} // namespace netbench

#endif // NETBENCH_PROXIES_H
