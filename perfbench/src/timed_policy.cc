#include "timed_policy.h"

#include <chrono>
#include <memory>
#include <utility>

#include "core/engine.h"

namespace perfbench {

namespace core = cidre::core;
namespace cluster = cidre::cluster;
namespace sim = cidre::sim;
namespace trace = cidre::trace;

void
PolicyCounters::add(const PolicyCounters &other)
{
    scaling_calls += other.scaling_calls;
    scaling_ns += other.scaling_ns;
    reclaim_calls += other.reclaim_calls;
    reclaim_ns += other.reclaim_ns;
    reclaim_victims += other.reclaim_victims;
    reclaim_short += other.reclaim_short;
    reclaim_call_ns.merge(other.reclaim_call_ns);
    expire_calls += other.expire_calls;
    expire_ns += other.expire_ns;
    expired += other.expired;
    hook_calls += other.hook_calls;
    hook_ns += other.hook_ns;
}

PolicyCounters &
CounterBank::slot()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.emplace_back();
}

PolicyCounters
CounterBank::total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PolicyCounters sum;
    for (const PolicyCounters &c : slots_)
        sum.add(c);
    return sum;
}

namespace {

using Clock = std::chrono::steady_clock;

/** Times one call; adds its count and nanoseconds on destruction. */
class CallTimer
{
  public:
    CallTimer(std::uint64_t &calls, std::uint64_t &ns)
        : calls_(calls), ns_(ns), start_(Clock::now())
    {
    }
    ~CallTimer()
    {
        ++calls_;
        ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start_)
                .count());
    }
    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    std::uint64_t &calls_;
    std::uint64_t &ns_;
    Clock::time_point start_;
};

class TimedScaling final : public core::ScalingPolicy
{
  public:
    TimedScaling(std::unique_ptr<core::ScalingPolicy> inner,
                 PolicyCounters &counters)
        : inner_(std::move(inner)), c_(counters)
    {
    }

    const char *name() const override { return inner_->name(); }

    core::ScalingChoice onNoFreeContainer(
        core::Engine &engine, const trace::Request &request) override
    {
        CallTimer t(c_.scaling_calls, c_.scaling_ns);
        return inner_->onNoFreeContainer(engine, request);
    }

    void onSpeculativeOutcome(core::Engine &engine,
                              trace::FunctionId function,
                              sim::SimTime idle_gap, bool reused) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onSpeculativeOutcome(engine, function, idle_gap, reused);
    }

    void onDispatch(core::Engine &engine, const trace::Request &request,
                    core::StartType type, sim::SimTime wait_us) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onDispatch(engine, request, type, wait_us);
    }

    bool wantsBusyCompletionView() const override
    {
        return inner_->wantsBusyCompletionView();
    }

    void saveState(sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }
    void loadState(sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<core::ScalingPolicy> inner_;
    PolicyCounters &c_;
};

class TimedKeepAlive final : public core::KeepAlivePolicy
{
  public:
    TimedKeepAlive(std::unique_ptr<core::KeepAlivePolicy> inner,
                   PolicyCounters &counters)
        : inner_(std::move(inner)), c_(counters)
    {
    }

    const char *name() const override { return inner_->name(); }

    void onAdmit(core::Engine &engine, cluster::Container &container,
                 double eviction_watermark) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onAdmit(engine, container, eviction_watermark);
    }

    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType type) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onUse(engine, container, type);
    }

    void onIdle(core::Engine &engine, cluster::Container &container) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onIdle(engine, container);
    }

    void planReclaim(core::Engine &engine,
                     const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override
    {
        const auto start = Clock::now();
        inner_->planReclaim(engine, request, plan);
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
        ++c_.reclaim_calls;
        c_.reclaim_ns += ns;
        c_.reclaim_call_ns.record(ns);
        // Bookkeeping outside the timed window.
        const cluster::Cluster &cl = engine.clusterRef();
        const double ratio = engine.config().compression_ratio;
        std::int64_t freed = 0;
        for (cluster::ContainerId id : plan.evict)
            freed += cl.container(id).memory_mb;
        for (cluster::ContainerId id : plan.compress) {
            const std::int64_t mb = cl.container(id).memory_mb;
            freed += mb - static_cast<std::int64_t>(
                              static_cast<double>(mb) / ratio);
        }
        c_.reclaim_victims += plan.evict.size() + plan.compress.size();
        if (freed < request.need_mb)
            ++c_.reclaim_short;
    }

    void onEvicted(core::Engine &engine,
                   const cluster::Container &container) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onEvicted(engine, container);
    }

    void collectExpired(core::Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override
    {
        const std::size_t before = out.size();
        {
            CallTimer t(c_.expire_calls, c_.expire_ns);
            inner_->collectExpired(engine, now, out);
        }
        c_.expired += out.size() - before;
    }

    void saveState(sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }
    void loadState(sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<core::KeepAlivePolicy> inner_;
    PolicyCounters &c_;
};

class TimedAgent final : public core::ClusterAgent
{
  public:
    TimedAgent(std::unique_ptr<core::ClusterAgent> inner,
               PolicyCounters &counters)
        : inner_(std::move(inner)), c_(counters)
    {
    }

    const char *name() const override { return inner_->name(); }

    void onTick(core::Engine &engine, sim::SimTime now) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onTick(engine, now);
    }

    void onRequestObserved(core::Engine &engine,
                           const trace::Request &request) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onRequestObserved(engine, request);
    }

    sim::SimTime provisionCost(core::Engine &engine,
                               const trace::FunctionProfile &function,
                               cluster::WorkerId worker,
                               sim::SimTime base_cost) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        return inner_->provisionCost(engine, function, worker, base_cost);
    }

    void onContainerEvicted(core::Engine &engine,
                            const cluster::Container &container) override
    {
        CallTimer t(c_.hook_calls, c_.hook_ns);
        inner_->onContainerEvicted(engine, container);
    }

    void saveState(sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }
    void loadState(sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<core::ClusterAgent> inner_;
    PolicyCounters &c_;
};

} // namespace

core::OrchestrationPolicy
decorate(core::OrchestrationPolicy bare, PolicyCounters &counters)
{
    core::OrchestrationPolicy out;
    out.name = std::move(bare.name);
    out.scaling =
        std::make_unique<TimedScaling>(std::move(bare.scaling), counters);
    out.keep_alive = std::make_unique<TimedKeepAlive>(
        std::move(bare.keep_alive), counters);
    if (bare.agent)
        out.agent =
            std::make_unique<TimedAgent>(std::move(bare.agent), counters);
    return out;
}

} // namespace perfbench
