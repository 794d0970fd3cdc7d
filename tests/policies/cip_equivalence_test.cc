/**
 * @file
 * Equivalence of the incremental CIP ranking against the brute-force
 * reference it replaced: under randomized workloads with real memory
 * pressure, both policies must produce the same eviction sequence and
 * bit-identical run metrics.
 *
 * The reference below is the pre-incremental CipKeepAlive verbatim: it
 * rescored every idle container on every reclaim through the volatile
 * RankedKeepAlive path (scoreStableWhileIdle() == false), which also
 * rewrote container.priority for all of them as a side effect — the
 * value onUse later reads.  The incremental policy reconstructs those
 * side effects lazily, so any divergence shows up here as a different
 * eviction order or drifting metrics.  Both sides take the same Eq. 3
 * bonus weight (cip-weight; 0 makes every score a clock tie broken by
 * seq), and one variant checkpoints the incremental engine mid-run and
 * finishes it in a fresh engine, through the CIP checkpoint layout.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "policies/keepalive/cip.h"
#include "policies/keepalive/ranked.h"
#include "policies/scaling/css.h"
#include "sim/serialize.h"
#include "tests/core/test_helpers.h"
#include "trace/generators.h"

namespace cidre::policies {
namespace {

/** The pre-incremental CIP: Eq. 3 rescoring on every reclaim. */
class BruteForceCip : public RankedKeepAlive
{
  public:
    BruteForceCip(std::vector<cluster::ContainerId> &log, double weight)
        : log_(log), weight_(weight)
    {
    }

    const char *name() const override { return "cip-reference"; }

    void onAdmit(core::Engine &engine, cluster::Container &container,
                 double eviction_watermark) override
    {
        container.clock = eviction_watermark;
        score(engine, container);
    }

    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType /*type*/) override
    {
        container.clock = container.priority;
        score(engine, container);
    }

    void onEvicted(core::Engine &engine,
                   const cluster::Container &container) override
    {
        log_.push_back(container.id);
        RankedKeepAlive::onEvicted(engine, container);
    }

  protected:
    double score(core::Engine &engine,
                 cluster::Container &container) override
    {
        const auto &profile =
            engine.workload().functions()[container.function];
        const auto &fs = engine.functionState(container.function);
        const double freq = fs.freqPerMinute(engine.now());
        const auto cost = static_cast<double>(profile.cold_start_us);
        const auto size = static_cast<double>(
            std::max<std::int64_t>(profile.memory_mb, 1));
        const auto k = static_cast<double>(
            std::max<std::uint32_t>(fs.cachedCount(), 1));
        container.priority =
            container.clock + weight_ * (freq * cost / (size * k));
        return container.priority;
    }

  private:
    std::vector<cluster::ContainerId> &log_;
    double weight_;
};

/** The production incremental CIP, with the same eviction logging. */
class LoggingCip : public CipKeepAlive
{
  public:
    LoggingCip(std::vector<cluster::ContainerId> &log, double weight)
        : CipKeepAlive(weight), log_(log)
    {
    }

    void onEvicted(core::Engine &engine,
                   const cluster::Container &container) override
    {
        log_.push_back(container.id);
        CipKeepAlive::onEvicted(engine, container);
    }

  private:
    std::vector<cluster::ContainerId> &log_;
};

trace::Trace
pressuredWorkload(std::uint64_t seed)
{
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 30;
    spec.duration = sim::minutes(2);
    spec.total_rps = 60.0;
    spec.burst_max = 90.0;
    return trace::generate(spec, seed);
}

core::EngineConfig
pressuredConfig()
{
    core::EngineConfig config;
    config.cluster.workers = 2;
    config.cluster.total_memory_mb = 2 * 1024; // tight: constant churn
    config.record_per_request = true;
    return config;
}

core::OrchestrationPolicy
incrementalBundle(std::vector<cluster::ContainerId> &log, double weight)
{
    return test::bundleOf(std::make_unique<CssScaling>(),
                          std::make_unique<LoggingCip>(log, weight));
}

/** The brute-force run's eviction log and metrics. */
core::RunMetrics
runReference(const trace::Trace &workload, double weight,
             std::vector<cluster::ContainerId> &log)
{
    core::Engine reference(
        workload, pressuredConfig(),
        test::bundleOf(std::make_unique<CssScaling>(),
                       std::make_unique<BruteForceCip>(log, weight)));
    return reference.run();
}

/**
 * The whole-run trajectories must coincide: same evictions in the same
 * order, same per-request outcomes, bit-equal aggregates.
 */
void
expectSameTrajectory(const std::vector<cluster::ContainerId> &incremental_log,
                     const std::vector<cluster::ContainerId> &reference_log,
                     const core::RunMetrics &a, const core::RunMetrics &b)
{
    EXPECT_GT(reference_log.size(), 0u) << "workload exerted no pressure";
    ASSERT_EQ(incremental_log.size(), reference_log.size());
    for (std::size_t i = 0; i < reference_log.size(); ++i) {
        ASSERT_EQ(incremental_log[i], reference_log[i])
            << "eviction sequences diverge at step " << i;
    }

    EXPECT_EQ(a.total(), b.total());
    for (const auto type :
         {core::StartType::Warm, core::StartType::DelayedWarm,
          core::StartType::Cold, core::StartType::Restored}) {
        EXPECT_EQ(a.count(type), b.count(type));
    }
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.containers_created, b.containers_created);
    EXPECT_EQ(a.deferred_provisions, b.deferred_provisions);
    EXPECT_EQ(a.wasted_cold_starts, b.wasted_cold_starts);
    EXPECT_DOUBLE_EQ(a.avgOverheadRatioPct(), b.avgOverheadRatioPct());
    EXPECT_DOUBLE_EQ(a.avgMemoryGb(), b.avgMemoryGb());
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        ASSERT_EQ(a.outcomes[i].type, b.outcomes[i].type)
            << "request " << i;
        ASSERT_EQ(a.outcomes[i].wait_us, b.outcomes[i].wait_us)
            << "request " << i;
    }
}

/** (cip-weight, workload seed). */
class CipEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(CipEquivalenceTest, IncrementalMatchesBruteForce)
{
    const auto [weight, seed] = GetParam();
    const trace::Trace workload =
        pressuredWorkload(static_cast<std::uint64_t>(seed));

    std::vector<cluster::ContainerId> incremental_log;
    core::Engine incremental(workload, pressuredConfig(),
                             incrementalBundle(incremental_log, weight));
    const core::RunMetrics a = incremental.run();

    std::vector<cluster::ContainerId> reference_log;
    const core::RunMetrics b = runReference(workload, weight, reference_log);
    expectSameTrajectory(incremental_log, reference_log, a, b);
}

TEST_P(CipEquivalenceTest, ResumedIncrementalMatchesBruteForce)
{
    const auto [weight, seed] = GetParam();
    const trace::Trace workload =
        pressuredWorkload(static_cast<std::uint64_t>(seed));

    // Run the incremental engine to mid-trace, checkpoint it, and finish
    // in a freshly built engine: its buckets, recorded bonuses and scan
    // stamps come only from the checkpoint.
    std::vector<cluster::ContainerId> incremental_log;
    std::vector<std::byte> state;
    {
        core::Engine first_half(workload, pressuredConfig(),
                                incrementalBundle(incremental_log, weight));
        first_half.begin();
        first_half.stepUntil(workload.duration() / 2);
        sim::StateWriter writer;
        first_half.saveState(writer);
        state = writer.release();
    }
    ASSERT_GT(incremental_log.size(), 0u) << "no eviction before the cut";
    core::Engine resumed(workload, pressuredConfig(),
                         incrementalBundle(incremental_log, weight));
    sim::StateReader reader(state);
    resumed.loadState(reader);
    const core::RunMetrics a = resumed.finish();

    std::vector<cluster::ContainerId> reference_log;
    const core::RunMetrics b = runReference(workload, weight, reference_log);
    expectSameTrajectory(incremental_log, reference_log, a, b);
}

INSTANTIATE_TEST_SUITE_P(
    WeightsAndSeeds, CipEquivalenceTest,
    ::testing::Combine(::testing::Values(0.0, 1.0, 4.0),
                       ::testing::Range(1, 9)));

} // namespace
} // namespace cidre::policies
