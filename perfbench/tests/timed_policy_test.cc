/**
 * The timing decorator must be invisible to the simulation: for every
 * registry policy, a decorated bundle and the bare bundle produce the
 * same metrics JSON on a small trace, and their checkpoints resume
 * each other.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "core/metrics_io.h"
#include "policies/registry.h"
#include "sim/serialize.h"
#include "timed_policy.h"
#include "trace/generators.h"

namespace {

using namespace cidre;

const trace::Trace &
smallTrace()
{
    static const trace::Trace t = trace::makeAzureLikeTrace(11, 0.02);
    return t;
}

core::EngineConfig
tightConfig()
{
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 24 * 1024;
    return config;
}

std::string
metricsJson(const core::RunMetrics &metrics)
{
    std::ostringstream out;
    core::writeMetricsJson(metrics, out);
    return out.str();
}

class TimedPolicyTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TimedPolicyTest, DecoratedRunMatchesBare)
{
    const core::EngineConfig config = tightConfig();
    core::Engine bare(smallTrace(), config,
                      policies::makePolicy(GetParam(), config));
    const std::string expected = metricsJson(bare.run());

    perfbench::PolicyCounters counters;
    core::Engine timed(smallTrace(), config,
                       perfbench::decorate(
                           policies::makePolicy(GetParam(), config),
                           counters));
    EXPECT_EQ(metricsJson(timed.run()), expected);
    EXPECT_GT(counters.calls(), 0u);
    EXPECT_GT(counters.hook_calls, 0u);
}

// Checkpoints are compared through what they restore, not byte by
// byte: some policies serialize structs whose padding is unspecified.
TEST_P(TimedPolicyTest, CheckpointResumeMatchesBare)
{
    const core::EngineConfig config = tightConfig();
    const trace::TraceView view(smallTrace());
    const sim::SimTime mid = view.duration() / 2;
    auto checkpoint = [&](core::Engine &engine) {
        engine.begin();
        engine.stepUntil(mid);
        sim::StateWriter writer;
        engine.saveState(writer);
        return writer.release();
    };

    core::Engine bare(view, config, policies::makePolicy(GetParam(), config));
    const std::vector<std::byte> bare_state = checkpoint(bare);
    const std::string expected = metricsJson(bare.finish());

    perfbench::PolicyCounters counters;
    auto timedEngine = [&] {
        return std::make_unique<core::Engine>(
            view, config,
            perfbench::decorate(policies::makePolicy(GetParam(), config),
                                counters));
    };
    auto timed = timedEngine();
    const std::vector<std::byte> timed_state = checkpoint(*timed);

    // A decorated checkpoint resumes a bare engine, and vice versa.
    core::Engine bare_resumed(view, config,
                              policies::makePolicy(GetParam(), config));
    sim::StateReader timed_reader(timed_state);
    bare_resumed.loadState(timed_reader);
    EXPECT_EQ(metricsJson(bare_resumed.finish()), expected);

    auto timed_resumed = timedEngine();
    sim::StateReader bare_reader(bare_state);
    timed_resumed->loadState(bare_reader);
    EXPECT_EQ(metricsJson(timed_resumed->finish()), expected);
}

INSTANTIATE_TEST_SUITE_P(AllRegistryPolicies, TimedPolicyTest,
                         ::testing::ValuesIn(policies::allPolicyNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

} // namespace
