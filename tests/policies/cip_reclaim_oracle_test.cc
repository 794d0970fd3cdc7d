/**
 * @file
 * A direct oracle for CipKeepAlive::planReclaim: random idle populations
 * on one worker, each plan checked against rescoring every idle
 * container with Eq. 3 and sorting by (score, seq).
 *
 * The cache is roomy, so the engine itself never reclaims: every scan
 * below is a direct planReclaim call at a chosen instant, and its plan
 * is never applied.  Between instants the engine keeps running, so the
 * policy's idle buckets are maintained by its hooks, not rebuilt.  Odd
 * instants ask for no memory, several containers and exactly one
 * container; even instants ask for more than the whole idle set (a
 * failed scan).  Each demand is asked with and without an excluded
 * container.  The checks are:
 *  - the plan, in order;
 *  - the priority written into every container the scan popped;
 *  - the clock onUse gives a scanned container on its first use after
 *    the scan: the priority that scan gave it (§3.3 clock refresh),
 *    also when the scan failed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "policies/keepalive/cip.h"
#include "policies/scaling/vanilla.h"
#include "sim/rng.h"
#include "tests/core/test_helpers.h"

namespace cidre::policies {
namespace {

/** CIP that records each container's clock after its first use. */
class ProbeCip : public CipKeepAlive
{
  public:
    using CipKeepAlive::CipKeepAlive;

    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType type) override
    {
        CipKeepAlive::onUse(engine, container, type);
        first_use_clock.try_emplace(container.id, container.clock);
    }

    std::map<cluster::ContainerId, double> first_use_clock;
};

/** One idle container as the rescore-everything reference ranks it. */
struct Ranked
{
    double score;
    std::uint64_t seq;
    cluster::ContainerId id;
    std::int64_t memory_mb;
};

/** Every idle container of worker 0, rescored by Eq. 3 and sorted. */
std::vector<Ranked>
referenceRanking(const core::Engine &engine, double weight)
{
    const sim::SimTime now = engine.now();
    std::vector<Ranked> ranked;
    for (const cluster::ContainerId cid : engine.idleContainersOn(0)) {
        const cluster::Container &c = engine.clusterRef().container(cid);
        const auto &profile = engine.workload().functions()[c.function];
        const auto &fs = engine.functionState(c.function);
        const double freq = fs.freqPerMinute(now);
        const auto cost = static_cast<double>(profile.cold_start_us);
        const auto size = static_cast<double>(
            std::max<std::int64_t>(profile.memory_mb, 1));
        const auto k = static_cast<double>(
            std::max<std::uint32_t>(fs.cachedCount(), 1));
        const double bonus = weight * (freq * cost / (size * k));
        ranked.push_back({c.clock + bonus, c.seq, cid, c.memory_mb});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  return std::tie(a.score, a.seq) < std::tie(b.score, b.seq);
              });
    return ranked;
}

/** 16 functions of random size and cost, in bursts of 1-4 requests. */
trace::Trace
randomBursts(std::uint64_t seed)
{
    sim::Rng rng(seed);
    trace::Trace t;
    constexpr int kFunctions = 16;
    for (int f = 0; f < kFunctions; ++f) {
        test::addFunction(t, rng.between(1, 16) * 64,
                          sim::msec(rng.between(10, 2000)));
    }
    for (int burst = 0; burst < 400; ++burst) {
        const auto f = static_cast<trace::FunctionId>(
            rng.below(kFunctions));
        const sim::SimTime at = sim::msec(rng.between(0, 600'000));
        const std::int64_t width = rng.between(1, 4);
        for (std::int64_t i = 0; i < width; ++i)
            t.addRequest(f, at + i, sim::msec(rng.between(50, 500)));
    }
    t.seal();
    return t;
}

class CipReclaimOracleTest
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(CipReclaimOracleTest, PlanMatchesRescoreAndSort)
{
    const auto [weight, seed] = GetParam();
    const trace::Trace workload =
        randomBursts(static_cast<std::uint64_t>(seed));
    auto probe_owner = std::make_unique<ProbeCip>(weight);
    ProbeCip &cip = *probe_owner;
    core::Engine engine(
        workload, test::smallConfig(256 * 1024),
        test::bundleOf(std::make_unique<VanillaScaling>(),
                       std::move(probe_owner)));
    engine.begin();

    sim::Rng rng(static_cast<std::uint64_t>(seed) * 977);
    std::size_t failed_scans = 0;
    std::size_t uses_checked = 0;
    core::ReclaimPlan plan;
    for (int instant = 1; instant <= 9; ++instant) {
        engine.stepUntil(sim::minutes(1) * instant);
        const std::vector<Ranked> ranked = referenceRanking(engine, weight);
        ASSERT_GE(ranked.size(), 4u) << "instant " << instant;

        std::int64_t idle_mb = 0;
        for (const Ranked &r : ranked)
            idle_mb += r.memory_mb;
        // Several: exactly the three lowest containers' memory.
        const std::int64_t several =
            ranked[0].memory_mb + ranked[1].memory_mb + ranked[2].memory_mb;
        // A failed scan writes a priority into every idle container, so
        // it gets instants of its own: the first uses below then see
        // either what a failed scan recorded or what scans that popped
        // only some containers recorded.
        const std::vector<std::int64_t> demands = instant % 2 == 1
            ? std::vector<std::int64_t>{0, several, 1}
            : std::vector<std::int64_t>{idle_mb + 1};

        for (const std::int64_t need : demands) {
            for (const bool with_exclude : {false, true}) {
                const cluster::ContainerId exclude = with_exclude
                    ? ranked[rng.below(std::min<std::size_t>(
                                 ranked.size(), 4))]
                          .id
                    : cluster::kInvalidContainer;

                std::vector<cluster::ContainerId> expected;
                std::vector<const Ranked *> popped;
                std::int64_t freed = 0;
                for (const Ranked &r : ranked) {
                    if (freed >= need)
                        break;
                    popped.push_back(&r);
                    if (r.id != exclude) {
                        expected.push_back(r.id);
                        freed += r.memory_mb;
                    }
                }
                if (freed < need) {
                    expected.clear();
                    ++failed_scans;
                }

                plan.clear();
                cip.planReclaim(engine, {0, need, 0, exclude}, plan);
                ASSERT_EQ(plan.evict, expected)
                    << "instant " << instant << " need " << need
                    << " exclude " << exclude;
                for (const Ranked *r : popped) {
                    if (r->id == exclude)
                        continue;
                    EXPECT_EQ(engine.clusterRef().container(r->id).priority,
                              r->score)
                        << "instant " << instant << " need " << need
                        << " container " << r->id;
                }
            }
        }

        // The first use of a container scanned while idle refreshes its
        // clock to the priority the last scan gave it.
        cip.first_use_clock.clear();
        engine.stepUntil(sim::minutes(1) * instant + sim::sec(30));
        for (const Ranked &r : ranked) {
            const auto used = cip.first_use_clock.find(r.id);
            if (used == cip.first_use_clock.end())
                continue;
            EXPECT_EQ(used->second, r.score)
                << "instant " << instant << " container " << r.id;
            ++uses_checked;
        }
    }
    EXPECT_GT(failed_scans, 0u);
    EXPECT_GT(uses_checked, 0u) << "no scanned container was reused";
    engine.finish();
}

INSTANTIATE_TEST_SUITE_P(
    WeightsAndSeeds, CipReclaimOracleTest,
    ::testing::Combine(::testing::Values(0.0, 1.0, 4.0),
                       ::testing::Range(1, 5)));

} // namespace
} // namespace cidre::policies
