#include "policies/registry.h"

#include <memory>
#include <stdexcept>

#include "policies/baselines/codecrunch.h"
#include "policies/baselines/ensure.h"
#include "policies/baselines/flame.h"
#include "policies/baselines/hybrid.h"
#include "policies/baselines/icebreaker.h"
#include "policies/baselines/rainbowcake.h"
#include "policies/keepalive/belady.h"
#include "policies/keepalive/cip.h"
#include "policies/keepalive/gdsf.h"
#include "policies/keepalive/lru.h"
#include "policies/keepalive/ttl.h"
#include "policies/scaling/bss.h"
#include "policies/scaling/css.h"
#include "policies/scaling/fixed_queue.h"
#include "policies/scaling/oracle.h"
#include "policies/scaling/vanilla.h"

namespace cidre::policies {

namespace {

core::OrchestrationPolicy
bundle(std::string name, std::unique_ptr<core::ScalingPolicy> scaling,
       std::unique_ptr<core::KeepAlivePolicy> keep_alive,
       std::unique_ptr<core::ClusterAgent> agent = nullptr)
{
    core::OrchestrationPolicy policy;
    policy.name = std::move(name);
    policy.scaling = std::move(scaling);
    policy.keep_alive = std::move(keep_alive);
    policy.agent = std::move(agent);
    return policy;
}

} // namespace

core::OrchestrationPolicy
makePolicy(const std::string &name, const core::EngineConfig &config)
{
    if (name == "ttl") {
        return bundle(name, std::make_unique<VanillaScaling>(),
                      std::make_unique<TtlKeepAlive>());
    }
    if (name == "lru") {
        return bundle(name, std::make_unique<VanillaScaling>(),
                      std::make_unique<LruKeepAlive>());
    }
    if (name == "faascache") {
        return bundle(name, std::make_unique<VanillaScaling>(),
                      std::make_unique<GdsfKeepAlive>(false));
    }
    if (name == "faascache-c") {
        return bundle(name, std::make_unique<VanillaScaling>(),
                      std::make_unique<GdsfKeepAlive>(true));
    }
    if (name == "rainbowcake")
        return makeRainbowCake(RainbowCakeConfig{}, config.cluster.workers);
    if (name == "icebreaker")
        return makeIceBreaker(IceBreakerConfig{});
    if (name == "codecrunch")
        return makeCodeCrunch();
    if (name == "flame")
        return makeFlame(FlameConfig{});
    if (name == "ensure")
        return makeEnsure(EnsureConfig{});
    if (name == "hybrid")
        return makeHybridHistogram(HybridConfig{});
    if (name == "offline") {
        return bundle(name, std::make_unique<OracleScaling>(),
                      std::make_unique<BeladyKeepAlive>());
    }
    if (name == "cidre") {
        return bundle(name, std::make_unique<CssScaling>(),
                      std::make_unique<CipKeepAlive>());
    }
    if (name == "cidre-bss") {
        return bundle(name, std::make_unique<BssScaling>(),
                      std::make_unique<CipKeepAlive>());
    }
    if (name == "css-alone") {
        return bundle(name, std::make_unique<CssScaling>(),
                      std::make_unique<GdsfKeepAlive>(false));
    }
    if (name == "bss-alone") {
        return bundle(name, std::make_unique<BssScaling>(),
                      std::make_unique<GdsfKeepAlive>(false));
    }
    if (name == "cip-alone") {
        return bundle(name, std::make_unique<VanillaScaling>(),
                      std::make_unique<CipKeepAlive>());
    }
    if (name.rfind("fixed-queue-", 0) == 0) {
        const std::string depth_text = name.substr(12);
        std::size_t used = 0;
        unsigned long depth = 0;
        try {
            depth = std::stoul(depth_text, &used);
        } catch (const std::logic_error &) {
            used = 0;
        }
        if (used == 0 || used != depth_text.size())
            throw std::invalid_argument("makePolicy: bad queue depth in '" +
                                        name + "'");
        return bundle(name, std::make_unique<FixedQueueScaling>(depth),
                      std::make_unique<GdsfKeepAlive>(false));
    }
    throw std::invalid_argument("makePolicy: unknown policy '" + name + "'");
}

std::function<core::OrchestrationPolicy(const core::EngineConfig &)>
makePolicyFactory(std::string name)
{
    return [name = std::move(name)](const core::EngineConfig &config) {
        return makePolicy(name, config);
    };
}

const std::vector<std::string> &
allPolicyNames()
{
    static const std::vector<std::string> names = {
        "ttl",        "lru",       "faascache", "faascache-c",
        "rainbowcake", "icebreaker", "codecrunch", "flame",
        "ensure",     "hybrid",    "offline",   "cidre",
        "cidre-bss",  "css-alone", "bss-alone", "cip-alone",
    };
    return names;
}

const std::vector<std::string> &
figure12PolicyNames()
{
    static const std::vector<std::string> names = {
        "ttl",    "lru",        "faascache", "rainbowcake",
        "flame",  "ensure",     "icebreaker", "codecrunch",
        "cidre-bss", "cidre",   "offline",
    };
    return names;
}

} // namespace cidre::policies
