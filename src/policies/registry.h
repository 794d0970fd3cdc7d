/**
 * @file
 * Named policy registry: build any orchestration policy the paper
 * evaluates from a string, so benches/examples/tests share one spelling.
 *
 * Names (paper §4 "Compared Baselines" + §5.3 ablations):
 *
 *   ttl            OpenLambda default (10-min TTL)
 *   lru            LRU keep-alive
 *   faascache      GDSF keep-alive (Eq. 1), vanilla scaling
 *   faascache-c    concurrency-aware GDSF (Eq. 2), vanilla scaling
 *   rainbowcake    layer-wise caching + pre-warm
 *   icebreaker     prediction-driven pre-warming
 *   codecrunch     compression-first keep-alive
 *   flame          skew-aware centralized controller
 *   ensure         autoscaler with burst buffers
 *   hybrid         hybrid-histogram keep-alive (Shahrad'20; extension)
 *   offline        Belady MIN + oracle scaling
 *   cidre          CSS + CIP (the full system)
 *   cidre-bss      BSS + CIP
 *   css-alone      CSS + GDSF   (Fig. 15 ablation)
 *   bss-alone      BSS + GDSF   (Fig. 15 ablation)
 *   cip-alone      vanilla + CIP (Fig. 15 ablation)
 *   fixed-queue-N  queue length N on busy containers (Fig. 7), GDSF
 */

#ifndef CIDRE_POLICIES_REGISTRY_H
#define CIDRE_POLICIES_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/policy.h"

namespace cidre::policies {

/**
 * Build the named policy bundle.
 * @param name   one of the names listed in the file comment.
 * @param config engine configuration (worker count etc. for baselines
 *               that need cluster shape).
 * @throws std::invalid_argument for unknown names.
 */
core::OrchestrationPolicy makePolicy(const std::string &name,
                                     const core::EngineConfig &config);

/**
 * A per-cell policy factory (core::ShardedEngine::PolicyFactory) that
 * builds the named bundle from each cell's own config.  The name is
 * resolved at each call, so an unknown name throws when the first
 * cell is built.
 */
std::function<core::OrchestrationPolicy(const core::EngineConfig &)>
makePolicyFactory(std::string name);

/** All fixed registry names (excludes the parameterized fixed-queue-N). */
const std::vector<std::string> &allPolicyNames();

/** The eleven systems of Fig. 12, in the paper's legend order. */
const std::vector<std::string> &figure12PolicyNames();

} // namespace cidre::policies

#endif // CIDRE_POLICIES_REGISTRY_H
