// PlacementPlanner — decide each tensor's home tier and migration schedule.
//
// Four policies, in increasing sophistication:
//
//  kAllHbm    — everything stays in HBM. Zero migrations; infeasible (OOM)
//               whenever the step's peak live bytes exceed the budget.
//  kNaiveSwap — the strawman every offloading paper measures against:
//               activations are written straight through to CXL DRAM when
//               produced (synchronously — forward blocks on the link) and
//               demand-fetched when backward needs them (fully exposed).
//  kMinStall  — greedy cost model: evict the tensors whose re-fetch can be
//               overlapped most cheaply (largest dead span relative to the
//               prefetch window the link bandwidth allows) until the plan
//               fits the budget. Tight-deadline tensors go to the giant
//               cache (device-local, no link crossing) while it has room.
//  kKnapsack  — 10Cache-style lifetime/size scoring: each tensor's HBM
//               residency is valued at its estimated avoided stall and
//               weighted by the byte-seconds it would occupy; the keep-set
//               is filled by value density until the budget is consumed.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "offload/calibration.hpp"
#include "tier/lifetime_profiler.hpp"
#include "tier/tier.hpp"

namespace teco::tier {

enum class Policy : std::uint8_t {
  kAllHbm,
  kNaiveSwap,
  kMinStall,
  kKnapsack,
};

std::string_view to_string(Policy p);
/// Parse the config-file spelling (all_hbm | naive_swap | min_stall |
/// knapsack); nullopt for anything else.
std::optional<Policy> policy_from_string(std::string_view s);

/// One eviction candidate for runtime (non-planned) victim selection.
/// The serving runtime builds these from HBM-resident KV sessions each time
/// the budget is exceeded; unlike the ahead-of-time TierPlan, candidates
/// carry *observed* recency and a scheduler-provided next-use estimate.
struct VictimCandidate {
  std::uint64_t id = 0;          ///< Owner id (session, tensor, ...).
  std::uint64_t bytes = 0;       ///< HBM bytes freed by evicting it.
  sim::Time idle = 0.0;          ///< Time since the owner last ran.
  sim::Time next_use_gap = 0.0;  ///< Estimated time until it runs again.
  std::uint64_t handle = 0;      ///< Caller's payload; never ordered on.
};

/// Sort candidates best-victim-first under the policy's selection logic:
/// kMinStall approximates Belady (evict whatever is needed furthest in the
/// future, so the re-fetch has the longest overlap window), kKnapsack
/// scores byte-seconds (cold-and-large first, the 10Cache density rule),
/// and the strawmen fall back to id order. Ties always break by id, so the
/// ordering is a deterministic total order.
void order_victims(Policy p, std::vector<VictimCandidate>& v);

struct PlannerConfig {
  Policy policy = Policy::kMinStall;
  std::uint64_t hbm_bytes = 16ull << 30;
  std::uint64_t giant_cache_bytes = 4ull << 30;
  /// How many compute slots ahead of a consumer the scheduler may issue
  /// its prefetch (and the overlap window the min-stall cost model prices).
  std::size_t prefetch_depth = 2;
};

/// One planned data movement. Migrations are anchored to lifetime events,
/// not wall-clock times: the scheduler fires them when the (possibly
/// stall-shifted) producing/consuming event actually happens.
struct Migration {
  std::uint32_t tensor = 0;
  Tier from = Tier::kHbm;
  Tier to = Tier::kCxlDram;
  bool prefetch = false;  ///< false = eviction out of HBM.
  /// Eviction: start after this consume index has retired (SIZE_MAX =
  /// right after produce). Prefetch: must land before this consume index.
  std::size_t consume_idx = 0;
  sim::Time planned_issue = 0.0;     ///< From the unstalled profile.
  sim::Time planned_deadline = 0.0;  ///< Consume time it must beat.
};

struct TierPlan {
  Policy policy = Policy::kAllHbm;
  /// Copied from PlannerConfig so the scheduler sees the same window the
  /// cost model priced.
  std::size_t prefetch_depth = 2;
  std::vector<Tier> home;  ///< Indexed by tensor id.
  std::vector<Migration> migrations;
  /// Static HBM high-water mark of the plan (kept tensors only; the
  /// transient produce-then-evict residency of offloaded activations is a
  /// scheduler-level quantity).
  std::uint64_t planned_hbm_peak = 0;
  std::uint64_t planned_offload_bytes = 0;
  /// Whether the all-HBM placement would have fit the budget at all.
  bool hbm_feasible = true;

  std::uint64_t migration_count(bool prefetch) const {
    std::uint64_t n = 0;
    for (const auto& m : migrations) n += m.prefetch == prefetch ? 1 : 0;
    return n;
  }
};

class PlacementPlanner {
 public:
  PlacementPlanner(PlannerConfig cfg, const offload::Calibration& cal)
      : cfg_(cfg), cal_(cal) {}

  TierPlan plan(const StepProfile& prof) const;

  const PlannerConfig& config() const { return cfg_; }

 private:
  /// Estimated stall if `rec` is evicted to `t` and prefetched back inside
  /// an overlap window of `window` seconds per consume.
  sim::Time estimated_stall(const TensorRecord& rec, Tier t,
                            sim::Time window) const;
  sim::Time transfer_time(std::uint64_t bytes, Tier t) const;
  void emit_migrations(const StepProfile& prof, TierPlan* plan) const;

  PlannerConfig cfg_;
  offload::Calibration cal_;
};

}  // namespace teco::tier
