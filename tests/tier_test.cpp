// teco::tier — lifetime profiling, placement planning, migration
// scheduling, and the tier_* config surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "check/tier_checker.hpp"
#include "core/config.hpp"
#include "core/gantt.hpp"
#include "core/session.hpp"
#include "core/trace_export.hpp"
#include "dl/model_zoo.hpp"
#include "offload/activation_timeline.hpp"
#include "offload/calibration.hpp"
#include "tier/lifetime_profiler.hpp"
#include "tier/migration_scheduler.hpp"
#include "tier/placement_planner.hpp"

namespace {

using namespace teco;

constexpr std::uint64_t kGiB = 1ull << 30;

/// A hand-built 3-layer step: forward 3 s (1 s/layer), backward 6 s
/// (2 s/layer). Weights 1 GiB/layer read once per pass; activations
/// 2 GiB/layer produced at forward layer end, consumed by backward in
/// reverse order.
tier::StepProfile hand_profile() {
  tier::TensorLifetimeProfiler p;
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    const auto id = p.on_produce(std::move(name), tier::TensorClass::kWeight,
                                 i, kGiB, 0.0);
    p.on_consume(id, 1.0 * i);
    p.on_consume(id, 3.0 + 2.0 * (2 - i));
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    const auto id =
        p.on_produce(std::move(name), tier::TensorClass::kActivation, i,
                     2 * kGiB, 1.0 * (i + 1));
    p.on_consume(id, 3.0 + 2.0 * (2 - i));
  }
  return p.finish(3.0, 6.0, 3);
}

TEST(LifetimeProfiler, RecordsIntervalsOnHandBuiltModel) {
  const auto prof = hand_profile();
  ASSERT_EQ(prof.tensors.size(), 6u);

  // w0: consumed at fwd L0 (t=0) and bwd L0 (t=3+4=7).
  const auto& w0 = prof.tensors[0];
  EXPECT_EQ(w0.cls, tier::TensorClass::kWeight);
  ASSERT_EQ(w0.consumes.size(), 2u);
  EXPECT_DOUBLE_EQ(w0.consumes[0], 0.0);
  EXPECT_DOUBLE_EQ(w0.consumes[1], 7.0);
  EXPECT_DOUBLE_EQ(w0.dead_span(), 7.0);
  EXPECT_DOUBLE_EQ(w0.last_use(), 7.0);

  // a0: produced at 1, consumed when backward reaches layer 0 at t=7.
  const auto& a0 = prof.tensors[3];
  EXPECT_EQ(a0.cls, tier::TensorClass::kActivation);
  EXPECT_DOUBLE_EQ(a0.produce, 1.0);
  ASSERT_EQ(a0.consumes.size(), 1u);
  EXPECT_DOUBLE_EQ(a0.consumes[0], 7.0);
  EXPECT_DOUBLE_EQ(a0.dead_span(), 6.0);

  // a2: produced at forward end, consumed immediately by backward.
  const auto& a2 = prof.tensors[5];
  EXPECT_DOUBLE_EQ(a2.produce, 3.0);
  EXPECT_DOUBLE_EQ(a2.first_consume(), 3.0);
  EXPECT_DOUBLE_EQ(a2.dead_span(), 0.0);
}

TEST(LifetimeProfiler, PeakLiveBytesSweep) {
  const auto prof = hand_profile();
  // Peak hits at t=2: all 3 weights (3 GiB) + a0 + a1 (4 GiB). At t=3 the
  // sweep frees w2 and the zero-lifetime a2 before allocating, so the
  // forward-end spike never exceeds it.
  EXPECT_EQ(prof.peak_live_bytes(), 7 * kGiB);
}

TEST(LifetimeProfiler, ConsumeUnknownIdThrows) {
  tier::TensorLifetimeProfiler p;
  EXPECT_THROW(p.on_consume(7, 1.0), std::out_of_range);
}

TEST(LifetimeProfiler, CanonicalStepProfileShape) {
  const auto& cal = offload::default_calibration();
  const auto m = dl::gpt2();
  const auto prof = tier::profile_step(m, 8, cal);
  ASSERT_EQ(prof.tensors.size(), 2u * m.n_layers);
  EXPECT_EQ(prof.total_bytes(tier::TensorClass::kWeight),
            m.n_params * 2 / m.n_layers * m.n_layers);
  // Activations are consumed in reverse layer order during backward.
  const auto& first = prof.tensors[m.n_layers];      // act layer 0
  const auto& last = prof.tensors[2 * m.n_layers - 1];  // act layer L-1
  EXPECT_GT(first.consumes.front(), last.consumes.front());
}

TEST(PlacementPlanner, AllHbmDegeneratesToZeroMigrations) {
  const auto prof = hand_profile();
  tier::PlannerConfig cfg;
  cfg.policy = tier::Policy::kAllHbm;
  cfg.hbm_bytes = 64 * kGiB;
  const tier::PlacementPlanner planner(cfg,
                                       offload::default_calibration());
  const auto plan = planner.plan(prof);
  EXPECT_TRUE(plan.hbm_feasible);
  EXPECT_TRUE(plan.migrations.empty());
  EXPECT_TRUE(std::all_of(plan.home.begin(), plan.home.end(),
                          [](tier::Tier t) { return t == tier::Tier::kHbm; }));
}

TEST(PlacementPlanner, LargeBudgetNeedsNoEvictions) {
  const auto prof = hand_profile();
  for (const auto pol : {tier::Policy::kMinStall, tier::Policy::kKnapsack}) {
    tier::PlannerConfig cfg;
    cfg.policy = pol;
    cfg.hbm_bytes = 64 * kGiB;
    const tier::PlacementPlanner planner(cfg,
                                         offload::default_calibration());
    const auto plan = planner.plan(prof);
    EXPECT_TRUE(plan.hbm_feasible);
    EXPECT_EQ(plan.planned_offload_bytes, 0u);
    EXPECT_TRUE(plan.migrations.empty());
  }
}

TEST(PlacementPlanner, PlanFitsHbmBudget) {
  const auto prof = hand_profile();
  for (const auto pol : {tier::Policy::kMinStall, tier::Policy::kKnapsack}) {
    tier::PlannerConfig cfg;
    cfg.policy = pol;
    cfg.hbm_bytes = 5 * kGiB;  // peak is 7 GiB.
    const tier::PlacementPlanner planner(cfg,
                                         offload::default_calibration());
    const auto plan = planner.plan(prof);
    EXPECT_FALSE(plan.hbm_feasible);
    EXPECT_LE(plan.planned_hbm_peak, cfg.hbm_bytes);
    EXPECT_GE(plan.planned_offload_bytes, 2 * kGiB);
  }
}

TEST(PlacementPlanner, PolicyStringsRoundTrip) {
  for (const auto pol : {tier::Policy::kAllHbm, tier::Policy::kNaiveSwap,
                         tier::Policy::kMinStall, tier::Policy::kKnapsack}) {
    const auto parsed = tier::policy_from_string(tier::to_string(pol));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, pol);
  }
  EXPECT_FALSE(tier::policy_from_string("lru").has_value());
}

/// Run the full timeline for gpt2 at the given policy/budget with a strict
/// checker attached.
offload::ActivationStepReport run_step(tier::Policy pol, std::uint64_t hbm,
                                       std::uint32_t seq_len = 4096) {
  auto m = dl::gpt2();
  m.seq_len = seq_len;
  offload::ActivationTimelineOptions opts;
  opts.policy = pol;
  opts.hbm_bytes = hbm;
  opts.giant_cache_bytes = 4 * kGiB;
  check::TierInvariantChecker checker(check::CheckLevel::kStrict, 0);
  opts.observer = &checker;
  auto r = offload::simulate_activation_step(
      m, 8, offload::default_calibration(), opts);
  EXPECT_EQ(checker.violations(), 0u) << "policy " << tier::to_string(pol);
  EXPECT_GT(checker.accesses_checked(), 0u);
  return r;
}

TEST(MigrationScheduler, AllHbmHasNoTrafficOrStall) {
  const auto r = run_step(tier::Policy::kAllHbm, 64 * kGiB, 1024);
  EXPECT_EQ(r.sched.stall_time, 0.0);
  EXPECT_EQ(r.migrated_bytes(), 0u);
  EXPECT_TRUE(r.sched.transfers.empty());
}

TEST(MigrationScheduler, PrefetchLandsBeforeOrAtConsumeOrStallCharged) {
  const auto r = run_step(tier::Policy::kMinStall, 16 * kGiB);
#ifndef TECO_OBS_DISABLED
  EXPECT_GT(r.sched.metric("tier.prefetches"), 0.0);
#endif
  // Every prefetch/evict pair for one tensor must be ordered: the fetch
  // back to HBM starts no earlier than the eviction that parked it.
  for (const auto& t : r.sched.transfers) {
    EXPECT_GE(t.end, t.start);
  }
  // The strict checker (attached in run_step) enforced T1/T2 already; a
  // zero-stall run would mean every fetch was fully hidden.
  EXPECT_GE(r.sched.stall_time, 0.0);
}

TEST(MigrationScheduler, EvictionPrecedesRefetchPerTensor) {
  const auto r = run_step(tier::Policy::kMinStall, 16 * kGiB);
  // For each activation tensor: first HBM-outbound transfer must precede
  // any inbound fetch of the same tensor.
  std::vector<sim::Time> first_evict(r.profile.tensors.size(), -1.0);
  std::vector<sim::Time> first_fetch(r.profile.tensors.size(), -1.0);
  for (const auto& t : r.sched.transfers) {
    auto& slot = t.to == tier::Tier::kHbm ? first_fetch[t.tensor]
                                          : first_evict[t.tensor];
    if (slot < 0.0) slot = t.start;
  }
  for (std::size_t i = 0; i < r.profile.tensors.size(); ++i) {
    if (r.profile.tensors[i].cls != tier::TensorClass::kActivation) continue;
    if (first_fetch[i] < 0.0) continue;
    ASSERT_GE(first_evict[i], 0.0) << "fetch without prior eviction";
    EXPECT_LE(first_evict[i], first_fetch[i]);
  }
}

TEST(MigrationScheduler, StallMonotoneNonIncreasingInBudget) {
  for (const auto pol : {tier::Policy::kMinStall, tier::Policy::kKnapsack}) {
    double prev = -1.0;
    for (const std::uint64_t hbm :
         {8 * kGiB, 16 * kGiB, 24 * kGiB, 64 * kGiB}) {
      const auto r = run_step(pol, hbm);
      if (prev >= 0.0) {
        EXPECT_LE(r.sched.stall_time, prev + 1e-9)
            << tier::to_string(pol) << " at " << hbm / kGiB << " GiB";
      }
      prev = r.sched.stall_time;
    }
  }
}

TEST(ActivationTimeline, PlannedPoliciesBeatNaiveWhereAllHbmOoms) {
  const auto naive = run_step(tier::Policy::kNaiveSwap, 16 * kGiB);
  const auto planned = run_step(tier::Policy::kMinStall, 16 * kGiB);
  EXPECT_TRUE(naive.hbm_oom);  // The corrected check flags all-HBM.
  ASSERT_GT(naive.sched.stall_time, 0.0);
  // The acceptance bar: >= 25 % less stall than synchronous swapping.
  EXPECT_LE(planned.sched.stall_time, 0.75 * naive.sched.stall_time);
  EXPECT_LT(planned.step_total, naive.step_total);
}

TEST(ActivationTimeline, CorrectedMemoryCheckTracksSeqLen) {
  const auto m = dl::gpt2();
  // Short sequences fit; long sequences push the same model OOM.
  const auto short_chk =
      offload::check_gpu_memory(m, 8, 30ull << 30, false);
  EXPECT_TRUE(short_chk.fits);
  auto long_m = m;
  long_m.seq_len = 8192;
  const auto long_chk =
      offload::check_gpu_memory(long_m, 8, 30ull << 30, false);
  EXPECT_FALSE(long_chk.fits);
  EXPECT_GT(long_chk.activation_bytes, short_chk.activation_bytes);
  // fits_on_gpu delegates to the same accounting.
  EXPECT_TRUE(offload::fits_on_gpu(m, 8));
  EXPECT_FALSE(offload::fits_on_gpu(long_m, 8));
}

TEST(TierChecker, StrictModeThrowsOnBadMigration) {
  check::TierInvariantChecker chk(check::CheckLevel::kStrict, 0);
  EXPECT_THROW(chk.on_tier_migration(1.0, 0, 0, 0, 64, 2.0, false),
               check::TierViolation);  // T4: same tier.
  check::TierInvariantChecker count(check::CheckLevel::kCount, 0);
  count.on_tier_migration(1.0, 0, 0, 0, 64, 2.0, false);
  count.on_tier_migration(1.0, 1, 0, 2, 0, 2.0, false);   // T4: zero bytes.
  count.on_tier_migration(3.0, 2, 0, 2, 64, 2.0, false);  // T4: time warp.
  EXPECT_EQ(count.violations(), 3u);
}

TEST(TierChecker, ResidencyAndDeadlineInvariants) {
  check::TierInvariantChecker chk(check::CheckLevel::kStrict, 0);
  // T1: consume from lower tier with no stall.
  EXPECT_THROW(chk.on_tier_access(1.0, 0, 2, false, 0.0),
               check::TierViolation);
  // T2: access before a recorded prefetch delivery without covering stall.
  check::TierInvariantChecker chk2(check::CheckLevel::kStrict, 0);
  chk2.on_tier_migration(0.0, 5, 2, 0, 64, 10.0, true);
  EXPECT_THROW(chk2.on_tier_access(1.0, 5, 2, false, 2.0),
               check::TierViolation);
  // Same access with a stall that covers delivery is fine.
  check::TierInvariantChecker chk3(check::CheckLevel::kStrict, 0);
  chk3.on_tier_migration(0.0, 5, 2, 0, 64, 10.0, true);
  chk3.on_tier_access(1.0, 5, 2, false, 9.0);
  EXPECT_EQ(chk3.violations(), 0u);
  // T3: capacity.
  check::TierInvariantChecker chk4(check::CheckLevel::kStrict, 100);
  EXPECT_THROW(chk4.on_tier_occupancy(0.0, 0, 101), check::TierViolation);
  chk4.on_tier_occupancy(0.0, 1, 1000);  // Other tiers unconstrained.
}

TEST(TierConfig, ParsesTierKeys) {
  const auto p = core::parse_config(
      "tier_policy = knapsack\n"
      "tier_hbm_bytes = 17179869184\n"
      "tier_prefetch_depth = 4\n");
  ASSERT_TRUE(p.errors.empty());
  EXPECT_TRUE(p.unknown_keys.empty());
  EXPECT_EQ(p.session.tier_policy, tier::Policy::kKnapsack);
  EXPECT_EQ(p.session.tier_hbm_bytes, 16 * kGiB);
  EXPECT_EQ(p.session.tier_prefetch_depth, 4u);
  const auto cfg = core::tier_planner_config(p.session);
  EXPECT_EQ(cfg.policy, tier::Policy::kKnapsack);
  EXPECT_EQ(cfg.hbm_bytes, 16 * kGiB);
  EXPECT_EQ(cfg.prefetch_depth, 4u);
  EXPECT_EQ(cfg.giant_cache_bytes, p.session.giant_cache_capacity);
}

TEST(TierConfig, RejectsBadTierValues) {
  const auto p = core::parse_config(
      "tier_policy = lru\n"
      "tier_hbm_bytes = 0\n"
      "tier_hbm_bytes = banana\n"
      "tier_prefetch_depth = 65\n");
  ASSERT_EQ(p.errors.size(), 4u);
  EXPECT_NE(p.errors[0].find("tier_policy must be"), std::string::npos);
  EXPECT_NE(p.errors[1].find("positive integer"), std::string::npos);
  EXPECT_NE(p.errors[3].find("[0, 64]"), std::string::npos);
  // Defaults survive rejected values.
  EXPECT_EQ(p.session.tier_policy, tier::Policy::kAllHbm);
}

TEST(TierConfig, RoundTripsThroughText) {
  core::SessionConfig cfg;
  cfg.tier_policy = tier::Policy::kMinStall;
  cfg.tier_hbm_bytes = 8 * kGiB;
  cfg.tier_prefetch_depth = 7;
  const auto p = core::parse_config(core::to_config_text(cfg));
  ASSERT_TRUE(p.errors.empty());
  EXPECT_TRUE(p.unknown_keys.empty());
  EXPECT_EQ(p.session.tier_policy, cfg.tier_policy);
  EXPECT_EQ(p.session.tier_hbm_bytes, cfg.tier_hbm_bytes);
  EXPECT_EQ(p.session.tier_prefetch_depth, cfg.tier_prefetch_depth);
}

TEST(TierGantt, ActivationGanttHasOccupancyLanes) {
  // seq 4096 overflows the 16 GiB budget, so migration lanes are present.
  const auto r = run_step(tier::Policy::kMinStall, 16 * kGiB);
  const auto g = core::activation_gantt(r, 16 * kGiB, 4 * kGiB);
  const auto text = core::render_gantt(g, 64);
  EXPECT_NE(text.find("GPU fwd"), std::string::npos);
  EXPECT_NE(text.find("occ HBM"), std::string::npos);
  EXPECT_NE(text.find("mig down"), std::string::npos);
  // Occupancy lanes carry digit glyphs.
  bool digit = false;
  for (const auto& s : g.events()) {
    if (s.lane == "occ HBM" && s.name.size() == 1 && s.name[0] >= '0' &&
        s.name[0] <= '9') {
      digit = true;
    }
  }
  EXPECT_TRUE(digit);
}

TEST(TierGantt, ChromeTraceExportIsWellFormed) {
  const auto r = run_step(tier::Policy::kMinStall, 16 * kGiB, 2048);
  const auto g = core::activation_gantt(r, 16 * kGiB, 4 * kGiB);
  std::vector<core::CounterSeries> counters = {
      {"HBM bytes", r.sched.occupancy[0].points}};
  core::ChromeTraceComposer c;
  c.add_spans(g, "tier step", /*pid=*/1);
  c.add_counters(counters, /*pid=*/1);
  const auto json = c.json();
  // Structural spot checks (no JSON parser in the test deps; CI's
  // bench-smoke job json.load()s a full exported trace).
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find("tier step"), std::string::npos);
  // Balanced braces, since we hand-serialize.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
