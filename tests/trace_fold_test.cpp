// TraceFold: byte-for-byte goldens for every timeline that flows through
// obs::TraceBuffer — the Gantt text render, its Chrome trace export, the
// fault-tolerance crash timeline and the home agent's protocol events.
//
// The files under tests/golden/trace_fold/ were captured from the earlier
// dedicated record types (a Gantt chart class with its own exporter, and a
// string-record protocol trace); matching them proves that folding both
// into spans changed no rendered character and no exported byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/tier_checker.hpp"
#include "core/gantt.hpp"
#include "core/session.hpp"
#include "core/trace_export.hpp"
#include "dl/model_zoo.hpp"
#include "ft/trainer.hpp"
#include "offload/activation_timeline.hpp"
#include "offload/calibration.hpp"

namespace teco {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

std::string golden(const std::string& name) {
  const std::string path = std::string(TECO_GOLDEN_DIR) + "/" + name;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing golden " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(TraceFold, StepGanttRenderAndExportMatchGoldens) {
  const auto& cal = offload::default_calibration();
  for (const auto kind : {offload::RuntimeKind::kZeroOffload,
                          offload::RuntimeKind::kZeroOffloadDpu,
                          offload::RuntimeKind::kCxlInvalidation,
                          offload::RuntimeKind::kTecoCxl,
                          offload::RuntimeKind::kTecoReduction}) {
    const std::string k(offload::to_string(kind));
    const auto g = core::step_gantt(kind, dl::bert_large_cased(), 4, cal);
    EXPECT_EQ(core::render_gantt(g, 72), golden("step_gantt_" + k + ".txt"))
        << k;
    core::ChromeTraceComposer c;
    c.add_spans(g, k, /*pid=*/1);
    EXPECT_EQ(c.json(), golden("step_gantt_" + k + ".json")) << k;
  }
}

TEST(TraceFold, ActivationGanttWithCounterTrackMatchesGoldens) {
  // tier_test's run_step(kMinStall, 16 GiB, 2048).
  auto m = dl::gpt2();
  m.seq_len = 2048;
  offload::ActivationTimelineOptions opts;
  opts.policy = tier::Policy::kMinStall;
  opts.hbm_bytes = 16 * kGiB;
  opts.giant_cache_bytes = 4 * kGiB;
  check::TierInvariantChecker checker(check::CheckLevel::kStrict, 0);
  opts.observer = &checker;
  const auto r = offload::simulate_activation_step(
      m, 8, offload::default_calibration(), opts);
  const auto g = core::activation_gantt(r, 16 * kGiB, 4 * kGiB);
  EXPECT_EQ(core::render_gantt(g, 72), golden("activation_gantt.txt"));

  core::ChromeTraceComposer c;
  c.add_spans(g, "tier step", /*pid=*/1);
  c.add_counters({{"HBM bytes", r.sched.occupancy[0].points}}, /*pid=*/1);
  EXPECT_EQ(c.json(), golden("activation_gantt.json"));
}

TEST(TraceFold, FtCrashGanttMatchesGolden) {
  ft::FtTrainConfig cfg;
  cfg.session.ft_mode = core::FtMode::kFull;
  cfg.session.ft_checkpoint_interval = 6;
  cfg.session.act_aft_steps = 4;
  cfg.steps = 24;
  cfg.n_params = 2048;
  cfg.update_fraction = 0.3;
  cfg.step_compute = sim::us(50.0);
  cfg.cpu_opt_time = sim::us(5.0);
  cfg.faults.crash_steps = {14};
  EXPECT_EQ(ft::run_ft_training(cfg).gantt, golden("ft_crash_gantt.txt"));
}

/// The `coherence_trace` example's flow: one two-float parameter update
/// and device read under `proto`, with `trace = on`. One line per
/// home-agent span, "<begin %.17g>\t<name>".
std::string coherence_events(coherence::Protocol proto) {
  core::SessionConfig cfg;
  cfg.protocol = proto;
  cfg.dba_enabled = false;
  cfg.enable_trace = true;
  core::Session s(cfg);
  const auto params = s.allocate_parameters("w", 128);
  s.cpu_write_parameters(params, std::vector<float>{1.0f, 2.0f});
  s.optimizer_step_complete();
  s.device_read_parameters(params, 2);
  std::string out;
  for (const auto& ev : s.spans().events()) {
    if (ev.lane != "home_agent") continue;
    EXPECT_EQ(ev.begin, ev.end) << ev.name;  // Protocol events are instants.
    char when[40];
    std::snprintf(when, sizeof when, "%.17g\t", ev.begin);
    out += when + ev.name + "\n";
  }
  return out;
}

TEST(TraceFold, CoherenceEventSequenceMatchesGoldens) {
  EXPECT_EQ(coherence_events(coherence::Protocol::kUpdate),
            golden("coherence_update.txt"));
  EXPECT_EQ(coherence_events(coherence::Protocol::kInvalidation),
            golden("coherence_invalidation.txt"));
}

}  // namespace
}  // namespace teco
