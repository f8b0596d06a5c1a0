// Tiered activation offloading: stall vs HBM budget (teco::tier).
//
// Long-sequence fine-tuning of the GPT-2 proxy blows past HBM: the saved
// activations grow with batch x seq_len while the card does not. This bench
// sweeps model x sequence length x HBM budget and compares the placement
// policies end to end on the shared-link timeline:
//
//   all_hbm     — no tiering; OOM whenever the corrected memory check says
//                 the working set exceeds the budget.
//   naive_swap  — synchronous write-through + demand fetch (the strawman).
//   min_stall   — greedy stall-per-byte-freed eviction with lookahead
//                 prefetch.
//   knapsack    — 10Cache-style byte-seconds value-density scoring.
//
// The headline: where all_hbm is OOM, the planned policies finish the step
// with well over 25 % less stall than naive synchronous swapping.
//
// Flags / environment:
//   --json <path>   also export the min_stall step as ONE unified Chrome
//                   trace_event JSON (chrome://tracing, ui.perfetto.dev):
//                   Gantt lanes + obs spans + tier occupancy counter tracks.
//   TECO_SMOKE=1    shrink the sweep for CI smoke runs.
//   TECO_BENCH_DIR  where BENCH_tier_activation.json lands (default: cwd).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/tier_checker.hpp"
#include "core/gantt.hpp"
#include "core/report.hpp"
#include "core/trace_export.hpp"
#include "dl/model_zoo.hpp"
#include "obs/bench_report.hpp"
#include "offload/activation_timeline.hpp"

namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

struct Sweep {
  std::vector<std::uint32_t> seq_lens;
  std::vector<std::uint64_t> hbm_budgets;
  std::uint32_t batch = 8;
};

Sweep make_sweep(bool smoke) {
  if (smoke) return {{4096}, {16 * kGiB}, 8};
  return {{1024, 2048, 4096, 8192}, {8 * kGiB, 16 * kGiB, 24 * kGiB}, 8};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace teco;
  const char* smoke_env = std::getenv("TECO_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  const auto& cal = offload::default_calibration();
  const Sweep sweep = make_sweep(smoke);
  const std::vector<tier::Policy> policies = {
      tier::Policy::kAllHbm, tier::Policy::kNaiveSwap,
      tier::Policy::kMinStall, tier::Policy::kKnapsack};

  auto model = dl::gpt2();

  core::TextTable t(
      "Tiered activation offloading (GPT-2 proxy, batch " +
      std::to_string(sweep.batch) + ", giant cache 4 GiB)");
  t.set_header({"seq", "HBM", "policy", "all-HBM fit", "stall", "step",
                "migrated", "HBM peak", "vs naive"});

  bool acceptance_met = false;
  double best_reduction = 0.0;
  for (const std::uint32_t seq : sweep.seq_lens) {
    model.seq_len = seq;
    for (const std::uint64_t hbm : sweep.hbm_budgets) {
      double naive_stall = -1.0;
      for (const tier::Policy pol : policies) {
        offload::ActivationTimelineOptions opts;
        opts.policy = pol;
        opts.hbm_bytes = hbm;
        opts.giant_cache_bytes = 4 * kGiB;
        // Strict invariant checking rides every simulated step; any T1/T2/
        // T4 firing aborts the bench.
        check::TierInvariantChecker checker(check::CheckLevel::kStrict, 0);
        opts.observer = &checker;
        const auto r =
            offload::simulate_activation_step(model, sweep.batch, cal, opts);

        if (pol == tier::Policy::kNaiveSwap) naive_stall = r.stall_time();
        std::string vs_naive = "-";
        if (naive_stall > 0.0 && pol != tier::Policy::kNaiveSwap &&
            pol != tier::Policy::kAllHbm) {
          const double red = 1.0 - r.stall_time() / naive_stall;
          vs_naive += core::TextTable::pct(red);
          vs_naive += " stall";
          if (r.hbm_oom && red >= 0.25) {
            acceptance_met = true;
            if (red > best_reduction) best_reduction = red;
          }
        }
        const bool oom_row = pol == tier::Policy::kAllHbm && r.hbm_oom;
        t.add_row({std::to_string(seq),
                   std::to_string(hbm / kGiB) + " GiB",
                   std::string(tier::to_string(pol)),
                   r.hbm_oom ? "OOM" : "fits",
                   oom_row ? "n/a" : core::TextTable::ms(r.stall_time()),
                   oom_row ? "n/a" : core::TextTable::ms(r.step_total),
                   core::TextTable::mib(
                       static_cast<double>(r.migrated_bytes())),
                   core::TextTable::mib(
                       static_cast<double>(r.sched.occupancy[0].peak)),
                   vs_naive});
      }
    }
  }
  std::fputs(t.to_string().c_str(), stdout);
  if (acceptance_met) {
    std::printf(
        "-> Where all-HBM is OOM, planned tiering cuts stall by up to "
        "%.0f%% vs naive synchronous swapping (>= 25%% target met).\n\n",
        best_reduction * 100.0);
  } else {
    std::puts("-> WARNING: no OOM config reached the 25% stall-reduction "
              "target.\n");
  }

  // Detailed run for the telemetry artifacts: the min_stall policy at the
  // largest sequence length, with the obs registry + span buffer attached.
  // This feeds both BENCH_tier_activation.json (always) and, with --json,
  // the unified Chrome trace.
  model.seq_len = sweep.seq_lens.back();
  offload::ActivationTimelineOptions opts;
  opts.policy = tier::Policy::kMinStall;
  opts.hbm_bytes = 16 * kGiB;
  opts.giant_cache_bytes = 4 * kGiB;
  obs::MetricsRegistry reg;
  obs::TraceBuffer spans;
  opts.metrics = &reg;
  opts.spans = &spans;
  const auto r =
      offload::simulate_activation_step(model, sweep.batch, cal, opts);

  obs::BenchReport report("tier_activation");
  report.set_config("model", "gpt2");
  report.set_config("batch", static_cast<double>(sweep.batch));
  report.set_config("seq_len", static_cast<double>(model.seq_len));
  report.set_config("hbm_gib",
                    static_cast<double>(opts.hbm_bytes) / kGiB);
  report.set_config("policy", std::string(tier::to_string(opts.policy)));
  report.set_headline("best_stall_reduction_pct", best_reduction * 100.0);
  report.set_headline("step_total_ms", r.step_total * 1e3);
  report.set_headline("stall_ms", r.stall_time() * 1e3);
  report.set_headline("migrated_mib",
                      static_cast<double>(r.migrated_bytes()) / (1 << 20));
  report.attach_registry(&reg);
  const std::string written = report.write();
  if (!written.empty()) {
    std::printf("Bench report written to %s\n", written.c_str());
  }

  if (!json_path.empty()) {
    const auto g = core::activation_gantt(r, opts.hbm_bytes,
                                          opts.giant_cache_bytes);
    std::vector<core::CounterSeries> counters;
    for (std::size_t i = 0; i < tier::kTierCount; ++i) {
      counters.push_back(
          {std::string(tier::to_string(static_cast<tier::Tier>(i))) +
               " bytes",
           r.sched.occupancy[i].points});
    }
    // One trace, two span buffers: the Gantt lanes (process 1) with the
    // tier occupancy counter tracks, plus the obs spans (process 2).
    core::ChromeTraceComposer composer;
    composer.add_spans(g, "teco tier_activation", /*pid=*/1);
    composer.add_counters(counters, /*pid=*/1);
    composer.add_spans(spans, "teco obs spans", /*pid=*/2);
    if (composer.write(json_path)) {
      std::printf("Chrome trace written to %s (load in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "ERROR: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
