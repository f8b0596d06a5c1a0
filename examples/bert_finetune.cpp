// Fine-tuning a large transformer with tensor offloading: what does a
// training step cost under each runtime?
//
// Usage: ./bert_finetune [model-name] [batch] [--json trace.json]
//   model-name: GPT2 | Albert-xxlarge-v1 | Bert-large-cased | T5-large |
//               GCNII | GPT2-Medium | GPT2-Large | GPT2-11B
//   default: Bert-large-cased, batch 4 (the paper's motivation setup).
//   --json additionally exports the two step timelines as Chrome
//   trace_event JSON (chrome://tracing, ui.perfetto.dev).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/teco.hpp"
#include "core/trace_export.hpp"

int main(int argc, char** argv) {
  using namespace teco;
  std::vector<std::string> pos;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  const std::string name = !pos.empty() ? pos[0] : "Bert-large-cased";
  const auto batch =
      pos.size() > 1 ? static_cast<std::uint32_t>(std::atoi(pos[1].c_str()))
                     : 4u;

  dl::ModelConfig model;
  try {
    model = dl::model_by_name(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
    return 1;
  }
  const auto& cal = offload::default_calibration();
  if (!offload::fits_on_gpu(model, batch)) {
    std::printf("%s at batch %u does not fit in 32 GB GPU memory under "
                "ZeRO-Offload (the paper's N/A cells).\n", name.c_str(),
                batch);
    return 0;
  }

  std::printf("%s: %.0fM parameters, %u layers, hidden %u, giant cache "
              "%.0f MiB, batch %u\n\n",
              model.name.c_str(), model.n_params / 1e6, model.n_layers,
              model.hidden_size, model.giant_cache_bytes / (1024.0 * 1024.0),
              batch);

  core::TextTable t("Per-step cost by runtime");
  t.set_header({"Runtime", "fwd+bwd", "grad xfer", "CPU clip", "CPU Adam",
                "param xfer", "step total", "comm share", "speedup"});
  const auto base = offload::simulate_step(offload::RuntimeKind::kZeroOffload,
                                           model, batch, cal);
  for (const auto kind :
       {offload::RuntimeKind::kZeroOffload, offload::RuntimeKind::kZeroOffloadDpu,
        offload::RuntimeKind::kCxlInvalidation, offload::RuntimeKind::kTecoCxl,
        offload::RuntimeKind::kTecoReduction}) {
    const auto s = offload::simulate_step(kind, model, batch, cal);
    t.add_row({std::string(offload::to_string(kind)),
               core::TextTable::ms(s.forward_backward),
               core::TextTable::ms(s.grad_transfer_exposed),
               core::TextTable::ms(s.grad_optimizer),
               core::TextTable::ms(s.param_optimizer),
               core::TextTable::ms(s.param_transfer_exposed),
               core::TextTable::ms(s.total()),
               core::TextTable::pct(s.comm_fraction()),
               core::TextTable::fmt(base.total() / s.total()) + "x"});
  }
  std::fputs(t.to_string().c_str(), stdout);

  // Visualize the overlap structure of the two extremes.
  core::ChromeTraceComposer composer;
  int pid = 0;
  for (const auto kind : {offload::RuntimeKind::kZeroOffload,
                          offload::RuntimeKind::kTecoReduction}) {
    std::printf("\nTimeline (%s):\n",
                std::string(offload::to_string(kind)).c_str());
    const auto g = core::step_gantt(kind, model, batch, cal);
    std::fputs(core::render_gantt(g).c_str(), stdout);
    // Both runtimes share one trace, one viewer "process" each.
    composer.add_spans(
        g, model.name + " / " + std::string(offload::to_string(kind)), ++pid);
  }
  if (!json_path.empty()) {
    if (composer.write(json_path)) {
      std::printf("\nChrome trace written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "ERROR: cannot write %s\n", json_path.c_str());
    }
  }

  const auto vol = offload::volume_report(offload::RuntimeKind::kTecoReduction,
                                          model, batch, cal);
  std::printf("\nPer-step wire volume: params %.0f -> %.0f MiB "
              "(DBA cuts %.0f%%), gradients %.0f MiB.\n",
              vol.base_to_device / (1024.0 * 1024.0),
              vol.treat_to_device / (1024.0 * 1024.0),
              100 * vol.param_volume_reduction,
              vol.treat_to_cpu / (1024.0 * 1024.0));
  std::printf("Exposed communication cut by TECO-Reduction: %.1f%%.\n",
              100 * vol.comm_overhead_reduction);
  return 0;
}
