// Section IV-A2 motivation: invalidation-based CXL (on-demand transfer)
// vs. the update-protocol extension.
//
// Paper: on-demand data transfer increases training time by 56.6% on
// average, up to 99.7% for T5-large (737M parameters).
#include <cstdio>

#include "core/report.hpp"
#include "dl/model_zoo.hpp"
#include "offload/runtime.hpp"

int main() {
  using namespace teco;
  const auto& cal = offload::default_calibration();

  core::TextTable t(
      "Invalidation-MESI vs update-protocol CXL: training-time increase of "
      "on-demand transfers, per model and batch size");
  t.set_header({"Model", "b=4", "b=8", "b=16"});
  double sum = 0.0, worst = 0.0;
  int n = 0;
  for (const auto& m : dl::table3_models()) {
    std::vector<std::string> row = {m.name};
    for (const std::uint32_t b : {4u, 8u, 16u}) {
      if (m.full_graph_only && b != 4u) {
        row.emplace_back("-");
        continue;
      }
      const auto upd =
          offload::simulate_step(offload::RuntimeKind::kTecoCxl, m, b, cal);
      const auto inv = offload::simulate_step(
          offload::RuntimeKind::kCxlInvalidation, m, b, cal);
      const double inc = inv.total() / upd.total() - 1.0;
      sum += inc;
      worst = inc > worst ? inc : worst;
      ++n;
      std::string cell = "+";
      cell += core::TextTable::pct(inc);
      row.push_back(std::move(cell));
    }
    t.add_row(std::move(row));
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("\nAverage increase over the grid: +%.1f%% (paper: +56.6%%); "
              "worst: +%.1f%% (paper: up to +99.7%%, T5-large).\n",
              100 * sum / n, 100 * worst);
  return 0;
}
