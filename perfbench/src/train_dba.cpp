// train_dba: the Listing-1 coherent fine-tuning loop.
//
// A real dl::TinyTransformer trains through core::Session hooks: the
// device reads its (possibly DBA-spliced) parameter copy, runs forward and
// backward, writes gradients through the update protocol, and the CPU runs
// Adam on the exact master copy and writes parameters back. DBA activates
// at about 5% of the run, the paper's 500-of-9870 ratio; the seed draws the
// exact step. A seeding push of the initial parameters is part of set-up.
#include <array>
#include <variant>

#include "core/session.hpp"
#include "dba/disaggregator.hpp"
#include "dl/adam.hpp"
#include "dl/attention.hpp"
#include "dl/dba_training.hpp"
#include "perfbench.hpp"
#include "recorders.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using namespace teco;

constexpr std::size_t kSteps = 1000;  ///< Timed steps per pass.
constexpr std::size_t kBatch = 16;
constexpr std::uint8_t kDirtyBytes = 2;

struct Inputs {
  dl::Task task;
  dl::TransformerConfig model;
  std::vector<dl::Batch> batches;
  std::size_t act_step = 0;
  std::uint64_t digest = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in{dl::make_regression_task(sub_seed(seed, 0)), {}, {}, 0, 0};
  in.model = dl::default_transformer_for(in.task, sub_seed(seed, 1));
  sim::Rng data(sub_seed(seed, 2));
  in.batches.reserve(kSteps);
  Digest d;
  for (std::size_t s = 0; s < kSteps; ++s) {
    in.batches.push_back(std::visit(
        [&](const auto& t) { return t.sample(kBatch, data); }, in.task));
    const dl::Batch& b = in.batches.back();
    d.add(b.inputs.data(), b.inputs.size() * sizeof(float));
    d.add(b.targets.data(), b.targets.size() * sizeof(float));
  }
  // 5% of the run, +-1% drawn from the seed.
  sim::Rng act(sub_seed(seed, 3));
  in.act_step = kSteps / 25 + act.next_below(kSteps / 50 + 1);
  d.add(&in.act_step, sizeof in.act_step);
  d.add(&in.model.seed, sizeof in.model.seed);
  in.digest = d.value();
  return in;
}

/// Matmul FLOPs of one forward+backward over a batch (backward counted as
/// twice the forward, the usual estimate).
double flops_per_step(const dl::TransformerConfig& c) {
  const double bt = static_cast<double>(kBatch * c.seq_len);
  const double d = static_cast<double>(c.d_model);
  const double f = static_cast<double>(c.d_ff);
  const double t = static_cast<double>(c.seq_len);
  const double fwd = 2.0 * bt * d * d * 4.0      // Q, K, V, O projections
                     + 2.0 * 2.0 * bt * t * d    // scores and P.V
                     + 2.0 * 2.0 * bt * d * f    // feed-forward
                     + 2.0 * static_cast<double>(kBatch) * d *
                           static_cast<double>(c.out_dim);  // readout
  return 3.0 * fwd;
}

/// Host-time accumulators for the layers a step calls into.
enum Layer : std::size_t {
  kReadParams,
  kForward,
  kBackward,
  kWriteGrads,
  kReadGrads,
  kAdam,
  kWriteParams,
  kFence,
  kNumLayers,
};

struct Spans {
  bool on = false;
  std::array<double, kNumLayers> total{};
  Clock::time_point t;
  void begin() {
    if (on) t = Clock::now();
  }
  void end(Layer l) {
    if (on) total[l] += seconds_since(t);
  }
};

}  // namespace

PassResult run_train_dba(std::uint64_t seed, bool traced) {
  PassResult out;
  const auto setup0 = Clock::now();
  const Inputs in = make_inputs(seed);
  out.input_digest = in.digest;

  dl::TinyTransformer model(in.model);
  const std::size_t n = model.n_params();
  dl::Adam adam(n);
  std::vector<float> master(model.params().begin(), model.params().end());

  core::SessionConfig cfg;
  cfg.protocol = coherence::Protocol::kUpdate;
  cfg.dba_enabled = true;
  cfg.act_aft_steps = in.act_step;
  cfg.dirty_bytes = kDirtyBytes;
  cfg.check = check::CheckLevel::kStrict;
  cfg.obs_causal = traced;
  core::Session session(cfg);
  DomainRecorder domain;
  SendRecorder sends;
  if (traced) {
    session.add_observer(&domain);
    session.set_link_fault_hook(&sends);
  }
  const mem::Addr params = session.allocate_parameters("model.params", n * 4);
  const mem::Addr grads = session.allocate_gradients("model.grads", n * 4);
  // Seeding step: the initial parameters reach the giant cache at full
  // precision.
  session.cpu_write_parameters(params, master);
  session.optimizer_step_complete();
  out.setup_s = seconds_since(setup0);

  const auto reg0 = registry_values(session.metrics());
  const auto stats0 = session.stats();
  const std::uint64_t events0 = domain.events();
  const sim::Time sim0 = session.now();
  const auto& down = session.link().channel(cxl::Direction::kCpuToDevice);
  const auto& up = session.link().channel(cxl::Direction::kDeviceToCpu);
  const cxl::ChannelStats down0 = down.stats();
  const cxl::ChannelStats up0 = up.stats();

  Spans spans;
  spans.on = traced;
  std::vector<float> expected = master;
  std::vector<float> dev;
  std::vector<float> g;
  out.unit_s.reserve(kSteps);
  const auto check_device = [&](const std::vector<float>& copy) {
    for (std::size_t i = 0; i < n; ++i) {
      if (copy[i] != expected[i]) return false;
    }
    return true;
  };
  try {
    for (std::size_t step = 0; step < kSteps; ++step) {
      const dl::Batch& batch = in.batches[step];
      auto t0 = Clock::now();
      spans.begin();
      dev = session.device_read_parameters(params, n);
      spans.end(kReadParams);
      double unit = seconds_since(t0);
      // Oracle for the previous step, outside the timed window: the device
      // copy is the DBA splice of the master onto the previous copy.
      if (!check_device(dev)) ++out.failed;
      t0 = Clock::now();
      spans.begin();
      model.load_params(dev);
      model.forward(batch.inputs);
      spans.end(kForward);
      spans.begin();
      model.backward(batch.targets);
      spans.end(kBackward);
      spans.begin();
      session.device_write_gradients(grads, model.grads());
      spans.end(kWriteGrads);
      spans.begin();
      session.backward_complete();
      spans.end(kFence);
      spans.begin();
      g = session.cpu_read_gradients(grads, n);
      spans.end(kReadGrads);
      spans.begin();
      adam.clip_gradients(g);
      adam.step(master, g);
      spans.end(kAdam);
      spans.begin();
      const bool dba_on = session.check_activation(step);
      session.cpu_write_parameters(params, master);
      spans.end(kWriteParams);
      spans.begin();
      session.optimizer_step_complete();
      spans.end(kFence);
      unit += seconds_since(t0);
      out.unit_s.push_back(unit);
      out.run_s += unit;
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = dba_on ? dba::splice_f32(dev[i], master[i], kDirtyBytes)
                             : master[i];
      }
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("train_dba: ") + e.what());
    out.failed += kSteps - out.unit_s.size();
  }
  out.units = kSteps;
  // The last step's device copy, read outside the timed steps.
  if (out.errors.empty() &&
      !check_device(session.device_read_parameters(params, n))) {
    ++out.failed;
  }
  const double steps = static_cast<double>(kSteps);
  const sim::Time sim_s = session.now() - sim0;
  const double wire = static_cast<double>(
      down.stats().wire_bytes - down0.wire_bytes + up.stats().wire_bytes -
      up0.wire_bytes);
  out.modeled["sim_step_us"] = {sim_s * 1e6 / steps, "us"};
  out.modeled["sim_link_mib_per_step"] = {wire / kMiB / steps, "MiB"};
  const auto& st = session.stats();
  out.fingerprint = metrics_fingerprint(out.modeled) +
                    registry_fingerprint(session.metrics()) +
                    "pushes=" + std::to_string(st.update_pushes) +
                    ";trimmed=" + std::to_string(st.dba_trimmed_lines) +
                    ";demand=" + std::to_string(st.demand_fetches) + ';';
  if (!traced) return out;

  // --- Per-layer metrics -----------------------------------------------------
  auto& L = out.layers;
  const auto reg1 = registry_values(session.metrics());
  const auto delta = [&](const std::string& name) {
    return value_or_zero(reg1, name) - value_or_zero(reg0, name);
  };
  const auto per_step_us = [&](Layer l) {
    return Metric{spans.total[l] * 1e6 / steps, "us", true};
  };
  L["dl.forward_us"] = per_step_us(kForward);
  L["dl.backward_us"] = per_step_us(kBackward);
  L["dl.adam_us"] = per_step_us(kAdam);
  L["dl.flops_per_step"] = {flops_per_step(in.model), "count"};
  L["core.read_params_us"] = per_step_us(kReadParams);
  L["core.write_grads_us"] = per_step_us(kWriteGrads);
  L["core.read_grads_us"] = per_step_us(kReadGrads);
  L["core.write_params_us"] = per_step_us(kWriteParams);
  L["core.fence_us"] = per_step_us(kFence);
  double spanned = 0.0;
  for (const double t : spans.total) spanned += t;
  L["step.host_us"] = {out.run_s * 1e6 / steps, "us", true};
  L["step.span_cover_pct"] = {100.0 * spanned / out.run_s, "%", true};

  L["coherence.update_pushes"] = {
      static_cast<double>(st.update_pushes - stats0.update_pushes) / steps,
      "count"};
  L["coherence.demand_fetches"] = {
      static_cast<double>(st.demand_fetches - stats0.demand_fetches) / steps,
      "count"};
  L["coherence.snoops"] = {
      static_cast<double>(st.invalidations - stats0.invalidations) / steps,
      "count"};
  L["coherence.m2s.msgs"] = {delta("coherence.m2s.msgs") / steps, "count"};
  L["coherence.s2m.msgs"] = {delta("coherence.s2m.msgs") / steps, "count"};
  L["coherence.fence_drain_us"] = {delta("step.fence_drain_us") / steps, "us"};
  L["check.events"] = {static_cast<double>(domain.events() - events0) / steps,
                       "count"};
  L["check.violations"] = {
      static_cast<double>(session.checker()->stats().total_violations()),
      "count"};

  const double trimmed =
      static_cast<double>(st.dba_trimmed_lines - stats0.dba_trimmed_lines);
  L["dba.trimmed_lines"] = {trimmed / steps, "count"};
  // Bytes saved over the full-line bytes of every parameter push.
  const double full = delta("coherence.m2s.flushdata") * 64.0;
  L["dba.saved_pct"] = {full > 0.0 ? 100.0 * delta("dba.bytes_saved") / full
                                   : 0.0,
                        "%"};
  const DbaReplay dr = replay_dba(domain);
  L["dba.pack_ns"] = {dr.pack_ns, "ns", true};
  L["dba.merge_ns"] = {dr.merge_ns, "ns", true};
  if (!dr.matches) out.errors.push_back("train_dba: DBA replay diverged");

  const auto dir = [&](const char* name, const cxl::Channel& ch,
                       const cxl::ChannelStats& s0) {
    const auto& s = ch.stats();
    const std::string p = std::string("cxl.") + name + '.';
    L[p + "packets"] = {static_cast<double>(s.packets - s0.packets) / steps,
                        "count"};
    L[p + "mib"] = {static_cast<double>(s.wire_bytes - s0.wire_bytes) / kMiB /
                        steps,
                    "MiB"};
    L[p + "busy_pct"] = {100.0 * (s.busy_time - s0.busy_time) / sim_s, "%"};
  };
  dir("down", down, down0);
  dir("up", up, up0);
  L["cxl.retries"] = {delta("cxl.down.retries") + delta("cxl.up.retries"),
                      "count"};
  const ChannelReplay cr = replay_channel(sends.sends(), session.link(), false);
  L["cxl.submit_ns"] = {cr.host_s * 1e9 / static_cast<double>(cr.calls), "ns",
                        true};
  if (!cr.matches) out.errors.push_back("train_dba: channel replay diverged");

  std::vector<double> cats(obs::causal::kNumCategories, 0.0);
  for (std::size_t i = 0; i < cats.size(); ++i) {
    cats[i] = delta(std::string("obs.critpath.") +
                    obs::causal::metric_suffix(
                        static_cast<obs::causal::Category>(i)));
  }
  using obs::causal::Category;
  add_critpath_shares(L, cats,
                      {Category::kCxlUp, Category::kCxlDown,
                       Category::kFenceDrain, Category::kDemandFetch});
  return out;
}

}  // namespace perfbench
