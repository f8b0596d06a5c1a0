#include "core/session.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "core/report.hpp"
#include "core/trace_export.hpp"

namespace teco::core {

namespace {

std::uint64_t round_up_lines(std::uint64_t bytes) {
  return (bytes + mem::kLineBytes - 1) / mem::kLineBytes * mem::kLineBytes;
}

/// The obs_step_log sink: one TextTable of per-step deltas on stdout.
class StepLogSink final : public obs::StepSink {
 public:
  void on_step(const obs::StepSnapshot& snap) override {
    std::cout << step_snapshot_table(snap) << "\n";
  }
};

}  // namespace

std::string_view to_string(FtMode m) {
  switch (m) {
    case FtMode::kOff: return "off";
    case FtMode::kFull: return "full";
    case FtMode::kIncremental: return "incremental";
  }
  __builtin_unreachable();
}

tier::PlannerConfig tier_planner_config(const SessionConfig& cfg) {
  tier::PlannerConfig p;
  p.policy = cfg.tier_policy;
  p.hbm_bytes = cfg.tier_hbm_bytes;
  p.giant_cache_bytes = cfg.giant_cache_capacity;
  p.prefetch_depth = cfg.tier_prefetch_depth;
  return p;
}

serve::ServeConfig serve_config(const SessionConfig& cfg) {
  serve::ServeConfig s;
  s.arrival = cfg.serve_arrival;
  s.rate_rps = cfg.serve_rate;
  s.slo_ttft = sim::ms(cfg.serve_slo_ms);
  s.max_sessions = cfg.serve_sessions;
  // The KV tier shares the session's tiering knobs: one config file
  // describes both the training and the serving timeline.
  s.policy = cfg.tier_policy;
  s.prefetch_depth = cfg.tier_prefetch_depth;
  s.hbm_kv_bytes = cfg.tier_hbm_bytes;
  return s;
}

fabric::FabricConfig fabric_config(const SessionConfig& cfg) {
  fabric::FabricConfig f;
  f.nodes = cfg.fabric_nodes;
  f.pool_bytes = cfg.fabric_pool_bytes;
  f.port_gbps = cfg.fabric_port_gbps;
  f.reduce = cfg.fabric_reduce;
  // Node links, DBA posture, and checking ride the session's knobs so one
  // config file describes the single-node and the pooled timeline.
  f.node_phy = cfg.phy;
  f.dba_enabled = cfg.dba_enabled;
  f.dirty_bytes = cfg.dirty_bytes;
  f.check = cfg.check != check::CheckLevel::kOff;
  return f;
}

Session::Session(SessionConfig cfg)
    : cfg_(cfg),
      link_(std::make_unique<cxl::Link>(cfg.phy)),
      gc_(std::make_unique<coherence::GiantCache>(cfg.giant_cache_capacity)),
      cpu_cache_(std::make_unique<mem::Cache>(mem::llc_config())) {
  if (cfg_.mc_bit_error_rate > 0.0) {
    cxl::RetryModel retry;
    retry.bit_error_rate = cfg_.mc_bit_error_rate;
    link_->enable_retry(retry, cfg_.ft_seed);
  }
  coherence::HomeAgent::Options opts;
  opts.protocol = cfg_.protocol;
  opts.dba = dba::DbaRegister(false, cfg_.dirty_bytes);
  opts.cpu_mem = &cpu_mem_;
  opts.device_mem = &device_mem_;
  opts.trace = cfg_.enable_trace ? &spans_ : nullptr;
  agent_ = std::make_unique<coherence::HomeAgent>(*link_, *gc_, *cpu_cache_,
                                                  opts);
  if (cfg_.check != check::CheckLevel::kOff) {
    check::ProtocolChecker::Options copts;
    copts.level = cfg_.check;
    copts.cpu_mem = &cpu_mem_;
    copts.device_mem = &device_mem_;
    checker_ = std::make_unique<check::ProtocolChecker>(*agent_, copts);
    observers_.add(checker_.get());
  }
  if (cfg_.check_hb) {
    hb_recorder_ = std::make_unique<mc::HbRecorder>();
    observers_.add(hb_recorder_.get());
  }
  rewire_observers();
  setup_telemetry();
}

Session::~Session() {
  if (hb_recorder_ != nullptr) {
    // Best-effort teardown lint: surface any recorded race on stderr so a
    // `check = hb` run cannot end silently racy. Must not throw here.
    try {
      const mc::HbReport report = analyze_hb();
      if (!report.clean()) {
        std::cerr << "[teco.hb] " << report.to_string() << "\n";
      }
    } catch (...) {
    }
  }
  if (cfg_.obs_trace_path.empty()) return;
  // Best-effort flush from a destructor: a failed write must not throw.
  ChromeTraceComposer c;
  c.add_spans(spans_, "teco.session", /*pid=*/1);
  if (causal_ != nullptr && !step_attr_.segments.empty()) {
    c.add_critical_path(step_attr_, "teco.critpath", /*pid=*/3);
  }
  if (!c.write(cfg_.obs_trace_path)) {
    std::cerr << "[teco.obs] cannot write trace to " << cfg_.obs_trace_path
              << "\n";
  }
}

mc::HbReport Session::analyze_hb() const {
  if (hb_recorder_ == nullptr) {
    throw std::logic_error(
        "Session::analyze_hb: enable check_hb (config `check = hb`) first");
  }
  return mc::analyze_hb(hb_recorder_->events());
}

void Session::setup_telemetry() {
  agent_->set_metrics(&metrics_);
  m_step_total_ = &metrics_.counter("step.total_us");
  m_step_overlap_ = &metrics_.counter("step.overlap_us");
  m_step_fence_ = &metrics_.counter("step.fence_drain_us");
  spans_.set_max_spans(cfg_.obs_trace_max_spans);
  m_dropped_spans_ = &metrics_.counter("obs.trace.dropped_spans");
#ifndef TECO_OBS_DISABLED
  if (cfg_.obs_causal) {
    causal_ =
        std::make_unique<obs::causal::CausalGraph>(cfg_.obs_causal_max_nodes);
    for (std::size_t i = 0; i < obs::causal::kNumCategories; ++i) {
      m_critpath_[i] = &metrics_.counter(
          std::string("obs.critpath.") +
          obs::causal::metric_suffix(static_cast<obs::causal::Category>(i)));
    }
  }
#endif
  if (!cfg_.obs_jsonl_path.empty()) {
    jsonl_stream_ = std::make_unique<std::ofstream>(cfg_.obs_jsonl_path);
    if (!*jsonl_stream_) {
      throw std::runtime_error("Session: cannot open obs_jsonl_path '" +
                               cfg_.obs_jsonl_path + "'");
    }
    jsonl_sink_ = std::make_unique<obs::JsonlWriter>(*jsonl_stream_);
    publisher_.add_sink(jsonl_sink_.get());
  }
  if (cfg_.obs_step_log) {
    step_log_sink_ = std::make_unique<StepLogSink>();
    publisher_.add_sink(step_log_sink_.get());
  }
}

void Session::causal_note(obs::causal::Category cat, sim::Time from) {
  if (causal_ == nullptr || now_ <= from) return;
  causal_last_ = causal_->add(cat, now_, causal_last_, from);
}

sim::Time Session::fence(const char* label) {
  const sim::Time t0 = now_;
  now_ = agent_->cxl_fence(now_);
  if (now_ > t0) {
    m_step_fence_->add((now_ - t0) * 1e6);
    step_fence_us_ += (now_ - t0) * 1e6;
    spans_.emit("fence", label, t0, now_);
    if (causal_ != nullptr) {
      // Attribute the drained window to the binding (later-draining)
      // channel's occupancy — the critical path through a CXLFENCE is the
      // slowest queued transfer, not "the fence" in the abstract; only the
      // residual (message-forwarder tail) stays fence_drain.
      const sim::Time up =
          link_->channel(cxl::Direction::kDeviceToCpu).drain_time();
      const sim::Time down =
          link_->channel(cxl::Direction::kCpuToDevice).drain_time();
      const sim::Time dom = std::clamp(std::max(up, down), t0, now_);
      if (dom > t0) {
        causal_last_ = causal_->add(up >= down
                                        ? obs::causal::Category::kCxlUp
                                        : obs::causal::Category::kCxlDown,
                                    dom, causal_last_, t0);
      }
      causal_note(obs::causal::Category::kFenceDrain, dom);
    }
  }
  return now_;
}

mem::Addr Session::allocate_region(const std::string& name,
                                   std::uint64_t bytes, bool dba_eligible) {
  if (bytes == 0) {
    throw std::invalid_argument("Session: zero-byte allocation for region '" +
                                name + "'");
  }
  if (bytes > cfg_.addr_space_bytes - mem::kLineBytes) {
    throw std::length_error("Session: allocation of region '" + name +
                            "' exceeds the address space");
  }
  const std::uint64_t sz = round_up_lines(bytes);
  if (!mem::line_aligned(next_alloc_)) {
    // The bump pointer only ever advances by whole lines; a misaligned
    // pointer means internal state corruption, not a bad request.
    throw std::logic_error("Session: bump allocator lost line alignment");
  }
  if (next_alloc_ >= cfg_.addr_space_bytes ||
      sz > cfg_.addr_space_bytes - next_alloc_) {
    throw std::runtime_error(
        "Session: address space exhausted allocating region '" + name + "' (" +
        std::to_string(sz) + " bytes requested)");
  }
  const mem::Addr base = next_alloc_;
  gc_->map_region(name, base, sz, coherence::MesiState::kExclusive,
                  dba_eligible);
  next_alloc_ += sz;
  return base;
}

mem::Addr Session::allocate_parameters(const std::string& name,
                                       std::uint64_t bytes) {
  return allocate_region(name, bytes, /*dba_eligible=*/true);
}

mem::Addr Session::allocate_gradients(const std::string& name,
                                      std::uint64_t bytes) {
  return allocate_region(name, bytes, /*dba_eligible=*/false);
}

void Session::device_write_gradients(mem::Addr base,
                                     std::span<const float> values) {
  // The device writes into its own (giant-cache) memory, then the protocol
  // pushes each touched line home.
  device_mem_.write_f32s(base, values);
  const std::size_t lines = (values.size() * 4 + mem::kLineBytes - 1) /
                            mem::kLineBytes;
  for (std::size_t l = 0; l < lines; ++l) {
    agent_->device_write_line(now_, base + l * mem::kLineBytes);
  }
}

sim::Time Session::backward_complete() { return fence("backward"); }

bool Session::check_activation(std::size_t step) {
  if (cfg_.dba_enabled && !dba_active_ && step >= cfg_.act_aft_steps) {
    agent_->set_dba(now_, dba::DbaRegister(true, cfg_.dirty_bytes));
    dba_active_ = true;
  }
  return dba_active_;
}

void Session::cpu_write_parameters(mem::Addr base,
                                   std::span<const float> values) {
  cpu_mem_.write_f32s(base, values);
  const std::size_t lines = (values.size() * 4 + mem::kLineBytes - 1) /
                            mem::kLineBytes;
  for (std::size_t l = 0; l < lines; ++l) {
    agent_->cpu_write_line(now_, base + l * mem::kLineBytes);
  }
}

sim::Time Session::optimizer_step_complete() {
  fence("optimizer");
  agent_->cpu_flush_all(now_);

  if (causal_ != nullptr) {
    // Extract this step's critical path (hard conservation check inside)
    // and charge the category split to the obs.critpath.* counters.
    step_attr_ = obs::causal::critical_path(*causal_, step_begin_, now_,
                                            causal_last_);
    for (std::size_t i = 0; i < obs::causal::kNumCategories; ++i) {
      if (step_attr_.by_category[i] > 0.0) {
        m_critpath_[i]->add(step_attr_.by_category[i] * 1e6);
      }
    }
  }
  // Close the step: wall time, link busy time spent under compute (overlap)
  // versus behind a fence (already charged by fence()), one span, and a
  // snapshot for whoever is listening.
  const sim::Time busy =
      link_->channel(cxl::Direction::kCpuToDevice).stats().busy_time +
      link_->channel(cxl::Direction::kDeviceToCpu).stats().busy_time;
  const double busy_us = (busy - step_busy_base_) * 1e6;
  m_step_total_->add((now_ - step_begin_) * 1e6);
  m_step_overlap_->add(std::max(0.0, busy_us - step_fence_us_));
  spans_.emit("step", "step " + std::to_string(step_index_), step_begin_,
              now_);
  // After the step span: a drop of the span that closes the step must be
  // visible in this step's counter delta, not the next one's.
  m_dropped_spans_->add(
      static_cast<double>(spans_.dropped() - dropped_spans_base_));
  dropped_spans_base_ = spans_.dropped();
  if (publisher_.has_sinks()) {
    publisher_.publish(metrics_, step_index_, step_begin_, now_);
  }
  ++step_index_;
  step_begin_ = now_;
  step_busy_base_ = busy;
  step_fence_us_ = 0.0;
  return now_;
}

std::vector<float> Session::device_read_parameters(mem::Addr base,
                                                   std::size_t count) {
  const sim::Time t0 = now_;
  const std::size_t lines =
      (count * 4 + mem::kLineBytes - 1) / mem::kLineBytes;
  for (std::size_t l = 0; l < lines; ++l) {
    const auto a = agent_->device_read_line(now_, base + l * mem::kLineBytes);
    if (a.ready > now_) now_ = a.ready;
  }
  causal_note(obs::causal::Category::kDemandFetch, t0);
  std::vector<float> out(count);
  device_mem_.read_f32s(base, out);
  return out;
}

sim::Time Session::advance(sim::Time dt) {
  const sim::Time t0 = now_;
  if (dt > 0.0) now_ += dt;
  causal_note(obs::causal::Category::kCompute, t0);
  return now_;
}

void Session::rewire_observers() {
  agent_->set_observer(observers_.empty() ? nullptr : &observers_);
}

void Session::add_observer(check::Observer* obs) {
  observers_.add(obs);
  rewire_observers();
}

void Session::remove_observer(check::Observer* obs) {
  observers_.remove(obs);
  rewire_observers();
}

void Session::set_link_fault_hook(cxl::LinkFaultHook* hook) {
  link_->set_fault_hook(hook);
}

sim::Time Session::scrub_device_line(mem::Addr line) {
  const bool dba_was = dba_active_;
  const sim::Time t0 = now_;
  if (dba_was) {
    agent_->set_dba(now_, dba::DbaRegister(false, cfg_.dirty_bytes));
  }
  agent_->cpu_write_line(now_, line);
  now_ = agent_->cxl_fence(now_);
  causal_note(obs::causal::Category::kFenceDrain, t0);
  if (dba_was) {
    agent_->set_dba(now_, dba::DbaRegister(true, cfg_.dirty_bytes));
  }
  return now_;
}

void Session::seed_device_memory(mem::Addr base,
                                 std::span<const float> values) {
  device_mem_.write_f32s(base, values);
}

void Session::seed_cpu_memory(mem::Addr base, std::span<const float> values) {
  cpu_mem_.write_f32s(base, values);
}

std::vector<float> Session::cpu_read_gradients(mem::Addr base,
                                               std::size_t count) {
  const sim::Time t0 = now_;
  const std::size_t lines =
      (count * 4 + mem::kLineBytes - 1) / mem::kLineBytes;
  for (std::size_t l = 0; l < lines; ++l) {
    const auto a = agent_->cpu_read_line(now_, base + l * mem::kLineBytes);
    if (a.ready > now_) now_ = a.ready;
  }
  causal_note(obs::causal::Category::kDemandFetch, t0);
  std::vector<float> out(count);
  cpu_mem_.read_f32s(base, out);
  return out;
}

}  // namespace teco::core
