// The user-facing TECO session (Section VI, Listing 1).
//
// A Session owns one CXL coherent domain: the link, the giant cache, the
// CPU cache model, backing stores for both memories, and the home agent.
// Its hooks mirror the two-line integration of Listing 1:
//
//   teco::core::Session session(cfg);
//   auto params = session.allocate_parameters("model", bytes);
//   for (step = 0; step < N; ++step) {
//     session.device_write_gradients(grads, values);  // inside backward
//     session.backward_complete();                    // CXLFENCE()
//     session.check_activation(step);                 // the Listing-1 call
//     session.cpu_write_parameters(params, updated);  // optimizer.step()
//     session.optimizer_step_complete();              // CXLFENCE() + flush
//   }
//
// Real bytes move through the Aggregator/Disaggregator, so what
// device_read_parameters() returns includes DBA's low-byte splice — the
// same approximation the numeric experiments measure.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/protocol_checker.hpp"
#include "coherence/giant_cache.hpp"
#include "fabric/fabric.hpp"
#include "coherence/home_agent.hpp"
#include "cxl/link.hpp"
#include "mc/hb_analyzer.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "serve/serve.hpp"
#include "tier/placement_planner.hpp"

namespace teco::core {

/// Fault-tolerance checkpointing mode. The machinery lives in teco::ft
/// (src/ft/); the core config carries the knobs so the AI-model config
/// parser can round-trip them (ft_mode / ft_checkpoint_interval / ft_seed).
enum class FtMode : std::uint8_t {
  kOff,          ///< No checkpointing; a crash loses the run.
  kFull,         ///< Synchronous full-state snapshots every interval.
  kIncremental,  ///< Dirty-line snapshots riding the update-protocol stream.
};

std::string_view to_string(FtMode m);

struct SessionConfig {
  coherence::Protocol protocol = coherence::Protocol::kUpdate;
  bool dba_enabled = true;
  std::size_t act_aft_steps = 500;  ///< Default per Section V-A.
  std::uint8_t dirty_bytes = 2;
  std::uint64_t giant_cache_capacity = 4ull << 30;
  cxl::PhyConfig phy{};
  /// Record home-agent protocol events (the Fig. 5 message flow) as
  /// instant spans in spans(), under the obs_trace_max_spans cap.
  bool enable_trace = false;
  /// Coherence invariant checking posture. Strict (throw on violation) by
  /// default: the simulated protocol is supposed to be violation-free, so
  /// any firing is a bug in the model, not the workload. Benchmarks that
  /// cannot afford the byte comparisons can drop to kCount or kOff.
  check::CheckLevel check = check::CheckLevel::kStrict;
  /// Record the coherence-event stream for post-run happens-before race
  /// analysis (config text `check = hb`; implies strict checking). The
  /// recorded trace is analyzed via Session::analyze_hb() and, at session
  /// teardown, any detected race is reported on stderr.
  bool check_hb = false;

  // --- Fault tolerance (teco::ft) ---
  FtMode ft_mode = FtMode::kOff;
  /// Steps between durable checkpoints when ft_mode != kOff.
  std::size_t ft_checkpoint_interval = 100;
  /// Seed for the fault schedule and the Monte-Carlo retry path.
  std::uint64_t ft_seed = 1;
  /// When > 0, replace the analytic retry derate with the executable
  /// Monte-Carlo path: flit CRC corruption is sampled in the channel at
  /// this bit-error rate and corrupted flits are actually retransmitted.
  double mc_bit_error_rate = 0.0;

  /// End of the bump allocator's address space: a 48-bit physical window
  /// by default, as a real host bridge would decode. Exhaustion throws
  /// instead of silently wrapping into already-mapped regions.
  std::uint64_t addr_space_bytes = 1ull << 48;

  // --- Tensor tiering (teco::tier) ---
  /// Placement policy for weights + activations across HBM / giant cache /
  /// CXL DRAM. kAllHbm preserves the pre-tiering behavior (no migrations).
  tier::Policy tier_policy = tier::Policy::kAllHbm;
  /// Accelerator HBM capacity the planner fits into.
  std::uint64_t tier_hbm_bytes = 32ull << 30;
  /// Compute slots of lookahead the migration scheduler may prefetch.
  std::size_t tier_prefetch_depth = 2;

  // --- Inference serving (teco::serve) ---
  /// Arrival-process shape for the serving runtime (poisson/bursty/trace).
  serve::ArrivalKind serve_arrival = serve::ArrivalKind::kPoisson;
  /// Offered load in requests per second.
  double serve_rate = 32.0;
  /// Time-to-first-token SLO in milliseconds (the per-token budget derives
  /// from it; see serve::ServeConfig::effective_slo_tpot).
  double serve_slo_ms = 250.0;
  /// Admission capacity: concurrent sessions beyond this are rejected.
  std::size_t serve_sessions = 1024;

  // --- Pooled fabric (teco::fabric) ---
  /// Data-parallel nodes sharing the pooled-memory switch.
  std::uint32_t fabric_nodes = 2;
  /// DCD-carveable pooled-memory capacity behind the switch.
  std::uint64_t fabric_pool_bytes = 8ull << 20;
  /// Shared pool-port bandwidth per direction, GB/s.
  double fabric_port_gbps = 16.0;
  /// In-pool all-reduce strategy (dba_merge / pool_staging / per_link).
  fabric::ReduceStrategy fabric_reduce = fabric::ReduceStrategy::kDbaMerge;

  // --- Telemetry (teco::obs) ---
  /// When non-empty, one JSONL line of registry deltas per training step.
  std::string obs_jsonl_path;
  /// When non-empty, the unified Chrome/Perfetto trace (step + fence spans,
  /// protocol events when enable_trace is on, and the critical path) is
  /// written here at session teardown.
  std::string obs_trace_path;
  /// Print a per-step TextTable of registry deltas to stdout.
  bool obs_step_log = false;
  /// Record the causal event DAG and per-step critical-path attribution
  /// (`obs.critpath.*` counters, Session::step_attribution()). A no-op
  /// under TECO_OBS=OFF builds.
  bool obs_causal = false;
  /// Causal-DAG node bound; nodes past it are dropped (and counted in
  /// the graph's dropped()), truncating — not corrupting — the path.
  std::size_t obs_causal_max_nodes = obs::causal::CausalGraph::kDefaultMaxNodes;
  /// TraceBuffer span cap; overflow is counted in obs.trace.dropped_spans.
  std::size_t obs_trace_max_spans = obs::TraceBuffer::kDefaultMaxSpans;
};

/// The tier::PlannerConfig a session's knobs describe (the giant-cache
/// share reuses giant_cache_capacity).
tier::PlannerConfig tier_planner_config(const SessionConfig& cfg);

/// The serve::ServeConfig a session's knobs describe: the serve_* keys map
/// directly, and the KV tiering reuses the session's tier_policy /
/// tier_prefetch_depth so one config file drives both timelines.
serve::ServeConfig serve_config(const SessionConfig& cfg);

/// The fabric::FabricConfig a session's knobs describe: the fabric_* keys
/// map directly; the node links reuse the session's PHY, DBA posture, and
/// checking level so one config file drives single-node and pooled runs.
fabric::FabricConfig fabric_config(const SessionConfig& cfg);

class Session {
 public:
  explicit Session(SessionConfig cfg = {});
  /// Flushes telemetry: writes the unified Chrome trace when
  /// obs_trace_path is configured.
  ~Session();

  /// Map a parameter tensor into the giant cache (DBA-eligible). The
  /// device starts with a copy (state E), as before training begins.
  mem::Addr allocate_parameters(const std::string& name, std::uint64_t bytes);
  /// Map a gradient tensor (never DBA-trimmed).
  mem::Addr allocate_gradients(const std::string& name, std::uint64_t bytes);

  // --- Training-step hooks (Listing 1) ---

  /// The accelerator produces gradient values during backward; each
  /// affected cache line rides the update protocol to CPU memory.
  void device_write_gradients(mem::Addr base, std::span<const float> values);

  /// CXLFENCE() at the end of loss.backward().
  sim::Time backward_complete();

  /// check_activation(i): turns DBA on once `step` reaches act_aft_steps.
  /// Returns true if DBA is active for the upcoming parameter transfer.
  bool check_activation(std::size_t step);

  /// The CPU optimizer writes updated parameters; each line is pushed to
  /// the giant cache (trimmed by the Aggregator when DBA is active).
  void cpu_write_parameters(mem::Addr base, std::span<const float> values);

  /// CXLFENCE() + once-per-iteration CPU cache flush at the end of
  /// optimizer.step().
  sim::Time optimizer_step_complete();

  // --- Data access (coherent loads) ---

  /// Accelerator load of parameters. Under the update protocol this hits
  /// the giant cache locally (post-merge contents); under invalidation it
  /// demand-fetches stale lines across the link, advancing now().
  std::vector<float> device_read_parameters(mem::Addr base,
                                            std::size_t count);
  /// CPU load of gradients; symmetric semantics.
  std::vector<float> cpu_read_gradients(mem::Addr base, std::size_t count);

  // --- Fault tolerance / recovery hooks (teco::ft) ---

  /// Advance the session clock by `dt` of non-link work (GPU compute, CPU
  /// optimizer sweeps, checkpoint fences). The ft training harness uses it
  /// so lost-work and restore times land in the same timeline as the
  /// coherence traffic.
  sim::Time advance(sim::Time dt);

  /// Attach an additional observer to the coherent domain (fault injector,
  /// checkpoint dirty-line tracker). The strict ProtocolChecker, when
  /// enabled, stays attached alongside. Observers must outlive the session
  /// or be removed first.
  void add_observer(check::Observer* obs);
  void remove_observer(check::Observer* obs);

  /// Attach a link fault-injection hook (nullptr to detach).
  void set_link_fault_hook(cxl::LinkFaultHook* hook);

  /// Recovery primitives: seed backing-store contents of a mapped region
  /// without generating protocol traffic (restoring a checkpoint image is
  /// a local pmem read, not coherent communication). Alignment follows the
  /// write_f32 layout used by the training hooks.
  void seed_device_memory(mem::Addr base, std::span<const float> values);
  void seed_cpu_memory(mem::Addr base, std::span<const float> values);

  /// Repair a device-side line from the CPU master image with a full-line
  /// coherent push. DBA is bypassed for the scrub — a trimmed payload
  /// cannot fix corrupted high bytes — and restored afterwards, so the
  /// repair stays visible to the protocol checker. Returns the fence time.
  sim::Time scrub_device_line(mem::Addr line);

  /// Direct line read of device memory (poison scrubbing / verification).
  mem::BackingStore::Line read_device_line(mem::Addr line) const {
    return device_mem_.read_line(line);
  }
  /// Overwrite one device-memory line (fault injection: poisoned lines).
  void corrupt_device_line(mem::Addr line, const mem::BackingStore::Line& data) {
    device_mem_.write_line(line, data);
  }

  // --- Introspection ---
  sim::Time now() const { return now_; }
  bool dba_active() const { return dba_active_; }
  const coherence::HomeAgentStats& stats() const { return agent_->stats(); }
  const cxl::Link& link() const { return *link_; }
  const coherence::GiantCache& giant_cache() const { return *gc_; }
  const SessionConfig& config() const { return cfg_; }
  /// The attached invariant checker, or nullptr when check == kOff.
  const check::ProtocolChecker* checker() const { return checker_.get(); }
  /// The happens-before event recorder, or nullptr when check_hb is off.
  const mc::HbRecorder* hb_recorder() const { return hb_recorder_.get(); }
  /// Run the vector-clock happens-before pass over the recorded event
  /// stream (check_hb must be enabled). See docs/MODEL_CHECKING.md.
  mc::HbReport analyze_hb() const;

  /// The session-owned telemetry registry. Every coherent-domain component
  /// records into it; non-const so harnesses (ft trainer, benches) can
  /// register their own instruments alongside.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Step/fence spans (plus protocol events when enable_trace is on) on the
  /// simulated clock, for the unified trace.
  obs::TraceBuffer& spans() { return spans_; }
  const obs::TraceBuffer& spans() const { return spans_; }
  /// End-of-step snapshot fan-out; attach extra sinks before training.
  obs::StepPublisher& step_publisher() { return publisher_; }
  /// Steps completed (optimizer_step_complete() calls).
  std::size_t steps_completed() const { return step_index_; }

  /// The causal event DAG (null unless obs_causal is configured). Non-const
  /// so harnesses can splice their own chains onto the session's.
  obs::causal::CausalGraph* causal() { return causal_.get(); }
  const obs::causal::CausalGraph* causal() const { return causal_.get(); }
  /// Tail node of the session's causal chain (sim::kNoCausalNode before
  /// any tracked time advancement).
  std::uint32_t causal_tail() const { return causal_last_; }
  /// Critical-path attribution of the most recently completed step (empty
  /// segments before the first optimizer_step_complete()).
  const obs::causal::Attribution& step_attribution() const {
    return step_attr_;
  }

 private:
  /// Shared bump-allocator body: validates the request, maps the region.
  mem::Addr allocate_region(const std::string& name, std::uint64_t bytes,
                            bool dba_eligible);
  void rewire_observers();
  void setup_telemetry();
  /// Fence wrapper shared by the two step hooks: advances the clock and
  /// charges step.fence_drain_us / a fence span for the drained window.
  sim::Time fence(const char* label);
  /// Extend the causal chain with a node covering [from, now()]; no-op
  /// when causal tracking is off or the clock did not move.
  void causal_note(obs::causal::Category cat, sim::Time from);

  SessionConfig cfg_;
  std::unique_ptr<cxl::Link> link_;
  std::unique_ptr<coherence::GiantCache> gc_;
  std::unique_ptr<mem::Cache> cpu_cache_;
  mem::BackingStore cpu_mem_;
  mem::BackingStore device_mem_;
  std::unique_ptr<coherence::HomeAgent> agent_;
  /// Declared after agent_ so destruction detaches before the agent dies.
  std::unique_ptr<check::ProtocolChecker> checker_;
  /// Records the HB-relevant event stream when cfg_.check_hb is set;
  /// declared before observers_ so the mux never outlives it.
  std::unique_ptr<mc::HbRecorder> hb_recorder_;
  /// Fan-out for the checker plus any ft observers; wired as the domain's
  /// observer whenever it is non-empty.
  check::ObserverMux observers_;
  mem::Addr next_alloc_ = 0x1000'0000;  ///< Bump allocator, line-aligned.
  sim::Time now_ = 0.0;
  bool dba_active_ = false;

  // --- Telemetry (teco::obs) ---
  obs::MetricsRegistry metrics_;
  obs::TraceBuffer spans_;
  obs::StepPublisher publisher_;
  /// Owned sinks wired from the obs_* config keys (plus any the caller
  /// attaches directly through step_publisher()).
  std::unique_ptr<std::ofstream> jsonl_stream_;
  std::unique_ptr<obs::JsonlWriter> jsonl_sink_;
  std::unique_ptr<obs::StepSink> step_log_sink_;
  obs::Counter* m_step_total_ = nullptr;
  obs::Counter* m_step_overlap_ = nullptr;
  obs::Counter* m_step_fence_ = nullptr;
  obs::Counter* m_dropped_spans_ = nullptr;
  std::uint64_t dropped_spans_base_ = 0;
  /// Causal DAG + chain tail (obs_causal only). Every clock advancement
  /// appends a node, so a step's critical path partitions the step window.
  std::unique_ptr<obs::causal::CausalGraph> causal_;
  std::uint32_t causal_last_ = sim::kNoCausalNode;
  obs::causal::Attribution step_attr_;
  obs::Counter* m_critpath_[obs::causal::kNumCategories] = {};
  std::size_t step_index_ = 0;
  sim::Time step_begin_ = 0.0;
  sim::Time step_busy_base_ = 0.0;   ///< Link busy_time at step start.
  sim::Time step_fence_us_ = 0.0;    ///< Fence drain charged this step.
};

}  // namespace teco::core
