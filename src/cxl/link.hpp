// Full-duplex CXL link: one serial channel per direction plus CXLFENCE.
//
// PCIe (and therefore CXL) is full duplex, so CPU->device parameter pushes
// and device->CPU gradient writebacks never contend with each other; each
// direction carries the PhyConfig CXL bandwidth. CXLFENCE() (Section IV-A2)
// resolves to the drain time of the fenced direction: the earliest instant
// by which every previously submitted coherence packet has been delivered.
#pragma once

#include <cstdint>

#include "check/observer.hpp"
#include "cxl/channel.hpp"
#include "cxl/flit.hpp"
#include "cxl/packet.hpp"
#include "cxl/phy.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace teco::cxl {

enum class Direction : std::uint8_t {
  kCpuToDevice,
  kDeviceToCpu,
};

/// Injection hook consulted before every submission. ft::FaultInjector uses
/// it to model link-down/retrain windows: the returned delay shifts the
/// packet's ready time (the producer is stalled until the link is back up).
/// Return 0 for healthy transmissions.
class LinkFaultHook {
 public:
  virtual ~LinkFaultHook() = default;
  virtual sim::Time transmit_delay(Direction dir, sim::Time t_ready,
                                   const Packet& pkt, std::uint64_t count) = 0;
};

/// Egress forwarder: the switch attach point for pooled-fabric topologies
/// (fabric::CxlSwitch). When attached, every packet that finishes on this
/// link's private wire is handed to the forwarder, which extends the
/// delivery through its next hop (a shared pool port) and returns the
/// end-to-end timing. CXLFENCE() on a forwarded link covers the forwarder's
/// drain too, so fence completeness holds across the whole path. The
/// forwarder must outlive the link or be detached first.
class LinkForwarder {
 public:
  virtual ~LinkForwarder() = default;
  /// `local` is the delivery on this link's private wire; the packet enters
  /// the next hop at local.finished. Returns the extended delivery.
  virtual Delivery forward(Direction dir, const Packet& pkt, std::uint64_t n,
                           const Delivery& local) = 0;
  /// Earliest time everything forwarded so far in `dir` has been delivered.
  virtual sim::Time forward_drain(Direction dir) const = 0;
};

class Link {
 public:
  explicit Link(const PhyConfig& phy = {}, std::size_t queue_capacity = 128)
      : phy_(phy),
        down_("cpu->dev", phy.cxl_bandwidth(), phy.packet_latency,
              queue_capacity),
        up_("dev->cpu", phy.cxl_bandwidth(), phy.packet_latency,
            queue_capacity) {}

  Delivery send(Direction dir, sim::Time t_ready, const Packet& pkt) {
    const std::uint64_t retried0 = channel(dir).stats().retried_flits;
    Delivery d = channel(dir).submit(faulted(dir, t_ready, pkt, 1), pkt);
    if (forwarder_ != nullptr) d = forwarder_->forward(dir, pkt, 1, d);
    record(dir, pkt, 1, channel(dir).stats().retried_flits - retried0);
    notify(dir, t_ready, pkt, 1, d);
    return d;
  }

  Delivery send_stream(Direction dir, sim::Time t_ready, const Packet& pkt,
                       std::uint64_t n) {
    const std::uint64_t retried0 = channel(dir).stats().retried_flits;
    Delivery d =
        channel(dir).submit_stream(faulted(dir, t_ready, pkt, n), pkt, n);
    if (forwarder_ != nullptr) d = forwarder_->forward(dir, pkt, n, d);
    record(dir, pkt, n, channel(dir).stats().retried_flits - retried0);
    notify(dir, t_ready, pkt, n, d);
    return d;
  }

  /// CXLFENCE(): completion time of all in-flight traffic in `dir`,
  /// observed at `now`. With a forwarder attached, covers the forwarded
  /// hop's drain too — the fence is end-to-end.
  sim::Time fence(Direction dir, sim::Time now) const {
    sim::Time drain = channel(dir).drain_time();
    if (forwarder_ != nullptr) {
      const sim::Time f = forwarder_->forward_drain(dir);
      if (f > drain) drain = f;
    }
    const sim::Time t = drain > now ? drain : now;
    if (observer_ != nullptr) {
      observer_->on_fence(static_cast<std::uint8_t>(dir), now, t);
    }
    return t;
  }

  /// Fence both directions.
  sim::Time fence_all(sim::Time now) const {
    return fence(Direction::kDeviceToCpu,
                 fence(Direction::kCpuToDevice, now));
  }

  Channel& channel(Direction dir) {
    return dir == Direction::kCpuToDevice ? down_ : up_;
  }
  const Channel& channel(Direction dir) const {
    return dir == Direction::kCpuToDevice ? down_ : up_;
  }

  const PhyConfig& phy() const { return phy_; }

  std::uint64_t total_wire_bytes() const {
    return down_.stats().wire_bytes + up_.stats().wire_bytes;
  }

  void reset() {
    down_.reset();
    up_.reset();
  }

  /// Attach/detach the coherence invariant checker (nullptr to detach).
  /// Attach before traffic starts (or re-baseline): the checker's flit
  /// conservation compares its observed injections against channel stats.
  void set_observer(check::Observer* obs) { observer_ = obs; }

  /// Attach/detach a fault-injection hook (nullptr to detach). Consulted on
  /// every send; see LinkFaultHook.
  void set_fault_hook(LinkFaultHook* hook) { fault_hook_ = hook; }

  /// Attach/detach an egress forwarder (nullptr to detach); see
  /// LinkForwarder. Attach before traffic starts: deliveries returned to
  /// producers and reported to the observer are end-to-end once attached.
  void set_forwarder(LinkForwarder* fwd) { forwarder_ = fwd; }

  /// Attach/detach a telemetry registry (nullptr to detach). Handles are
  /// resolved once here; per-send recording is a pointer check plus a few
  /// counter adds. Both the link-layer view (cxl.{down,up}.*) and the
  /// protocol view (coherence.{m2s,s2m}.*) are recorded at this choke point
  /// because every coherence message — the same stream the protocol
  /// checker's flit-conservation invariant observes via notify() — crosses
  /// the link exactly once. m2s (master-to-subordinate) is the CPU->device
  /// "down" channel; s2m is the device->CPU "up" channel.
  /// Lifetime: the link registers a read-barrier flusher with the
  /// registry; do not read the registry after the link is destroyed
  /// without calling set_metrics(nullptr) first.
  void set_metrics(obs::MetricsRegistry* reg) {
    if (metrics_ != nullptr && metrics_ != reg) {
      metrics_->remove_flusher(this);
    }
    if (reg == nullptr) {
      metrics_ = nullptr;
      return;
    }
    auto wire = [reg](DirMetrics& m, const char* cxl_dir,
                      const char* coh_dir) {
      const std::string c = std::string("cxl.") + cxl_dir + '.';
      const std::string h = std::string("coherence.") + coh_dir + '.';
      m.flits = &reg->counter(c + "flits");
      m.bytes = &reg->counter(c + "bytes");
      m.retries = &reg->counter(c + "retries");
      m.crc_errors = &reg->counter(c + "crc_errors");
      m.msgs = &reg->counter(h + "msgs");
      m.flushdata = &reg->counter(h + "flushdata");
      m.snoop = &reg->counter(h + "snoop");
    };
    wire(dir_metrics_[0], "down", "m2s");
    wire(dir_metrics_[1], "up", "s2m");
    metrics_ = reg;
    // Per-send recording lands in the DirMetrics pending fields (one hot
    // struct, no scattered counter stores); the registry drains them
    // through this read barrier before any aggregate read.
    reg->add_flusher(this, [this] { flush_metrics(); });
  }

  /// Enable the Monte-Carlo CRC-retry path on both directions. Each
  /// direction gets a decorrelated stream derived from `seed`.
  void enable_retry(const RetryModel& model, std::uint64_t seed,
                    const FlitConfig& flit = {}) {
    down_.enable_retry(model, seed * 2 + 1, flit);
    up_.enable_retry(model, seed * 2 + 2, flit);
  }

 private:
  sim::Time faulted(Direction dir, sim::Time t_ready, const Packet& pkt,
                    std::uint64_t n) {
    if (fault_hook_ == nullptr) return t_ready;
    return t_ready + fault_hook_->transmit_delay(dir, t_ready, pkt, n);
  }

  /// Flits a burst of `n` copies of `pkt` occupies on the wire. Control
  /// messages and 32-bit-sized data payloads go through the FlitCodec's
  /// exact packing arithmetic; the baseline runtime's multi-GB bulk-DMA
  /// packets fall back to whole payload flits.
  std::uint64_t flits_for(const Packet& pkt, std::uint64_t n) const {
    const FlitConfig& fc = codec_.config();
    if (pkt.payload_bytes == 0) {
      return codec_.wire_bytes_for_control(n) / fc.flit_wire_bytes();
    }
    if (pkt.payload_bytes <= 0xffffffffULL) {
      return codec_.wire_bytes_for_burst(
                 n, static_cast<std::uint32_t>(pkt.payload_bytes)) /
             fc.flit_wire_bytes();
    }
    const std::uint64_t per_flit = fc.flit_payload_bytes();
    return (pkt.payload_bytes + per_flit - 1) / per_flit * n;
  }

  void record(Direction dir, const Packet& pkt, std::uint64_t n,
              std::uint64_t retried) {
#ifndef TECO_OBS_DISABLED
    if (metrics_ == nullptr) return;
    DirMetrics& m = dir_metrics_[dir == Direction::kCpuToDevice ? 0 : 1];
    // The codec packing arithmetic dominates the recording cost, and hot
    // loops send runs of identical packets — one (payload, n) memo per
    // direction drops the steady-state cost to a compare plus the adds.
    if (pkt.payload_bytes != m.memo_payload || n != m.memo_n) {
      m.memo_payload = pkt.payload_bytes;
      m.memo_n = n;
      m.memo_flits = static_cast<double>(flits_for(pkt, n));
      m.memo_bytes = static_cast<double>(pkt.wire_bytes() * n);
    }
    m.p_flits += m.memo_flits;
    m.p_bytes += m.memo_bytes;
    if (retried != 0) {
      // Monte-Carlo retry path: every retransmission was triggered by
      // exactly one CRC-failed flit, so the two counts coincide.
      m.p_retries += static_cast<double>(retried);
    }
    m.p_msgs += static_cast<double>(n);
    if (pkt.type == MessageType::kFlushData) {
      m.p_flushdata += static_cast<double>(n);
    } else if (pkt.type == MessageType::kInvalidate ||
               pkt.type == MessageType::kInvAck) {
      m.p_snoop += static_cast<double>(n);
    }
#else
    (void)dir;
    (void)pkt;
    (void)n;
    (void)retried;
#endif
  }

  void notify(Direction dir, sim::Time t_ready, const Packet& pkt,
              std::uint64_t n, const Delivery& d) {
    if (observer_ != nullptr) {
      observer_->on_packet(t_ready, static_cast<std::uint8_t>(dir),
                           static_cast<std::uint8_t>(pkt.type), pkt.addr, n,
                           d.delivered);
    }
  }

  struct DirMetrics {
    obs::Counter* flits = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* crc_errors = nullptr;
    obs::Counter* msgs = nullptr;
    obs::Counter* flushdata = nullptr;
    obs::Counter* snoop = nullptr;
    /// Memo of the last (payload, n) -> (flits, wire bytes) conversion.
    std::uint64_t memo_payload = ~0ull;
    std::uint64_t memo_n = 0;
    double memo_flits = 0.0;
    double memo_bytes = 0.0;
    /// Deferred deltas, drained into the counters by flush_metrics().
    double p_flits = 0.0;
    double p_bytes = 0.0;
    double p_retries = 0.0;
    double p_msgs = 0.0;
    double p_flushdata = 0.0;
    double p_snoop = 0.0;
  };

  /// Drain the pending per-direction deltas into the registry counters.
  /// Called by the registry's read barrier, so aggregate reads always see
  /// up-to-date totals.
  void flush_metrics() {
    for (DirMetrics& m : dir_metrics_) {
      if (m.p_flits != 0.0) m.flits->add(m.p_flits);
      if (m.p_bytes != 0.0) m.bytes->add(m.p_bytes);
      if (m.p_retries != 0.0) {
        m.retries->add(m.p_retries);
        m.crc_errors->add(m.p_retries);
      }
      if (m.p_msgs != 0.0) m.msgs->add(m.p_msgs);
      if (m.p_flushdata != 0.0) m.flushdata->add(m.p_flushdata);
      if (m.p_snoop != 0.0) m.snoop->add(m.p_snoop);
      m.p_flits = m.p_bytes = m.p_retries = 0.0;
      m.p_msgs = m.p_flushdata = m.p_snoop = 0.0;
    }
  }

  PhyConfig phy_;
  Channel down_;
  Channel up_;
  check::Observer* observer_ = nullptr;
  LinkFaultHook* fault_hook_ = nullptr;
  LinkForwarder* forwarder_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  DirMetrics dir_metrics_[2];  ///< [0]=down/m2s, [1]=up/s2m.
  FlitCodec codec_;
};

}  // namespace teco::cxl
