// One direction of the serial CXL link.
//
// The paper's emulator treats CXL as a serial bus: "updated cache lines ...
// are going through the link one after another in a stream manner", gated by
// a 128-entry pending queue in the CXL controller (Section VIII-A). The
// channel is therefore an order-preserving serializer with queue-depth
// backpressure, implemented in closed form: each submission records when the
// producer could actually hand the packet over (stall if the queue is full),
// when the wire finishes it, and when it lands (plus propagation latency).
// This handles tens of millions of line-grain submissions without an event
// per packet.
//
// The pending queue holds the wire-finish times of the in-flight packets,
// oldest first, stored as arithmetic runs: a run `{last, stride, back}`
// stands for the finishes `last - stride * b` for b = back ... 0. submit()
// adds a one-packet run and submit_stream() one run for its whole tail, so a
// stream no longer costs a queue entry per packet. Two invariants hold:
// finishes never decrease within a run (FP multiply and subtract are
// monotone and stride >= 0), which lets admission retire a run whole or
// binary-search its finished prefix; and `inflight_n_ <= capacity_` once a
// submission has been admitted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cxl/flit.hpp"
#include "cxl/packet.hpp"
#include "cxl/phy.hpp"
#include "cxl/reliability.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace teco::cxl {

struct ChannelStats {
  std::uint64_t packets = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  sim::Time busy_time = 0.0;        ///< Wire occupancy (includes retries).
  sim::Time producer_stall = 0.0;   ///< Time producers waited on a full queue.
  std::uint64_t stalled_packets = 0;
  sim::Time last_finish = 0.0;      ///< Wire-finish of the latest packet.
  sim::Time last_delivery = 0.0;    ///< Arrival (finish + latency).
  // Monte-Carlo link-retry accounting (enable_retry()).
  std::uint64_t flits = 0;          ///< Goodput flits carried.
  std::uint64_t retried_flits = 0;  ///< Extra transmissions due to CRC fails.
  sim::Time retry_time = 0.0;       ///< Wire + handshake time spent retrying.
};

struct Delivery {
  sim::Time accepted;   ///< When the producer's submission was accepted.
  sim::Time finished;   ///< When the wire finished transmitting.
  sim::Time delivered;  ///< finished + propagation latency.
};

class Channel {
 public:
  Channel(std::string name, sim::Bandwidth bandwidth, sim::Time latency,
          std::size_t queue_capacity = 128);

  /// Submit a packet that becomes ready at `t_ready`. Returns the timing of
  /// its acceptance/transmission/delivery. Submissions must be made in
  /// nondecreasing `t_ready` order per producer; the channel itself imposes
  /// FIFO wire order on whatever it is given.
  Delivery submit(sim::Time t_ready, const Packet& pkt);

  /// Bulk submission of `count` identical packets (a homogeneous stream).
  /// Equivalent to calling submit() `count` times, at an amortized cost of
  /// O(log capacity) whatever `count` is; valid because for a saturated FIFO
  /// the k-th completion is start + k * per_packet. The last
  /// min(count, capacity) finishes stay queued as one run `finish_last -
  /// d * b`. Timing and stall totals equal the per-packet loop only up to FP
  /// rounding (a product where the loop accumulates a sum), which is why the
  /// loop-equivalence test compares with a tolerance.
  Delivery submit_stream(sim::Time t_ready, const Packet& pkt,
                         std::uint64_t count);

  /// Earliest time by which everything submitted so far has been delivered.
  sim::Time drain_time() const { return stats_.last_delivery; }

  /// Make the analytic RetryModel executable: every submission is framed
  /// into flits and a seeded Monte-Carlo draw decides how many arrive
  /// corrupted and are retransmitted (each retransmission re-occupies the
  /// wire for one flit time plus the retry handshake round trip). With the
  /// spec BER (1e-12) this is a no-op in practice — which is exactly the
  /// claim reliability.hpp makes analytically and the property test checks
  /// empirically at elevated BERs.
  void enable_retry(const RetryModel& model, std::uint64_t seed,
                    const FlitConfig& flit = {});
  void disable_retry() { retry_.reset(); }
  bool retry_enabled() const { return retry_.has_value(); }

  const ChannelStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  sim::Bandwidth bandwidth() const { return bandwidth_; }

  void reset();

 private:
  struct RetryState {
    RetryModel model;
    FlitConfig flit;
    double flit_error_prob = 0.0;
    sim::Rng rng;
  };

  /// In-flight finishes `last - stride * b` for b = back ... 0, oldest
  /// first; nondecreasing because stride >= 0.
  struct FinishRun {
    sim::Time last;
    sim::Time stride;
    std::uint64_t back;
    sim::Time at(std::uint64_t b) const {
      return last - stride * static_cast<double>(b);
    }
  };

  sim::Time queue_admission(sim::Time t_ready);
  /// Queue the run `{last, stride, back}`, fold its newest finish into the
  /// stats and drop the oldest finishes beyond capacity. Takes scalars, not
  /// a FinishRun, so the run is built in registers rather than on the stack.
  void record_run(sim::Time last, sim::Time stride, std::uint64_t back);
  /// Drop the `k` oldest in-flight finishes.
  void retire_oldest(std::size_t k);
  /// Drop the oldest run from the ring.
  void pop_front_run() {
    if (++head_ == capacity_) head_ = 0;
    --n_runs_;
  }
  /// Extra wire + handshake time for retransmissions of a submission that
  /// carries `wire_bytes` of payload (0 when retry is disabled).
  sim::Time retry_penalty(std::uint64_t wire_bytes);

  std::string name_;
  sim::Bandwidth bandwidth_;
  sim::Time latency_;
  std::size_t capacity_;
  /// Wire-finish times of up to `capacity_` most recent packets as runs,
  /// oldest first; the front run's oldest finish frees the next queue slot.
  /// A ring of `capacity_` slots (24 bytes each), enough because every run
  /// holds at least one finish; a fixed ring, unlike a deque, never
  /// allocates on the per-packet path.
  std::vector<FinishRun> runs_;
  std::size_t head_ = 0;        ///< Slot of the oldest run.
  std::size_t n_runs_ = 0;
  std::size_t inflight_n_ = 0;  ///< Finishes across all runs.
  sim::Time wire_free_ = 0.0;
  ChannelStats stats_;
  std::optional<RetryState> retry_;
};

}  // namespace teco::cxl
