#include "cxl/channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace teco::cxl {

Channel::Channel(std::string name, sim::Bandwidth bandwidth, sim::Time latency,
                 std::size_t queue_capacity)
    : name_(std::move(name)), bandwidth_(bandwidth), latency_(latency),
      capacity_(queue_capacity) {
  if (bandwidth_ <= 0.0) throw std::invalid_argument("bandwidth must be > 0");
  if (capacity_ == 0) throw std::invalid_argument("queue capacity must be > 0");
  runs_.resize(capacity_);
}

sim::Time Channel::queue_admission(sim::Time t_ready) {
  // Retire in-flight packets that finished before the producer shows up:
  // whole runs first, then the finished prefix of the front run.
  while (n_runs_ > 0 && runs_[head_].last <= t_ready) {
    inflight_n_ -= runs_[head_].back + 1;
    pop_front_run();
  }
  if (n_runs_ > 0) {
    FinishRun& run = runs_[head_];
    if (run.back > 0 && run.at(run.back) <= t_ready) {
      // at(lo) > t_ready >= at(hi); the run's finishes are monotone in b.
      std::uint64_t lo = 0;
      std::uint64_t hi = run.back;
      while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (run.at(mid) <= t_ready) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      inflight_n_ -= run.back - lo;
      run.back = lo;
    }
  }
  if (inflight_n_ < capacity_) return t_ready;
  // Queue full: the producer blocks until the oldest in-flight packet
  // leaves the wire and frees its slot.
  const FinishRun& oldest = runs_[head_];
  const sim::Time admission = oldest.at(oldest.back);
  retire_oldest(1);
  stats_.producer_stall += admission - t_ready;
  ++stats_.stalled_packets;
  return admission;
}

void Channel::record_run(sim::Time last, sim::Time stride,
                         std::uint64_t back) {
  std::size_t slot = head_ + n_runs_;
  if (slot >= capacity_) slot -= capacity_;
  runs_[slot] = FinishRun{last, stride, back};
  ++n_runs_;
  inflight_n_ += back + 1;
  if (inflight_n_ > capacity_) retire_oldest(inflight_n_ - capacity_);
  // `last` is the run's largest finish.
  stats_.last_finish = std::max(stats_.last_finish, last);
  stats_.last_delivery = std::max(stats_.last_delivery, last + latency_);
}

void Channel::retire_oldest(std::size_t k) {
  inflight_n_ -= k;
  while (k > 0) {
    FinishRun& run = runs_[head_];
    if (k <= run.back) {
      run.back -= k;
      return;
    }
    k -= run.back + 1;
    pop_front_run();
  }
}

void Channel::enable_retry(const RetryModel& model, std::uint64_t seed,
                           const FlitConfig& flit) {
  RetryState st{model, flit, model.flit_error_probability(flit),
                sim::Rng(seed)};
  retry_ = st;
}

sim::Time Channel::retry_penalty(std::uint64_t wire_bytes) {
  if (!retry_.has_value() || wire_bytes == 0) return 0.0;
  RetryState& st = *retry_;
  const std::uint64_t payload = st.flit.flit_payload_bytes();
  const std::uint64_t flits = (wire_bytes + payload - 1) / payload;
  // Every transmission (original or retry) is corrupted independently with
  // the flit error probability; a corrupted flit goes around again.
  std::uint64_t extra = 0;
  std::uint64_t pending = flits;
  while (pending > 0) {
    const std::uint64_t corrupted = st.rng.next_binomial(pending,
                                                         st.flit_error_prob);
    extra += corrupted;
    pending = corrupted;
  }
  stats_.flits += flits;
  if (extra == 0) return 0.0;
  stats_.retried_flits += extra;
  // A retransmission re-occupies the wire for one flit time; the NAK +
  // replay handshake adds the configured round trip on top.
  const sim::Time flit_time =
      sim::transfer_time(static_cast<double>(wire_bytes) /
                             static_cast<double>(flits),
                         bandwidth_);
  const sim::Time penalty = static_cast<double>(extra) *
                            (flit_time + st.model.retry_round_trip);
  stats_.retry_time += penalty;
  return penalty;
}

Delivery Channel::submit(sim::Time t_ready, const Packet& pkt) {
  const sim::Time admission = queue_admission(t_ready);
  const sim::Time start = std::max(admission, wire_free_);
  const sim::Time duration = sim::transfer_time(pkt.wire_bytes(), bandwidth_) +
                             retry_penalty(pkt.wire_bytes());
  const sim::Time finish = start + duration;
  wire_free_ = finish;
  record_run(finish, 0.0, 0);

  ++stats_.packets;
  stats_.payload_bytes += pkt.payload_bytes;
  stats_.wire_bytes += pkt.wire_bytes();
  stats_.busy_time += duration;
  return Delivery{admission, finish, finish + latency_};
}

Delivery Channel::submit_stream(sim::Time t_ready, const Packet& pkt,
                                std::uint64_t count) {
  if (count == 0) return Delivery{t_ready, t_ready, t_ready};
  const sim::Time d = sim::transfer_time(pkt.wire_bytes(), bandwidth_);
  // Retries for the whole stream are drawn in one batch and smeared across
  // it: the closed form keeps O(1) timing while the flit counts stay exact.
  const sim::Time stream_retry =
      retry_penalty(static_cast<std::uint64_t>(pkt.wire_bytes()) * count);

  // Admission of the first packet obeys the same queue rule as submit().
  const sim::Time admission_first = queue_admission(t_ready);
  const sim::Time start = std::max(admission_first, wire_free_);
  const sim::Time finish_last =
      start + d * static_cast<double>(count) + stream_retry;
  wire_free_ = finish_last;

  // Packets beyond the queue capacity are admitted one wire-completion at a
  // time; charge the producer the exact aggregate wait.
  sim::Time admission_last = admission_first;
  const std::uint64_t room = capacity_ - inflight_n_;
  if (count > room) {
    const std::uint64_t n_stalled = count - room;
    const double n = static_cast<double>(n_stalled);
    // Packet room+k (k in [0, n_stalled)) is admitted when completion k+1
    // of this stream frees a slot: start + (k+1)*d.
    admission_last = start + d * n;
    stats_.producer_stall +=
        n * (start - t_ready) + d * (n * (n + 1.0) / 2.0);
    stats_.stalled_packets += n_stalled;
  }

  // Keep only the finishes that can still occupy queue slots, as one run.
  const std::uint64_t tail =
      std::min<std::uint64_t>(count, static_cast<std::uint64_t>(capacity_));
  record_run(finish_last, d, tail - 1);

  stats_.packets += count;
  stats_.payload_bytes += static_cast<std::uint64_t>(pkt.payload_bytes) * count;
  stats_.wire_bytes += static_cast<std::uint64_t>(pkt.wire_bytes()) * count;
  stats_.busy_time += d * static_cast<double>(count) + stream_retry;
  return Delivery{admission_last, finish_last, finish_last + latency_};
}

void Channel::reset() {
  head_ = 0;
  n_runs_ = 0;
  inflight_n_ = 0;
  wire_free_ = 0.0;
  stats_ = ChannelStats{};
}

}  // namespace teco::cxl
