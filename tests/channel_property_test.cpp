// Property tests for the serial channel against a brute-force reference.
//
// The Channel computes admission/finish/delivery in closed form (O(1) per
// packet with a bounded queue of finish runs). The reference below simulates
// the same semantics the obvious way — an explicit FIFO of in-flight
// packets — and random workloads must agree exactly. A second oracle keeps
// one queued finish per packet for streams too and must match submit() and
// submit_stream() bit for bit, stats included.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "cxl/channel.hpp"
#include "sim/rng.hpp"

namespace teco::cxl {
namespace {

/// Straight-line reference: same contract as Channel::submit.
class ReferenceChannel {
 public:
  ReferenceChannel(double bw, double latency, std::size_t cap)
      : bw_(bw), latency_(latency), cap_(cap) {}

  Delivery submit(double t_ready, const Packet& pkt) {
    while (!inflight_.empty() && inflight_.front() <= t_ready) {
      inflight_.pop_front();
    }
    double admission = t_ready;
    if (inflight_.size() >= cap_) {
      admission = inflight_.front();
      inflight_.pop_front();
    }
    const double start = std::max(admission, wire_free_);
    const double finish = start + pkt.wire_bytes() / bw_;
    wire_free_ = finish;
    inflight_.push_back(finish);
    return Delivery{admission, finish, finish + latency_};
  }

 private:
  double bw_, latency_;
  std::size_t cap_;
  std::deque<double> inflight_;
  double wire_free_ = 0.0;
};

struct WorkloadParams {
  std::uint64_t seed;
  std::size_t capacity;
};

class ChannelVsReference
    : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(ChannelVsReference, RandomWorkloadsAgreeExactly) {
  const auto [seed, capacity] = GetParam();
  sim::Rng rng(seed);
  Channel ch("dut", 10e9, sim::ns(300), capacity);
  ReferenceChannel ref(10e9, sim::ns(300), capacity);

  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    // Mixed packet sizes: control flits, DBA payloads, full lines, bulk.
    const std::uint64_t sizes[] = {0, 32, 64, 4096};
    const auto pkt = data_packet(MessageType::kData, 0,
                                 sizes[rng.next_below(4)]);
    // Sometimes bursts at the same instant, sometimes idle gaps.
    if (rng.next_bool(0.3)) t += rng.uniform(0.0, 2e-6);
    const auto a = ch.submit(t, pkt);
    const auto b = ref.submit(t, pkt);
    ASSERT_DOUBLE_EQ(a.accepted, b.accepted) << "packet " << i;
    ASSERT_DOUBLE_EQ(a.finished, b.finished) << "packet " << i;
    ASSERT_DOUBLE_EQ(a.delivered, b.delivered) << "packet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, ChannelVsReference,
    ::testing::Values(WorkloadParams{1, 1}, WorkloadParams{2, 2},
                      WorkloadParams{3, 8}, WorkloadParams{4, 128},
                      WorkloadParams{5, 128}, WorkloadParams{6, 3}));

/// The per-packet-finish channel: one queued `double` per in-flight packet,
/// with stream tails replayed finish by finish. Same arithmetic as Channel,
/// so the run-based queue must agree with it exactly.
class DequeReferenceChannel {
 public:
  DequeReferenceChannel(sim::Bandwidth bandwidth, sim::Time latency,
                        std::size_t capacity)
      : bandwidth_(bandwidth), latency_(latency), capacity_(capacity) {}

  void enable_retry(const RetryModel& model, std::uint64_t seed,
                    const FlitConfig& flit = {}) {
    retry_ = RetryState{model, flit, model.flit_error_probability(flit),
                        sim::Rng(seed)};
  }

  Delivery submit(sim::Time t_ready, const Packet& pkt) {
    const sim::Time admission = queue_admission(t_ready);
    const sim::Time start = std::max(admission, wire_free_);
    const sim::Time duration =
        sim::transfer_time(pkt.wire_bytes(), bandwidth_) +
        retry_penalty(pkt.wire_bytes());
    const sim::Time finish = start + duration;
    wire_free_ = finish;
    record_finish(finish);

    ++stats_.packets;
    stats_.payload_bytes += pkt.payload_bytes;
    stats_.wire_bytes += pkt.wire_bytes();
    stats_.busy_time += duration;
    return Delivery{admission, finish, finish + latency_};
  }

  Delivery submit_stream(sim::Time t_ready, const Packet& pkt,
                         std::uint64_t count) {
    if (count == 0) return Delivery{t_ready, t_ready, t_ready};
    const sim::Time d = sim::transfer_time(pkt.wire_bytes(), bandwidth_);
    const sim::Time stream_retry =
        retry_penalty(static_cast<std::uint64_t>(pkt.wire_bytes()) * count);

    const sim::Time admission_first = queue_admission(t_ready);
    const sim::Time start = std::max(admission_first, wire_free_);
    const sim::Time finish_last =
        start + d * static_cast<double>(count) + stream_retry;
    wire_free_ = finish_last;

    sim::Time admission_last = admission_first;
    if (count > capacity_ - inflight_finish_.size()) {
      const std::uint64_t room = capacity_ - inflight_finish_.size();
      const std::uint64_t n_stalled = count - room;
      const double n = static_cast<double>(n_stalled);
      admission_last = start + d * n;
      stats_.producer_stall +=
          n * (start - t_ready) + d * (n * (n + 1.0) / 2.0);
      stats_.stalled_packets += n_stalled;
    }

    const std::uint64_t tail =
        std::min<std::uint64_t>(count, static_cast<std::uint64_t>(capacity_));
    for (std::uint64_t j = 0; j < tail; ++j) {
      const double back = static_cast<double>(tail - 1 - j);
      record_finish(finish_last - d * back);
      if (inflight_finish_.size() > capacity_) inflight_finish_.pop_front();
    }

    stats_.packets += count;
    stats_.payload_bytes +=
        static_cast<std::uint64_t>(pkt.payload_bytes) * count;
    stats_.wire_bytes += static_cast<std::uint64_t>(pkt.wire_bytes()) * count;
    stats_.busy_time += d * static_cast<double>(count) + stream_retry;
    return Delivery{admission_last, finish_last, finish_last + latency_};
  }

  const ChannelStats& stats() const { return stats_; }

 private:
  struct RetryState {
    RetryModel model;
    FlitConfig flit;
    double flit_error_prob = 0.0;
    sim::Rng rng;
  };

  sim::Time queue_admission(sim::Time t_ready) {
    while (!inflight_finish_.empty() && inflight_finish_.front() <= t_ready) {
      inflight_finish_.pop_front();
    }
    if (inflight_finish_.size() < capacity_) return t_ready;
    const sim::Time admission = inflight_finish_.front();
    inflight_finish_.pop_front();
    stats_.producer_stall += admission - t_ready;
    ++stats_.stalled_packets;
    return admission;
  }

  void record_finish(sim::Time finish) {
    inflight_finish_.push_back(finish);
    stats_.last_finish = std::max(stats_.last_finish, finish);
    stats_.last_delivery = std::max(stats_.last_delivery, finish + latency_);
  }

  sim::Time retry_penalty(std::uint64_t wire_bytes) {
    if (!retry_.has_value() || wire_bytes == 0) return 0.0;
    RetryState& st = *retry_;
    const std::uint64_t payload = st.flit.flit_payload_bytes();
    const std::uint64_t flits = (wire_bytes + payload - 1) / payload;
    std::uint64_t extra = 0;
    std::uint64_t pending = flits;
    while (pending > 0) {
      const std::uint64_t corrupted =
          st.rng.next_binomial(pending, st.flit_error_prob);
      extra += corrupted;
      pending = corrupted;
    }
    stats_.flits += flits;
    if (extra == 0) return 0.0;
    stats_.retried_flits += extra;
    const sim::Time flit_time =
        sim::transfer_time(static_cast<double>(wire_bytes) /
                               static_cast<double>(flits),
                           bandwidth_);
    const sim::Time penalty = static_cast<double>(extra) *
                              (flit_time + st.model.retry_round_trip);
    stats_.retry_time += penalty;
    return penalty;
  }

  sim::Bandwidth bandwidth_;
  sim::Time latency_;
  std::size_t capacity_;
  std::deque<sim::Time> inflight_finish_;
  sim::Time wire_free_ = 0.0;
  ChannelStats stats_;
  std::optional<RetryState> retry_;
};

void ExpectSameDelivery(const Delivery& a, const Delivery& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.delivered, b.delivered);
}

void ExpectSameStats(const ChannelStats& a, const ChannelStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.producer_stall, b.producer_stall);
  EXPECT_EQ(a.stalled_packets, b.stalled_packets);
  EXPECT_EQ(a.last_finish, b.last_finish);
  EXPECT_EQ(a.last_delivery, b.last_delivery);
  EXPECT_EQ(a.flits, b.flits);
  EXPECT_EQ(a.retried_flits, b.retried_flits);
  EXPECT_EQ(a.retry_time, b.retry_time);
}

struct OracleParams {
  std::uint64_t seed;
  std::size_t capacity;
  bool retry;  ///< Monte-Carlo link retry at BER 1e-5.
};

class ChannelVsDequeReference
    : public ::testing::TestWithParam<OracleParams> {};

TEST_P(ChannelVsDequeReference, MixedSubmitsAndStreamsAgreeBitForBit) {
  const auto [seed, capacity, retry] = GetParam();
  sim::Rng rng(seed);
  Channel ch("dut", 15.1e9, sim::ns(400), capacity);
  DequeReferenceChannel ref(15.1e9, sim::ns(400), capacity);
  if (retry) {
    RetryModel model;
    model.bit_error_rate = 1e-5;
    ch.enable_retry(model, seed);
    ref.enable_retry(model, seed);
  }

  const std::uint64_t sizes[] = {0, 16, 64, 4096};
  double t = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const auto pkt =
        data_packet(MessageType::kData, 0, sizes[rng.next_below(4)]);
    // Bursts at one instant, short gaps that keep the queue busy, and long
    // idle gaps that drain it partway or completely.
    if (rng.next_bool(0.4)) t += rng.uniform(0.0, 2e-6);
    if (rng.next_bool(0.05)) t += rng.uniform(0.0, 200e-6);
    Delivery a{};
    Delivery b{};
    if (rng.next_bool(0.5)) {
      a = ch.submit(t, pkt);
      b = ref.submit(t, pkt);
    } else {
      // 0..600 packets: empty streams, streams shorter than the queue and
      // streams several times its depth.
      const std::uint64_t count = rng.next_bool(0.7) ? rng.next_below(33)
                                                     : rng.next_below(601);
      a = ch.submit_stream(t, pkt, count);
      b = ref.submit_stream(t, pkt, count);
    }
    ExpectSameDelivery(a, b);
    ExpectSameStats(ch.stats(), ref.stats());
    ASSERT_FALSE(HasFailure()) << "first divergence at call " << i;
  }
  if (retry) {
    EXPECT_GT(ch.stats().retried_flits, 0u);
  }
  EXPECT_GT(ch.stats().stalled_packets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, ChannelVsDequeReference,
    ::testing::ValuesIn([] {
      std::vector<OracleParams> params;
      for (const std::size_t cap : {1, 2, 3, 8, 16, 128}) {
        for (const std::uint64_t seed : {21, 22, 23, 24}) {
          params.push_back({seed * 1000 + cap, cap, seed % 2 == 0});
        }
      }
      return params;
    }()));

TEST(ChannelProperties, ConservationOfWireTime) {
  // Total busy time equals total wire bytes / bandwidth, regardless of the
  // arrival pattern.
  sim::Rng rng(9);
  Channel ch("dut", 12.8e9, sim::ns(100));
  double t = 0.0;
  std::uint64_t bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t sz = 16 + rng.next_below(256);
    bytes += sz;
    t += rng.uniform(0.0, 1e-7);
    ch.submit(t, data_packet(MessageType::kData, 0, sz));
  }
  EXPECT_NEAR(ch.stats().busy_time, static_cast<double>(bytes) / 12.8e9,
              1e-12);
  EXPECT_EQ(ch.stats().wire_bytes, bytes);
}

TEST(ChannelProperties, FifoOrderPreserved) {
  // Finish times are nondecreasing in submission order even when ready
  // times interleave with the wire becoming free.
  sim::Rng rng(12);
  Channel ch("dut", 1e9, 0.0, 4);
  double t = 0.0, prev_finish = 0.0;
  for (int i = 0; i < 1000; ++i) {
    t += rng.uniform(0.0, 2e-6);
    const auto d = ch.submit(
        t, data_packet(MessageType::kData, 0, 1 + rng.next_below(2048)));
    ASSERT_GE(d.finished, prev_finish);
    prev_finish = d.finished;
  }
}

TEST(ChannelProperties, StreamEqualsLoopUnderBackpressure) {
  // submit_stream must replicate per-packet submission even when the
  // stream is far larger than the queue (heavy stall accounting).
  for (const std::uint64_t n : {1ull, 100ull, 129ull, 5000ull}) {
    Channel a("a", 2e9, sim::ns(50), 16);
    Channel b("b", 2e9, sim::ns(50), 16);
    const auto pkt = data_packet(MessageType::kFlushData, 0, 64);
    Delivery da{};
    for (std::uint64_t i = 0; i < n; ++i) da = a.submit(1e-6, pkt);
    const auto db = b.submit_stream(1e-6, pkt, n);
    EXPECT_NEAR(da.finished, db.finished, 1e-15) << "n=" << n;
    EXPECT_EQ(a.stats().stalled_packets, b.stats().stalled_packets)
        << "n=" << n;
    EXPECT_NEAR(a.stats().producer_stall, b.stats().producer_stall, 1e-9)
        << "n=" << n;
  }
}

TEST(ChannelProperties, ThroughputMonotoneInBandwidth) {
  double prev = 1e300;
  for (const double bw : {4e9, 8e9, 16e9, 32e9}) {
    Channel ch("dut", bw, sim::ns(400));
    const auto d = ch.submit_stream(
        0.0, data_packet(MessageType::kData, 0, 64), 100'000);
    EXPECT_LT(d.finished, prev);
    prev = d.finished;
  }
}

}  // namespace
}  // namespace teco::cxl
