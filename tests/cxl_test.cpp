// Unit tests for the CXL link model: packets, serial channel, duplex link.
#include <gtest/gtest.h>

#include "cxl/channel.hpp"
#include "cxl/link.hpp"
#include "cxl/packet.hpp"
#include "cxl/phy.hpp"
#include "message_counter.hpp"

namespace teco::cxl {
namespace {

using sim::Time;

TEST(Phy, Bandwidths) {
  PhyConfig phy;
  EXPECT_DOUBLE_EQ(phy.raw_bandwidth, 16e9);
  EXPECT_DOUBLE_EQ(phy.cxl_bandwidth(), 16e9 * 0.943);
  EXPECT_DOUBLE_EQ(phy.dma_bandwidth(), 16e9 * 0.85);
  EXPECT_DOUBLE_EQ(pcie5_phy().raw_bandwidth, 64e9);
}

TEST(Packet, WireSizes) {
  EXPECT_EQ(control_packet(MessageType::kInvalidate, 0).wire_bytes(), 16u);
  EXPECT_EQ(data_packet(MessageType::kFlushData, 0, 64).wire_bytes(), 64u);
  EXPECT_EQ(data_packet(MessageType::kFlushData, 0, 32, true).wire_bytes(),
            32u);
  EXPECT_TRUE(data_packet(MessageType::kFlushData, 0, 32, true)
                  .dba_aggregated);
}

TEST(Packet, MessageNames) {
  EXPECT_EQ(to_string(MessageType::kReadOwn), "ReadOwn");
  EXPECT_EQ(to_string(MessageType::kGoFlush), "GO_Flush");
  EXPECT_EQ(to_string(MessageType::kDemandRead), "DemandRead");
}

TEST(Channel, RejectsBadConfig) {
  EXPECT_THROW(Channel("x", 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Channel("x", 1e9, 0.0, 0), std::invalid_argument);
}

TEST(Channel, SingleTransferTiming) {
  Channel ch("t", 1e9, sim::us(1));  // 1 GB/s, 1 us latency.
  const auto d = ch.submit(0.0, data_packet(MessageType::kData, 0, 1000));
  EXPECT_DOUBLE_EQ(d.accepted, 0.0);
  EXPECT_DOUBLE_EQ(d.finished, 1e-6);           // 1000 B at 1 GB/s.
  EXPECT_DOUBLE_EQ(d.delivered, 2e-6);          // + latency.
  EXPECT_DOUBLE_EQ(ch.drain_time(), 2e-6);
}

TEST(Channel, SerializesBackToBack) {
  Channel ch("t", 1e9, 0.0);
  const auto pkt = data_packet(MessageType::kData, 0, 1000);
  const auto d1 = ch.submit(0.0, pkt);
  const auto d2 = ch.submit(0.0, pkt);  // Ready together; wire serializes.
  EXPECT_DOUBLE_EQ(d1.finished, 1e-6);
  EXPECT_DOUBLE_EQ(d2.finished, 2e-6);
}

TEST(Channel, IdleGapRespected) {
  Channel ch("t", 1e9, 0.0);
  const auto pkt = data_packet(MessageType::kData, 0, 1000);
  ch.submit(0.0, pkt);
  const auto d = ch.submit(1.0, pkt);  // Arrives long after wire is free.
  EXPECT_DOUBLE_EQ(d.finished, 1.0 + 1e-6);
}

TEST(Channel, QueueBackpressureStallsProducer) {
  Channel ch("t", 1e9, 0.0, /*queue_capacity=*/2);
  const auto pkt = data_packet(MessageType::kData, 0, 1000);
  ch.submit(0.0, pkt);             // Finishes at 1 us.
  ch.submit(0.0, pkt);             // Finishes at 2 us.
  const auto d3 = ch.submit(0.0, pkt);  // Queue full: waits for #1.
  EXPECT_DOUBLE_EQ(d3.accepted, 1e-6);
  EXPECT_DOUBLE_EQ(d3.finished, 3e-6);
  EXPECT_EQ(ch.stats().stalled_packets, 1u);
  EXPECT_GT(ch.stats().producer_stall, 0.0);
}

TEST(Channel, StreamMatchesRepeatedSubmits) {
  const auto pkt = data_packet(MessageType::kData, 0, 64);
  Channel a("a", 15e9, sim::ns(400));
  Channel b("b", 15e9, sim::ns(400));
  Delivery da{};
  for (int i = 0; i < 1000; ++i) da = a.submit(1e-3, pkt);
  const auto db = b.submit_stream(1e-3, pkt, 1000);
  EXPECT_NEAR(da.finished, db.finished, 1e-12);
  EXPECT_NEAR(da.delivered, db.delivered, 1e-12);
  EXPECT_EQ(a.stats().packets, b.stats().packets);
  EXPECT_EQ(a.stats().wire_bytes, b.stats().wire_bytes);
  EXPECT_NEAR(a.stats().busy_time, b.stats().busy_time, 1e-12);
}

TEST(Channel, StreamZeroCountIsNoop) {
  Channel ch("t", 1e9, 0.0);
  const auto d = ch.submit_stream(5.0, data_packet(MessageType::kData, 0, 64),
                                  0);
  EXPECT_DOUBLE_EQ(d.delivered, 5.0);
  EXPECT_EQ(ch.stats().packets, 0u);
}

TEST(Channel, StreamAccountsStalls) {
  Channel ch("t", 64e9, 0.0, 128);
  const auto pkt = data_packet(MessageType::kData, 0, 64);
  ch.submit_stream(0.0, pkt, 1000);
  EXPECT_EQ(ch.stats().stalled_packets, 1000u - 128u);
  EXPECT_GT(ch.stats().producer_stall, 0.0);
}

TEST(Channel, BandwidthAccounting) {
  Channel ch("t", 10e9, 0.0);
  ch.submit_stream(0.0, data_packet(MessageType::kData, 0, 64), 1000);
  EXPECT_EQ(ch.stats().payload_bytes, 64000u);
  EXPECT_NEAR(ch.stats().busy_time, 64000.0 / 10e9, 1e-15);
}

TEST(Channel, ResetClearsEverything) {
  Channel ch("t", 1e9, 0.0);
  ch.submit(0.0, data_packet(MessageType::kData, 0, 64));
  ch.reset();
  EXPECT_EQ(ch.stats().packets, 0u);
  EXPECT_DOUBLE_EQ(ch.drain_time(), 0.0);
}

TEST(Link, DirectionsAreIndependent) {
  Link link;
  const auto big = data_packet(MessageType::kData, 0, 1'000'000'000);
  link.send(Direction::kCpuToDevice, 0.0, big);
  const auto d = link.send(Direction::kDeviceToCpu, 0.0,
                           data_packet(MessageType::kData, 0, 64));
  // The up-direction packet is not delayed by the saturated down channel.
  EXPECT_LT(d.finished, 1e-6);
}

TEST(Link, FenceDrainsBothDirections) {
  Link link;
  const auto d1 = link.send(Direction::kCpuToDevice, 0.0,
                            data_packet(MessageType::kData, 0, 1'000'000));
  const auto d2 = link.send(Direction::kDeviceToCpu, 0.0,
                            data_packet(MessageType::kData, 0, 2'000'000));
  EXPECT_DOUBLE_EQ(link.fence_all(0.0), std::max(d1.delivered, d2.delivered));
  // Fence never goes backwards in time.
  EXPECT_DOUBLE_EQ(link.fence_all(100.0), 100.0);
}

TEST(Link, MessageCountsByType) {
  Link link;
  test::MessageCounter msgs;
  link.set_observer(&msgs);
  link.send(Direction::kCpuToDevice, 0.0,
            control_packet(MessageType::kInvalidate, 0));
  link.send_stream(Direction::kCpuToDevice, 0.0,
                   data_packet(MessageType::kFlushData, 0, 64), 10);
  EXPECT_EQ(msgs.count(MessageType::kInvalidate), 1u);
  EXPECT_EQ(msgs.count(MessageType::kFlushData), 10u);
  EXPECT_EQ(link.total_wire_bytes(), 16u + 640u);
  link.reset();
  EXPECT_EQ(link.total_wire_bytes(), 0u);
}

}  // namespace
}  // namespace teco::cxl
