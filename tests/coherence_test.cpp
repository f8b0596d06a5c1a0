// Protocol tests: giant cache, MESI transitions, snoop filter, home agent.
#include <gtest/gtest.h>

#include <cstring>

#include "check/protocol_checker.hpp"
#include "coherence/giant_cache.hpp"
#include "coherence/home_agent.hpp"
#include "coherence/mesi.hpp"
#include "coherence/snoop_filter.hpp"
#include "cxl/link.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "message_counter.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace teco::coherence {
namespace {

// TECO_OBS=OFF compiles metric recording to no-ops; tests asserting on
// recorded values skip (whole-test) or drop just those assertions.
#ifdef TECO_OBS_DISABLED
#define TECO_SKIP_WITHOUT_OBS() \
  GTEST_SKIP() << "telemetry recording compiled out (TECO_OBS=OFF)"
#else
#define TECO_SKIP_WITHOUT_OBS() (void)0
#endif


using mem::Addr;

constexpr Addr kParamBase = 0x1000;
constexpr std::uint64_t kParamBytes = 64 * 64;  // 64 lines.
constexpr Addr kGradBase = 0x10000;
constexpr std::uint64_t kGradBytes = 64 * 32;

/// Protocol events named `event` ("<Event>@<line>", any detail suffix).
std::size_t count_events(const obs::TraceBuffer& trace,
                         const std::string& event) {
  std::size_t n = 0;
  for (const auto& s : trace.events()) {
    if (s.lane == "home_agent" && s.begin == s.end &&
        (s.name == event || s.name.starts_with(event + " "))) {
      ++n;
    }
  }
  return n;
}

struct Harness {
  explicit Harness(Protocol proto, dba::DbaRegister dba = {})
      : gc(1ull << 20), cpu_cache(mem::llc_config()) {
    HomeAgent::Options opts;
    opts.protocol = proto;
    opts.dba = dba;
    opts.cpu_mem = &cpu_mem;
    opts.device_mem = &device_mem;
    opts.trace = &trace;
    gc.map_region("params", kParamBase, kParamBytes, MesiState::kExclusive,
                  /*dba_eligible=*/true);
    gc.map_region("grads", kGradBase, kGradBytes, MesiState::kExclusive,
                  /*dba_eligible=*/false);
    agent = std::make_unique<HomeAgent>(link, gc, cpu_cache, opts);
    // Every protocol test runs under the strict invariant checker: any
    // SWMR/transition/data/fence violation throws and fails the test.
    check::ProtocolChecker::Options copts;
    copts.cpu_mem = &cpu_mem;
    copts.device_mem = &device_mem;
    checker = std::make_unique<check::ProtocolChecker>(*agent, copts);
    mux.add(checker.get());
    mux.add(&msgs);
    agent->set_observer(&mux);
  }

  cxl::Link link;
  GiantCache gc;
  mem::Cache cpu_cache;
  mem::BackingStore cpu_mem, device_mem;
  obs::TraceBuffer trace;  ///< Protocol events as instant spans.
  std::unique_ptr<HomeAgent> agent;
  std::unique_ptr<check::ProtocolChecker> checker;  ///< After agent.
  test::MessageCounter msgs;  ///< Link messages by type.
  check::ObserverMux mux;     ///< checker + msgs, attached to the agent.
};

TEST(MesiTransitions, UpdateExtensionOnlyAddsMToS) {
  using S = MesiState;
  for (const auto from : {S::kInvalid, S::kShared, S::kExclusive, S::kModified}) {
    for (const auto to : {S::kInvalid, S::kShared, S::kExclusive, S::kModified}) {
      const bool inv = legal_transition(Protocol::kInvalidation, from, to);
      const bool upd = legal_transition(Protocol::kUpdate, from, to);
      if (from == S::kModified && to == S::kShared) {
        EXPECT_FALSE(inv);
        EXPECT_TRUE(upd);  // Fig. 4's red arrow.
      } else {
        EXPECT_EQ(inv, upd) << to_string(from) << "->" << to_string(to);
      }
    }
  }
}

TEST(MesiTransitions, Names) {
  EXPECT_EQ(to_string(MesiState::kModified), "M");
  EXPECT_EQ(to_string(MesiState::kInvalid), "I");
}

TEST(GiantCache, MapAndFind) {
  GiantCache gc(1ull << 20);
  gc.map_region("p", 0, 640, MesiState::kExclusive, true);
  EXPECT_TRUE(gc.contains_line(0));
  EXPECT_TRUE(gc.contains_line(639));
  EXPECT_FALSE(gc.contains_line(640));
  EXPECT_EQ(gc.mapped_lines(), 10u);
  EXPECT_EQ(gc.state(128), MesiState::kExclusive);
  gc.set_state(128, MesiState::kShared);
  EXPECT_EQ(gc.state(128), MesiState::kShared);
  EXPECT_EQ(gc.state(64), MesiState::kExclusive);  // Neighbors untouched.
  EXPECT_EQ(gc.count_state(MesiState::kShared), 1u);
}

TEST(GiantCache, RejectsBadRegions) {
  GiantCache gc(1024);
  EXPECT_THROW(gc.map_region("x", 1, 64, MesiState::kInvalid, false),
               std::invalid_argument);  // Unaligned base.
  EXPECT_THROW(gc.map_region("x", 0, 65, MesiState::kInvalid, false),
               std::invalid_argument);  // Unaligned size.
  EXPECT_THROW(gc.map_region("x", 0, 0, MesiState::kInvalid, false),
               std::invalid_argument);
  EXPECT_THROW(gc.map_region("x", 0, 2048, MesiState::kInvalid, false),
               std::length_error);  // Over capacity.
  gc.map_region("a", 0, 512, MesiState::kInvalid, false);
  EXPECT_THROW(gc.map_region("b", 256, 512, MesiState::kInvalid, false),
               std::invalid_argument);  // Overlap.
  EXPECT_THROW((void)gc.state(0x100000), std::out_of_range);
}

TEST(SnoopFilter, SharerBookkeeping) {
  SnoopFilter sf;
  sf.add_sharer(0, Sharer::kCpu);
  sf.add_sharer(0, Sharer::kDevice);
  EXPECT_TRUE(sf.is_sharer(0, Sharer::kCpu));
  EXPECT_TRUE(sf.is_sharer(0, Sharer::kDevice));
  EXPECT_EQ(sf.entries(), 1u);
  sf.remove_sharer(0, Sharer::kCpu);
  EXPECT_FALSE(sf.is_sharer(0, Sharer::kCpu));
  sf.remove_sharer(0, Sharer::kDevice);
  EXPECT_EQ(sf.entries(), 0u);
  EXPECT_EQ(sf.peak_entries(), 1u);
  EXPECT_EQ(sf.approx_bytes(), 2u);
  sf.remove_sharer(99, Sharer::kCpu);  // No-op on absent line.
}

// --- Update protocol (the TECO extension) ---

TEST(HomeAgentUpdate, Fig5ParameterUpdateFlow) {
  Harness h(Protocol::kUpdate);
  // CPU updates a parameter line: ReadOwn (on-package), GO_Flush, push.
  const auto d = h.agent->cpu_write_line(0.0, kParamBase);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(d->delivered, 0.0);
  // States after the flow: Cs = S (clean), Gs = S.
  EXPECT_EQ(h.gc.state(kParamBase), MesiState::kShared);
  const auto* meta = h.cpu_cache.peek(kParamBase);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(static_cast<MesiState>(meta->state), MesiState::kShared);
  EXPECT_FALSE(meta->dirty);
  // Exactly one FlushData crossed the link; no invalidations.
  EXPECT_EQ(h.msgs.count(cxl::MessageType::kFlushData), 1u);
  EXPECT_EQ(h.msgs.count(cxl::MessageType::kInvalidate), 0u);
  EXPECT_EQ(h.agent->stats().update_pushes, 1u);
  // The trace captured the Fig. 5 sequence.
  EXPECT_EQ(count_events(h.trace, "ReadOwn@" + std::to_string(kParamBase)),
            1u);
  EXPECT_EQ(count_events(h.trace, "GO_Flush@" + std::to_string(kParamBase)),
            1u);
}

TEST(HomeAgentUpdate, DataMovesWithPush) {
  Harness h(Protocol::kUpdate);
  h.cpu_mem.write_f32(kParamBase, 3.25f);
  h.agent->cpu_write_line(0.0, kParamBase);
  EXPECT_FLOAT_EQ(h.device_mem.read_f32(kParamBase), 3.25f);
}

TEST(HomeAgentUpdate, DeviceReadsAreLocal) {
  Harness h(Protocol::kUpdate);
  h.agent->cpu_write_line(0.0, kParamBase);
  const auto a = h.agent->device_read_line(1.0, kParamBase);
  EXPECT_FALSE(a.crossed_link);
  EXPECT_DOUBLE_EQ(a.ready, 1.0);
  EXPECT_EQ(h.agent->stats().demand_fetches, 0u);
}

TEST(HomeAgentUpdate, FlushAllReturnsLinesToExclusive) {
  Harness h(Protocol::kUpdate);
  h.agent->cpu_write_line(0.0, kParamBase);
  h.agent->cpu_write_line(0.0, kParamBase + 64);
  EXPECT_EQ(h.agent->cpu_flush_all(1.0), 2u);
  EXPECT_EQ(h.gc.state(kParamBase), MesiState::kExclusive);
  EXPECT_EQ(h.gc.state(kParamBase + 64), MesiState::kExclusive);
  EXPECT_EQ(h.cpu_cache.peek(kParamBase), nullptr);  // Cs = I.
}

TEST(HomeAgentUpdate, GradientPushesToCpu) {
  Harness h(Protocol::kUpdate);
  h.device_mem.write_f32(kGradBase, -1.5f);
  const auto d = h.agent->device_write_line(0.0, kGradBase);
  ASSERT_TRUE(d.has_value());
  EXPECT_FLOAT_EQ(h.cpu_mem.read_f32(kGradBase), -1.5f);
  EXPECT_EQ(h.gc.state(kGradBase), MesiState::kShared);
  const auto a = h.agent->cpu_read_line(d->delivered, kGradBase);
  EXPECT_FALSE(a.crossed_link);  // Data already home.
}

TEST(HomeAgentUpdate, SnoopFilterStaysEmpty) {
  // Section IV-A2: the update protocol with clear producer/consumer roles
  // needs no snoop filter.
  Harness h(Protocol::kUpdate);
  for (int i = 0; i < 16; ++i) {
    h.agent->cpu_write_line(0.0, kParamBase + i * 64);
    h.agent->device_write_line(0.0, kGradBase + (i % 8) * 64);
  }
  EXPECT_EQ(h.agent->snoop_filter().entries(), 0u);
  EXPECT_EQ(h.agent->snoop_filter().peak_entries(), 0u);
}

TEST(HomeAgentUpdate, UnmappedLinesBypassProtocol) {
  Harness h(Protocol::kUpdate);
  EXPECT_FALSE(h.agent->cpu_write_line(0.0, 0xDEAD000).has_value());
  EXPECT_FALSE(h.agent->device_write_line(0.0, 0xDEAD000).has_value());
  EXPECT_EQ(h.msgs.count(cxl::MessageType::kFlushData), 0u);
}

TEST(HomeAgentUpdate, DbaTrimsParameterPushesOnly) {
  Harness h(Protocol::kUpdate);
  h.agent->set_dba(0.0, dba::DbaRegister(true, 2));
  h.agent->cpu_write_line(0.0, kParamBase);      // Trimmed: 32 B payload.
  h.agent->device_write_line(0.0, kGradBase);    // Gradients: full 64 B.
  EXPECT_EQ(h.agent->stats().dba_trimmed_lines, 1u);
  const auto& down = h.link.channel(cxl::Direction::kCpuToDevice).stats();
  const auto& up = h.link.channel(cxl::Direction::kDeviceToCpu).stats();
  // Down carried the DbaConfig control (16B wire) + 32 B trimmed payload.
  EXPECT_EQ(down.payload_bytes, 32u);
  EXPECT_EQ(up.payload_bytes, 64u);
  EXPECT_EQ(h.msgs.count(cxl::MessageType::kDbaConfig), 1u);
}

TEST(HomeAgentUpdate, DbaMergePreservesHighBytesEndToEnd) {
  Harness h(Protocol::kUpdate);
  // Step 0 (no DBA): establish the full-precision copy on the device.
  h.cpu_mem.write_f32(kParamBase, 1.0f);
  h.agent->cpu_write_line(0.0, kParamBase);
  // Activate DBA and make an update that changes the HIGH bytes too.
  h.agent->set_dba(0.0, dba::DbaRegister(true, 2));
  h.cpu_mem.write_f32(kParamBase, 2.0f);  // Exponent change.
  h.agent->cpu_write_line(1.0, kParamBase);
  const float dev = h.device_mem.read_f32(kParamBase);
  // Device sees splice(1.0f, 2.0f, 2): high bytes stale.
  EXPECT_FLOAT_EQ(dev, dba::splice_f32(1.0f, 2.0f, 2));
  EXPECT_NE(dev, 2.0f);
}

// --- Invalidation protocol (stock CXL MESI) ---

TEST(HomeAgentInvalidation, WriteInvalidatesRemoteCopy) {
  Harness h(Protocol::kInvalidation);
  const auto d = h.agent->cpu_write_line(0.0, kParamBase);
  EXPECT_FALSE(d.has_value());  // No data crossed.
  EXPECT_EQ(h.gc.state(kParamBase), MesiState::kInvalid);
  EXPECT_EQ(h.agent->stats().invalidations, 1u);
  EXPECT_EQ(h.msgs.count(cxl::MessageType::kInvalidate), 1u);
  EXPECT_EQ(h.msgs.count(cxl::MessageType::kInvAck), 1u);
  const auto* meta = h.cpu_cache.peek(kParamBase);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(static_cast<MesiState>(meta->state), MesiState::kModified);
  EXPECT_TRUE(meta->dirty);
}

TEST(HomeAgentInvalidation, DeviceReadDemandFetches) {
  Harness h(Protocol::kInvalidation);
  h.cpu_mem.write_f32(kParamBase, 7.5f);
  h.agent->cpu_write_line(0.0, kParamBase);
  const auto a = h.agent->device_read_line(0.0, kParamBase);
  EXPECT_TRUE(a.crossed_link);
  EXPECT_GT(a.ready, 0.0);  // PCIe latency on the critical path.
  EXPECT_EQ(h.agent->stats().demand_fetches, 1u);
  EXPECT_EQ(h.gc.state(kParamBase), MesiState::kShared);
  EXPECT_FLOAT_EQ(h.device_mem.read_f32(kParamBase), 7.5f);
  // Second read hits locally.
  const auto a2 = h.agent->device_read_line(a.ready, kParamBase);
  EXPECT_FALSE(a2.crossed_link);
}

TEST(HomeAgentInvalidation, GradientDemandFetchByCpu) {
  Harness h(Protocol::kInvalidation);
  h.device_mem.write_f32(kGradBase, -2.0f);
  h.agent->device_write_line(0.0, kGradBase);
  EXPECT_EQ(h.gc.state(kGradBase), MesiState::kModified);
  const auto a = h.agent->cpu_read_line(0.0, kGradBase);
  EXPECT_TRUE(a.crossed_link);
  EXPECT_FLOAT_EQ(h.cpu_mem.read_f32(kGradBase), -2.0f);
  EXPECT_EQ(h.gc.state(kGradBase), MesiState::kShared);
}

TEST(HomeAgentInvalidation, SnoopFilterTracksSharers) {
  Harness h(Protocol::kInvalidation);
  h.agent->cpu_write_line(0.0, kParamBase);
  EXPECT_GT(h.agent->snoop_filter().entries(), 0u);
}

TEST(HomeAgentInvalidation, RepeatWritesDontReinvalidate) {
  Harness h(Protocol::kInvalidation);
  h.agent->cpu_write_line(0.0, kParamBase);
  h.agent->cpu_write_line(1.0, kParamBase);  // Already M, Gs already I.
  EXPECT_EQ(h.agent->stats().invalidations, 1u);
}

TEST(HomeAgent, FenceTracksLinkDrain) {
  Harness h(Protocol::kUpdate);
  const auto d = h.agent->cpu_write_line(0.0, kParamBase);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(h.agent->cxl_fence(0.0), d->delivered);
  EXPECT_DOUBLE_EQ(h.agent->cxl_fence(d->delivered + 1.0), d->delivered + 1.0);
}

TEST(HomeAgent, VolumeAccountingPerDirection) {
  Harness h(Protocol::kUpdate);
  for (int i = 0; i < 10; ++i) h.agent->cpu_write_line(0.0, kParamBase + i * 64);
  for (int i = 0; i < 4; ++i) h.agent->device_write_line(0.0, kGradBase + i * 64);
  EXPECT_EQ(h.link.channel(cxl::Direction::kCpuToDevice).stats().payload_bytes,
            640u);
  EXPECT_EQ(h.link.channel(cxl::Direction::kDeviceToCpu).stats().payload_bytes,
            256u);
}

TEST(HomeAgent, ObsCountersMatchCheckerInvariantCounts) {
  TECO_SKIP_WITHOUT_OBS();
  // The registry records at the link choke point — the same place the
  // protocol checker's flit-conservation invariant observes every packet.
  // The two countings must agree exactly; a divergence means one of them
  // is watching a side channel the other cannot see.
  Harness h(Protocol::kUpdate);
  obs::MetricsRegistry reg;
  h.agent->set_metrics(&reg);
  for (int i = 0; i < 12; ++i) {
    h.agent->cpu_write_line(0.0, kParamBase + i * 64);
  }
  for (int i = 0; i < 5; ++i) {
    h.agent->device_write_line(0.0, kGradBase + i * 64);
  }
  // m2s = CPU->device (dir 0), s2m = device->CPU (dir 1).
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("coherence.m2s.msgs")),
            h.checker->packets_injected(0));
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("coherence.s2m.msgs")),
            h.checker->packets_injected(1));
  // Every message here is a data push: FlushData accounts for all of them.
  EXPECT_DOUBLE_EQ(reg.value("coherence.m2s.flushdata"),
                   reg.value("coherence.m2s.msgs"));
  EXPECT_DOUBLE_EQ(reg.value("coherence.m2s.flushdata"), 12.0);
  EXPECT_DOUBLE_EQ(reg.value("coherence.s2m.flushdata"), 5.0);
  EXPECT_DOUBLE_EQ(reg.value("coherence.m2s.snoop"), 0.0);
  // Wire accounting: bytes and flits on the down channel cover 12 lines.
  EXPECT_DOUBLE_EQ(reg.value("cxl.down.bytes"), 12.0 * 64.0);
  EXPECT_GT(reg.value("cxl.down.flits"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("cxl.down.crc_errors"), 0.0);
}

TEST(HomeAgentInvalidation, ObsSnoopCounters) {
  TECO_SKIP_WITHOUT_OBS();
  Harness h(Protocol::kInvalidation);
  obs::MetricsRegistry reg;
  h.agent->set_metrics(&reg);
  // Device holds the line; a CPU write invalidates the remote copy.
  h.agent->device_read_line(0.0, kParamBase);
  h.agent->cpu_write_line(0.0, kParamBase);
  EXPECT_GT(reg.value("coherence.m2s.snoop"), 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("coherence.m2s.msgs")),
            h.checker->packets_injected(0));
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("coherence.s2m.msgs")),
            h.checker->packets_injected(1));
}

}  // namespace
}  // namespace teco::coherence
