// Public-API tests: Session end-to-end flows and report formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/report.hpp"
#include "core/session.hpp"
#include "core/teco.hpp"
#include "dba/disaggregator.hpp"
#include "message_counter.hpp"

namespace teco::core {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("Title");
  t.set_header({"model", "speedup"});
  t.add_row({"GPT2", "1.82x"});
  t.add_row({"Bert-large-cased", "1.60x"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| model"), std::string::npos);
  EXPECT_NE(s.find("Bert-large-cased"), std::string::npos);
  // Every row has the same width.
  std::size_t first_len = std::string::npos;
  std::size_t pos = s.find('\n') + 1;  // Skip title.
  while (pos < s.size()) {
    const auto e = s.find('\n', pos);
    if (e == std::string::npos) break;
    if (first_len == std::string::npos) first_len = e - pos;
    EXPECT_EQ(e - pos, first_len);
    pos = e + 1;
  }
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::fmt(1.236, 2), "1.24");
  EXPECT_EQ(TextTable::pct(0.425, 1), "42.5%");
  EXPECT_EQ(TextTable::ms(0.0123, 1), "12.3ms");
  EXPECT_EQ(TextTable::mib(1024.0 * 1024.0 * 2, 1), "2.0MiB");
}

TEST(Version, Exported) {
  EXPECT_EQ(teco::kVersionMajor, 1);
  EXPECT_STREQ(teco::kVersionString, "1.0.0");
}

sim::Time latest_end(const obs::TraceBuffer& g) {
  sim::Time t = 0.0;
  for (const auto& s : g.events()) t = std::max(t, s.end);
  return t;
}

TEST(Gantt, RendersLanesProportionally) {
  obs::TraceBuffer g;
  g.emit("gpu", "F", 0.0, 0.5);
  g.emit("gpu", "B", 0.5, 1.0);
  g.emit("link", "^", 0.25, 0.75);
  const auto out = render_gantt(g, 40);
  EXPECT_NE(out.find("gpu "), std::string::npos);
  EXPECT_NE(out.find("link"), std::string::npos);
  // The F and B glyphs split the gpu lane roughly in half.
  const auto gpu_line = out.substr(0, out.find('\n'));
  const auto f_count = std::count(gpu_line.begin(), gpu_line.end(), 'F');
  const auto b_count = std::count(gpu_line.begin(), gpu_line.end(), 'B');
  EXPECT_NEAR(static_cast<double>(f_count), static_cast<double>(b_count),
              2.0);
  EXPECT_NE(out.find("1000.0 ms"), std::string::npos);
}

TEST(Gantt, EmptyChartRendersNothing) {
  obs::TraceBuffer g;
  EXPECT_TRUE(render_gantt(g).empty());
}

TEST(Gantt, StepGanttCoversAllLanes) {
  const auto g = step_gantt(offload::RuntimeKind::kTecoReduction,
                            dl::bert_large_cased(), 4,
                            offload::default_calibration());
  const auto out = render_gantt(g);
  for (const char* lane :
       {"GPU fwd", "GPU bwd", "link up", "CPU clip", "CPU adam",
        "link down"}) {
    EXPECT_NE(out.find(lane), std::string::npos) << lane;
  }
  EXPECT_GT(latest_end(g), 0.0);
}

TEST(Gantt, TecoFinishesInsideAdamBaselineDoesNot) {
  const auto& cal = offload::default_calibration();
  const auto teco = step_gantt(offload::RuntimeKind::kTecoReduction,
                               dl::t5_large(), 4, cal);
  const auto base = step_gantt(offload::RuntimeKind::kZeroOffload,
                               dl::t5_large(), 4, cal);
  EXPECT_LT(latest_end(teco), latest_end(base));
}

SessionConfig update_config() {
  SessionConfig cfg;
  cfg.protocol = coherence::Protocol::kUpdate;
  cfg.dba_enabled = true;
  cfg.act_aft_steps = 2;
  cfg.dirty_bytes = 2;
  cfg.enable_trace = true;
  return cfg;
}

TEST(Session, ParameterWriteVisibleOnDevice) {
  Session s(update_config());
  const auto params = s.allocate_parameters("w", 256);
  std::vector<float> vals = {1.0f, 2.0f, 3.0f, 4.0f};
  s.cpu_write_parameters(params, vals);
  s.optimizer_step_complete();
  const auto dev = s.device_read_parameters(params, 4);
  EXPECT_EQ(dev, vals);
  EXPECT_GT(s.stats().update_pushes, 0u);
}

TEST(Session, GradientRoundTrip) {
  Session s(update_config());
  const auto grads = s.allocate_gradients("g", 256);
  std::vector<float> vals = {-1.0f, 0.5f};
  s.device_write_gradients(grads, vals);
  s.backward_complete();
  const auto cpu = s.cpu_read_gradients(grads, 2);
  EXPECT_EQ(cpu, vals);
}

TEST(Session, CheckActivationFollowsActAftSteps) {
  Session s(update_config());
  EXPECT_FALSE(s.check_activation(0));
  EXPECT_FALSE(s.check_activation(1));
  EXPECT_TRUE(s.check_activation(2));   // act_aft_steps = 2.
  EXPECT_TRUE(s.check_activation(3));   // Stays on.
  EXPECT_TRUE(s.dba_active());
}

TEST(Session, DbaDisabledNeverActivates) {
  auto cfg = update_config();
  cfg.dba_enabled = false;
  Session s(cfg);
  EXPECT_FALSE(s.check_activation(100000));
}

TEST(Session, DbaSpliceObservableOnDevice) {
  Session s(update_config());
  const auto params = s.allocate_parameters("w", 64);
  // Step 0-1: full precision.
  s.cpu_write_parameters(params, std::vector<float>{1.0f});
  s.optimizer_step_complete();
  s.check_activation(5);  // Activates DBA (>= 2).
  ASSERT_TRUE(s.dba_active());
  // Update that moves high bytes: device must see the splice.
  s.cpu_write_parameters(params, std::vector<float>{2.0f});
  s.optimizer_step_complete();
  const auto dev = s.device_read_parameters(params, 1);
  EXPECT_FLOAT_EQ(dev[0], dba::splice_f32(1.0f, 2.0f, 2));
  EXPECT_NE(dev[0], 2.0f);
  // A low-byte-only update transfers losslessly.
  std::uint32_t bits;
  float cur = 2.0f;  // CPU master's latest value.
  std::memcpy(&bits, &cur, 4);
  bits += 3;
  float nudged;
  std::memcpy(&nudged, &bits, 4);
  s.cpu_write_parameters(params, std::vector<float>{nudged});
  s.optimizer_step_complete();
  const auto dev2 = s.device_read_parameters(params, 1);
  std::uint32_t dev_bits;
  std::memcpy(&dev_bits, &dev2[0], 4);
  std::uint32_t want_bits;
  const float want = dba::splice_f32(dev[0], nudged, 2);
  std::memcpy(&want_bits, &want, 4);
  EXPECT_EQ(dev_bits, want_bits);
}

TEST(Session, FencesAdvanceTime) {
  Session s(update_config());
  const auto params = s.allocate_parameters("w", 4096);
  std::vector<float> vals(1024, 1.0f);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  s.cpu_write_parameters(params, vals);
  const auto t = s.optimizer_step_complete();
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(s.now(), t);
}

TEST(Session, InvalidationModeDemandFetches) {
  SessionConfig cfg;
  cfg.protocol = coherence::Protocol::kInvalidation;
  cfg.dba_enabled = false;
  Session s(cfg);
  const auto params = s.allocate_parameters("w", 256);
  s.cpu_write_parameters(params, std::vector<float>{9.0f, 8.0f});
  const auto before = s.now();
  const auto dev = s.device_read_parameters(params, 2);
  EXPECT_FLOAT_EQ(dev[0], 9.0f);
  EXPECT_FLOAT_EQ(dev[1], 8.0f);
  EXPECT_GT(s.now(), before);            // Demand fetch cost time.
  EXPECT_GT(s.stats().demand_fetches, 0u);
  EXPECT_EQ(s.stats().update_pushes, 0u);
}

TEST(Session, UpdateModeAvoidsDemandFetches) {
  Session s(update_config());
  const auto params = s.allocate_parameters("w", 256);
  s.cpu_write_parameters(params, std::vector<float>{1.0f});
  s.optimizer_step_complete();
  s.device_read_parameters(params, 1);
  EXPECT_EQ(s.stats().demand_fetches, 0u);
}

TEST(Session, TraceCapturesProtocolEvents) {
  Session s(update_config());
  const auto params = s.allocate_parameters("w", 64);
  s.cpu_write_parameters(params, std::vector<float>{1.0f});
  ASSERT_FALSE(s.spans().empty());
  EXPECT_EQ(s.spans().events().front().lane, "home_agent");
}

TEST(Session, ProtocolEventsShareTheSpanCap) {
  SessionConfig cfg = update_config();
  cfg.obs_trace_max_spans = 2;
  Session s(cfg);
  const auto params = s.allocate_parameters("w", 256);
  s.cpu_write_parameters(params, std::vector<float>{1.0f, 2.0f});
  s.optimizer_step_complete();
  // ReadOwn + GO_Flush fill the cap; the later FlushAll and step spans drop.
  EXPECT_EQ(s.spans().size(), 2u);
  EXPECT_GT(s.spans().dropped(), 0u);
#ifndef TECO_OBS_DISABLED
  EXPECT_EQ(s.metrics().counter("obs.trace.dropped_spans").value(),
            static_cast<double>(s.spans().dropped()));
#endif
}

TEST(Session, ReportsFailedTraceWrite) {
  SessionConfig cfg;
  cfg.obs_trace_path = testing::TempDir() + "teco_no_such_dir/trace.json";
  testing::internal::CaptureStderr();
  { Session s(cfg); }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[teco.obs] cannot write trace to " +
                     cfg.obs_trace_path),
            std::string::npos)
      << err;
}

TEST(Session, GiantCacheCapacityEnforced) {
  SessionConfig cfg;
  cfg.giant_cache_capacity = 128;  // Two lines only.
  Session s(cfg);
  s.allocate_parameters("a", 128);
  EXPECT_THROW(s.allocate_parameters("b", 64), std::length_error);
}

TEST(Session, ListingOneTrainingLoop) {
  // The full Listing-1 shape: N steps of backward/check/step with real
  // values flowing through the coherent domain.
  test::MessageCounter msgs;  // Outlives the session.
  Session s(update_config());
  s.add_observer(&msgs);
  const auto params = s.allocate_parameters("w", 1024);
  const auto grads = s.allocate_gradients("g", 1024);
  std::vector<float> p(256, 1.0f), g(256, 0.0f);
  for (std::size_t step = 0; step < 5; ++step) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = 0.01f * static_cast<float>(step);
    }
    s.device_write_gradients(grads, g);
    s.backward_complete();
    s.check_activation(step);
    for (auto& v : p) v -= 0.001f;
    s.cpu_write_parameters(params, p);
    s.optimizer_step_complete();
  }
  EXPECT_TRUE(s.dba_active());
  const auto dev = s.device_read_parameters(params, 256);
  // DBA staleness is bounded: the device copy can lag the CPU master by at
  // most one upper-byte quantum (~2^-8 relative for values near 1.0),
  // because only the low two bytes of each update cross the link.
  EXPECT_NEAR(dev[0], p[0], 0.005f);
  EXPECT_EQ(s.stats().demand_fetches, 0u);
  EXPECT_GT(msgs.count(cxl::MessageType::kFlushData), 0u);
  EXPECT_EQ(msgs.count(cxl::MessageType::kInvalidate), 0u);
}

TEST(SessionTelemetry, StepMetricsAndSnapshotsAccrue) {
  Session s(update_config());
  struct CapturingSink final : obs::StepSink {
    std::vector<obs::StepSnapshot> snaps;
    void on_step(const obs::StepSnapshot& snap) override {
      snaps.push_back(snap);
    }
  };
  CapturingSink sink;
  s.step_publisher().add_sink(&sink);

  const auto params = s.allocate_parameters("w", 1024);
  std::vector<float> p(256, 1.0f);
  for (std::size_t step = 0; step < 3; ++step) {
    for (auto& v : p) v -= 0.001f;
    s.cpu_write_parameters(params, p);
    s.backward_complete();
    s.optimizer_step_complete();
  }
  EXPECT_EQ(s.steps_completed(), 3u);
  ASSERT_EQ(sink.snaps.size(), 3u);
  EXPECT_EQ(sink.snaps[2].step, 2u);
  // The link counters and step timing landed in the session registry
  // (recording is compiled out under TECO_OBS=OFF).
#ifndef TECO_OBS_DISABLED
  EXPECT_GT(s.metrics().value("coherence.m2s.msgs"), 0.0);
  EXPECT_GT(s.metrics().value("cxl.down.bytes"), 0.0);
  EXPECT_GT(s.metrics().value("step.total_us"), 0.0);
  EXPECT_GT(s.metrics().value("step.fence_drain_us"), 0.0);
#endif
  // Fence drains emit spans plus one span per completed step.
  std::size_t step_spans = 0;
  for (const auto& e : s.spans().events()) {
    if (e.lane == "step") ++step_spans;
  }
  EXPECT_EQ(step_spans, 3u);
  // Snapshot deltas sum to the registry total for a monotone counter.
  double sum = 0.0;
  for (const auto& snap : sink.snaps) {
    for (const auto& d : snap.deltas) {
      if (d.name == "step.total_us") sum += d.value;
    }
  }
  EXPECT_DOUBLE_EQ(sum, s.metrics().value("step.total_us"));
}

TEST(SessionTelemetry, JsonlAndTraceFilesWritten) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "teco_obs_test.jsonl";
  const std::string trace = dir + "teco_obs_test_trace.json";
  {
    auto cfg = update_config();
    cfg.obs_jsonl_path = jsonl;
    cfg.obs_trace_path = trace;
    Session s(cfg);
    const auto params = s.allocate_parameters("w", 256);
    std::vector<float> p(64, 2.0f);
    s.cpu_write_parameters(params, p);
    s.backward_complete();
    s.optimizer_step_complete();
  }  // ~Session writes the unified trace.
  std::ifstream jf(jsonl);
  ASSERT_TRUE(jf.good());
  std::string line;
  ASSERT_TRUE(std::getline(jf, line));
  EXPECT_NE(line.find("\"step\":0"), std::string::npos);
  EXPECT_NE(line.find("cxl.down.bytes"), std::string::npos);
  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good());
  std::stringstream buf;
  buf << tf.rdbuf();
  EXPECT_NE(buf.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(buf.str().find("step 0"), std::string::npos);
}

TEST(SessionAllocator, RejectsZeroByteRegions) {
  Session s;
  EXPECT_THROW(s.allocate_parameters("empty", 0), std::invalid_argument);
  EXPECT_THROW(s.allocate_gradients("empty", 0), std::invalid_argument);
}

TEST(SessionAllocator, RejectsAbsurdSizes) {
  Session s;
  EXPECT_THROW(s.allocate_parameters("galaxy", 1ull << 62),
               std::length_error);
}

TEST(SessionAllocator, FailsLoudlyOnAddressSpaceExhaustion) {
  // Shrink the decode window so exhaustion is reachable with small maps:
  // 1 MiB of allocatable space above the allocator's base.
  SessionConfig cfg;
  cfg.addr_space_bytes = 0x1000'0000ull + (1ull << 20);
  Session s(cfg);
  s.allocate_parameters("a", 512ull << 10);
  s.allocate_parameters("b", 512ull << 10);  // Window now exactly full.
  try {
    s.allocate_parameters("c", 64);
    FAIL() << "expected address-space exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'c'"), std::string::npos);
  }
}

TEST(SessionAllocator, KeepsLineAlignmentAcrossOddSizes) {
  Session s;
  const auto a = s.allocate_parameters("odd", 65);  // Rounds to two lines.
  const auto b = s.allocate_gradients("next", 1);
  EXPECT_EQ(a % mem::kLineBytes, 0u);
  EXPECT_EQ(b % mem::kLineBytes, 0u);
  EXPECT_EQ(b - a, 2 * mem::kLineBytes);
}

}  // namespace
}  // namespace teco::core
