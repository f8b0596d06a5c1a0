#include "recorders.hpp"

#include <cstdio>
#include <cstring>
#include <optional>
#include <span>

#include "dba/aggregator.hpp"
#include "dba/disaggregator.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {

using teco::cxl::Channel;
using teco::cxl::Direction;

void DomainRecorder::on_dba_pack(const std::uint8_t* src,
                                 const std::uint8_t* /*payload*/,
                                 std::size_t /*payload_len*/,
                                 std::uint8_t reg_bits) {
  ++events_;
  Pack p{};
  std::memcpy(p.src.data(), src, p.src.size());
  p.reg_bits = reg_bits;
  packs_.push_back(p);
}

void DomainRecorder::on_dba_merge(const std::uint8_t* old_line,
                                  const std::uint8_t* payload,
                                  std::size_t payload_len,
                                  const std::uint8_t* merged,
                                  std::uint8_t reg_bits) {
  ++events_;
  Merge m{};
  std::memcpy(m.old_line.data(), old_line, m.old_line.size());
  std::memcpy(m.payload.data(), payload, payload_len);
  std::memcpy(m.merged.data(), merged, m.merged.size());
  m.payload_len = static_cast<std::uint8_t>(payload_len);
  m.reg_bits = reg_bits;
  merges_.push_back(m);
}

ChannelReplay replay_channel(const std::vector<SendRecorder::Send>& sends,
                             const teco::cxl::Link& link, bool streams) {
  const teco::cxl::PhyConfig& phy = link.phy();
  // Link's default queue depth: 128 entries per direction.
  Channel down("cpu->dev", phy.cxl_bandwidth(), phy.packet_latency);
  Channel up("dev->cpu", phy.cxl_bandwidth(), phy.packet_latency);
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (const SendRecorder::Send& s : sends) {
    Channel& ch = s.dir == Direction::kCpuToDevice ? down : up;
    sink += streams ? ch.submit_stream(s.t_ready, s.pkt, s.count).delivered
                    : ch.submit(s.t_ready, s.pkt).delivered;
  }
  ChannelReplay r;
  r.host_s = seconds_since(t0);
  r.calls = sends.size();
  const auto same = [](const Channel& a, const Channel& b) {
    const auto& x = a.stats();
    const auto& y = b.stats();
    return x.packets == y.packets && x.busy_time == y.busy_time &&
           x.producer_stall == y.producer_stall &&
           x.last_delivery == y.last_delivery;
  };
  r.matches = sink >= 0.0 &&
              same(down, link.channel(Direction::kCpuToDevice)) &&
              same(up, link.channel(Direction::kDeviceToCpu));
  return r;
}

DbaReplay replay_dba(const DomainRecorder& rec) {
  // One unit per register value seen (4 mode bits).
  std::array<std::optional<teco::dba::Aggregator>, 16> agg;
  std::array<std::optional<teco::dba::Disaggregator>, 16> dis;
  for (const auto& p : rec.packs()) {
    if (!agg[p.reg_bits & 15u]) {
      agg[p.reg_bits & 15u].emplace(teco::dba::DbaRegister::decode(p.reg_bits));
    }
  }
  for (const auto& m : rec.merges()) {
    if (!dis[m.reg_bits & 15u]) {
      dis[m.reg_bits & 15u].emplace(teco::dba::DbaRegister::decode(m.reg_bits));
    }
  }

  DbaReplay r;
  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (const auto& p : rec.packs()) {
    sink += agg[p.reg_bits & 15u]->pack(p.src).size();
  }
  const double pack_s = seconds_since(t0);

  bool ok = true;
  t0 = Clock::now();
  for (const auto& m : rec.merges()) {
    const auto out = dis[m.reg_bits & 15u]->merge(
        m.old_line, std::span<const std::uint8_t>(m.payload.data(),
                                                  m.payload_len));
    ok = ok && out == m.merged;
  }
  const double merge_s = seconds_since(t0);

  if (!rec.packs().empty()) {
    r.pack_ns = pack_s * 1e9 / static_cast<double>(rec.packs().size());
  }
  if (!rec.merges().empty()) {
    r.merge_ns = merge_s * 1e9 / static_cast<double>(rec.merges().size());
  }
  r.matches = ok && sink > 0;
  return r;
}

// --- Shared helpers ----------------------------------------------------------

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 finaliser over (seed, k).
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string registry_fingerprint(const teco::obs::MetricsRegistry& reg) {
  std::string out;
  for (const auto& s : reg.samples()) {
    if (s.name.rfind("obs.", 0) == 0) continue;
    out += s.name + '=' + exact(s.value) + ';';
  }
  return out;
}

std::string metrics_fingerprint(const Metrics& m) {
  std::string out;
  for (const auto& [name, metric] : m) {
    out += name + '=' + exact(metric.value) + ';';
  }
  return out;
}

std::map<std::string, double> registry_values(
    const teco::obs::MetricsRegistry& reg) {
  std::map<std::string, double> out;
  for (const auto& s : reg.samples()) out[s.name] = s.value;
  return out;
}

void add_critpath_shares(
    Metrics& layers, const std::vector<double>& by_category_s,
    std::initializer_list<teco::obs::causal::Category> cats) {
  double total = 0.0;
  for (const double v : by_category_s) total += v;
  for (const auto cat : cats) {
    const double v = by_category_s[static_cast<std::size_t>(cat)];
    layers[std::string("obs.critpath.") + teco::obs::causal::to_string(cat) +
           "_pct"] = {total > 0.0 ? 100.0 * v / total : 0.0, "%"};
  }
}

}  // namespace perfbench
