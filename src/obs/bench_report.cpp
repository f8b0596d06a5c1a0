#include "obs/bench_report.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"

namespace teco::obs {

namespace {

// Stamped during static initialisation, before main(), so wall_clock_s
// covers the whole bench process. Host-side report only: never feeds
// simulated time or event order.
// teco-lint: allow(wallclock) — host-side bench wall time only.
const auto kProcessStart = std::chrono::steady_clock::now();

void upsert(std::vector<BenchReport::Entry>& entries, const std::string& key,
            std::string json_value) {
  for (auto& e : entries) {
    if (e.key == key) {
      e.json_value = std::move(json_value);
      return;
    }
  }
  entries.push_back({key, std::move(json_value)});
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  const char* smoke = std::getenv("TECO_SMOKE");
  smoke_ = smoke != nullptr && smoke[0] == '1';
}

void BenchReport::set_config(const std::string& key,
                             const std::string& value) {
  upsert(config_, key, '"' + json_escape(value) + '"');
}

void BenchReport::set_config(const std::string& key, double value) {
  upsert(config_, key, json_number(value));
}

void BenchReport::set_headline(const std::string& key, double value) {
  upsert(headline_, key, json_number(value));
}

std::string BenchReport::json() const {
  const double wall =
      // teco-lint: allow(wallclock) — report-only elapsed time.
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    kProcessStart)
          .count();
  std::string out = "{\n";
  out += "  \"schema\": \"teco-bench-v1\",\n";
  out += "  \"name\": \"" + json_escape(name_) + "\",\n";
  out += std::string("  \"smoke\": ") + (smoke_ ? "true" : "false") + ",\n";

  auto emit_block = [&out](const char* label,
                           const std::vector<Entry>& entries) {
    out += std::string("  \"") + label + "\": {";
    bool first = true;
    for (const Entry& e : entries) {
      if (!first) out += ',';
      first = false;
      out += "\n    \"" + json_escape(e.key) + "\": " + e.json_value;
    }
    out += entries.empty() ? "},\n" : "\n  },\n";
  };
  emit_block("config", config_);
  emit_block("headline", headline_);

  out += "  \"metrics\": {";
  if (registry_ != nullptr) {
    bool first = true;
    for (const Sample& s : registry_->samples()) {
      if (!first) out += ',';
      first = false;
      out += "\n    \"" + json_escape(s.name) + "\": " + json_number(s.value);
    }
    if (!first) out += "\n  ";
  }
  out += "},\n";
  out += "  \"wall_clock_s\": " + json_number(wall) + "\n";
  out += "}\n";
  return out;
}

std::string BenchReport::write() const {
  std::string dir;
  if (const char* env = std::getenv("TECO_BENCH_DIR");
      env != nullptr && env[0] != '\0') {
    dir = env;
    if (dir.back() != '/') dir += '/';
  }
  const std::string path = dir + "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return {};
  out << json();
  return out ? path : std::string{};
}

}  // namespace teco::obs
