// perfbench: the repository benchmark program.
//
//   perfbench --workload <train_dba|serve_paging|fabric_reduce>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced passes of the workload for about --seconds and
// reports its host metrics, plus the modeled (sim_*) metrics of all three
// workloads for this seed. --trace 1 alternates
// untraced and traced passes of every workload for about --seconds and
// reports per-layer metrics, prefixed with the workload name.
//
// Prints one JSON object on stdout; perfbench/run.py checks its cross-check
// section against the committed baselines and prints the final result.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using PassFn = PassResult (*)(std::uint64_t, bool);

struct Workload {
  const char* name;
  PassFn run;
};

constexpr Workload kWorkloads[] = {
    {"train_dba", run_train_dba},
    {"serve_paging", run_serve_paging},
    {"fabric_reduce", run_fabric_reduce},
};

constexpr std::size_t kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Dependent pseudo-random loads over a `bytes` buffer: a cache-resident
/// buffer measures the core, one larger than the last-level cache the
/// memory system. Reported as context only.
double pointer_chase_ms(std::size_t bytes, std::size_t loads) {
  // A full-period LCG over a power-of-two index space (a = 1 mod 4, c odd)
  // links every slot into one cycle without a shuffle.
  const std::uint32_t n = static_cast<std::uint32_t>(bytes / 4);
  std::vector<std::uint32_t> next(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    next[i] = (i * 2654435769u + 12345u) & (n - 1);
  }
  std::uint32_t p = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < loads; ++i) p = next[p];
  const double ms = seconds_since(t0) * 1e3;
  return p < n ? ms : -1.0;
}

/// Moves the process to one CPU of its original affinity set per pass, in
/// turn. On a shared machine the cores run at different speeds depending on
/// what their other tenants do, and those speeds change over minutes; left
/// to the scheduler, a whole run can sit on a slow or a fast core. Visiting
/// every core gives each run the same mix. Without affinity control the
/// passes run wherever the scheduler puts them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

struct Checks {
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void absorb(const PassResult& p) {
    attempted += p.units;
    failed += p.failed;
    for (const auto& e : p.errors) failures.push_back(e);
  }
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  return '"' + teco::obs::json_escape(s) + '"';
}

std::string list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& i : items) {
    if (out.size() > 1) out += ',';
    out += str(i);
  }
  return out + ']';
}

std::string metric_json(const Metric& m) {
  return "{\"value\":" + num(m.value) + ",\"unit\":" + str(m.unit) + '}';
}

template <class Map, class Fn>
std::string object(const Map& m, Fn value) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += str(k) + ':' + value(v);
  }
  return out + '}';
}

/// Runs `w` repeatedly for about `seconds` (at least kMinPasses times).
std::vector<PassResult> run_passes(const Workload& w, std::uint64_t seed,
                                   double seconds) {
  std::vector<PassResult> passes;
  CpuRotation rotation;
  const auto t0 = Clock::now();
  for (;;) {
    rotation.next();
    passes.push_back(w.run(seed, false));
    const double elapsed = seconds_since(t0);
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= kMinPasses && elapsed + per_pass > seconds) break;
  }
  return passes;
}

std::uint64_t held_out_seed(std::uint64_t seed) {
  return sub_seed(seed, 0x5eed);
}

int run_end_to_end(const Workload& w, const Args& a) {
  Checks checks;
  Metrics metrics;
  std::map<std::string, double> samples;

  const std::vector<PassResult> passes = run_passes(w, a.seed, a.seconds);
  const double rss = peak_rss_mib();
  std::vector<double> setup, unit;
  double units = 0.0, run_s = 0.0;
  for (const PassResult& p : passes) {
    checks.absorb(p);
    checks.require(p.fingerprint == passes.front().fingerprint,
                   std::string(w.name) + ": same-seed passes differ");
    setup.push_back(p.setup_s);
    units += static_cast<double>(p.units);
    run_s += p.run_s;
    unit.insert(unit.end(), p.unit_s.begin(), p.unit_s.end());
  }
  metrics["setup_s"] = {median(setup), "s"};
  // Host speed on a shared machine switches between an uncontended and a
  // contended regime about 1.5x slower, for spells from milliseconds to
  // minutes. The overall rate moves with the share of time spent in each.
  // The fastest percentile of unit times measures the program when it has
  // the core; a higher quantile lands between the regimes whenever the
  // uncontended share falls near it, and then jumps from run to run.
  metrics["units_per_s"] = {units / run_s, "1/s"};
  metrics["unit_us.p1"] = {quantile(unit, 0.01) * 1e6, "us"};
  metrics["peak_rss_mib"] = {rss, "MiB"};

  // Modeled results of the whole suite for this seed: the measured
  // workload's come from its passes, the others from one pass each.
  for (const Workload& other : kWorkloads) {
    const PassResult p =
        &other == &w ? passes.front() : other.run(a.seed, false);
    if (&other != &w) checks.absorb(p);
    for (const auto& [k, m] : p.modeled) metrics[k] = m;
    for (const auto& [k, n] : p.samples) samples[k] = n;
  }

  // A held-out seed must change the inputs and still pass every oracle.
  const PassResult held = w.run(held_out_seed(a.seed), false);
  checks.absorb(held);
  checks.require(held.input_digest != passes.front().input_digest,
                 std::string(w.name) + ": held-out seed left inputs unchanged");

  const double passed =
      checks.attempted == 0
          ? 0.0
          : 100.0 * static_cast<double>(checks.attempted - checks.failed) /
                static_cast<double>(checks.attempted);
  metrics["passed_pct"] = {passed, "%"};

  const auto serve_x = crosscheck_serve_slo();
  const auto fabric_x = crosscheck_fabric_allreduce();

#ifdef TECO_OBS_DISABLED
  const char* obs_state = "OFF";
#else
  const char* obs_state = "ON";
#endif
  const std::string context =
      "{\"build_type\":" + str(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + str(PERFBENCH_COMPILER) +
      ",\"teco_obs\":" + str(obs_state) +
      ",\"nproc\":" + num(std::thread::hardware_concurrency()) +
      ",\"passes\":" + num(static_cast<double>(passes.size())) +
      ",\"ref_cache_resident_ms\":" +
      num(pointer_chase_ms(std::size_t{256} << 10, std::size_t{1} << 20)) +
      ",\"ref_memory_bound_ms\":" +
      num(pointer_chase_ms(std::size_t{128} << 20, std::size_t{1} << 20)) + '}';

  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s,"
      "\"samples\":%s,\"context\":%s,\"check_failures\":%s,"
      "\"crosscheck\":{\"serve_slo\":%s,\"fabric_allreduce\":%s}}\n",
      checks.failures.empty() && checks.failed == 0 ? "true" : "false",
      checks.attempted, checks.failed, object(metrics, metric_json).c_str(),
      object(samples, num).c_str(), context.c_str(),
      list(checks.failures).c_str(),
      object(serve_x, [](const std::string& v) { return v; }).c_str(),
      object(fabric_x, [](const std::string& v) { return v; }).c_str());
  return 0;
}

int run_traced(const Args& a) {
  Checks checks;
  struct Series {
    std::vector<double> untraced_s, traced_s;
    std::map<std::string, std::vector<double>> layers;
    std::map<std::string, std::string> units;
    std::string exact;  ///< Counts and modeled layer values of pass one.
  };
  std::map<std::string, Series> series;
  CpuRotation rotation;
  const auto t0 = Clock::now();
  // Round robin over the suite: one untraced and one traced pass of each
  // workload per round, until the time is used (at least two rounds).
  for (std::size_t round = 0;; ++round) {
    for (const Workload& w : kWorkloads) {
      rotation.next();  // Both passes of a pair run on the same core.
      const PassResult u = w.run(a.seed, false);
      const PassResult t = w.run(a.seed, true);
      checks.absorb(u);
      checks.absorb(t);
      checks.require(u.fingerprint == t.fingerprint,
                     std::string(w.name) + ": tracing changed the results");
      Series& s = series[w.name];
      s.untraced_s.push_back(u.run_s);
      s.traced_s.push_back(t.run_s);
      Metrics exact;
      for (const auto& [k, m] : t.layers) {
        s.layers[k].push_back(m.value);
        s.units[k] = m.unit;
        if (!m.host) exact[k] = m;
      }
      if (round == 0) s.exact = metrics_fingerprint(exact);
      checks.require(metrics_fingerprint(exact) == s.exact,
                     std::string(w.name) + ": same-seed layer counts differ");
    }
    const double elapsed = seconds_since(t0);
    if (round >= 1 && elapsed * (round + 2) / (round + 1) > a.seconds) break;
  }
  Metrics metrics;
  for (const auto& [name, s] : series) {
    for (const auto& [k, v] : s.layers) {
      metrics[name + '.' + k] = {median(v), s.units.at(k)};
    }
    metrics[name + ".trace_overhead_pct"] = {
        100.0 * (median(s.traced_s) / median(s.untraced_s) - 1.0), "%"};
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s,"
      "\"check_failures\":%s}\n",
      checks.failures.empty() && checks.failed == 0 ? "true" : "false",
      checks.attempted, checks.failed, object(metrics, metric_json).c_str(),
      list(checks.failures).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const perfbench::Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::run_traced(args)
                    : perfbench::run_end_to_end(*w, args);
}
