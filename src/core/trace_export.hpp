// Chrome trace_event JSON export — the unified trace composer.
//
// Emits the JSON Array Format the Chrome tracing ecosystem consumes
// (chrome://tracing, https://ui.perfetto.dev). ChromeTraceComposer splices
// three kinds of content into ONE file per run:
//
//   * obs::TraceBuffer spans — complete ("X") duration events per lane row:
//     Gantt lanes, step/fence/tier spans, protocol events,
//   * counter tracks         — "C" events rendering as area charts,
//   * a critical path        — "X" slices joined by "s"/"f" flow arrows.
//
// Each add_* call lands under a process row ("pid") so several charts can
// coexist in one viewer session. Times are exported in microseconds, the
// format's native unit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/causal.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"

namespace teco::core {

/// A named counter track (e.g. "HBM bytes" over the step).
struct CounterSeries {
  std::string name;
  std::vector<std::pair<sim::Time, std::uint64_t>> points;
};

class ChromeTraceComposer {
 public:
  /// Add the spans of `buf` as threads of process `pid` (named
  /// `process_name`): one thread per distinct lane, events named by
  /// SpanEvent::name. Repeated pids reuse the existing process row.
  void add_spans(const obs::TraceBuffer& buf,
                 const std::string& process_name, int pid = 2);

  /// Add one "C" counter track per series under process `pid`.
  void add_counters(const std::vector<CounterSeries>& counters, int pid = 1);

  /// Add an extracted critical path (obs::causal::critical_path): one "X"
  /// slice per path segment on a per-category lane, plus Perfetto flow
  /// arrows ("s"/"f" with bp:"e") splicing consecutive segments so the
  /// viewer draws the path hopping across category rows. Idle gap-fill
  /// segments render as slices but do not carry arrows.
  void add_critical_path(const obs::causal::Attribution& a,
                         const std::string& process_name, int pid = 3);

  std::size_t events() const { return events_.size(); }

  /// The composed trace_event JSON array.
  std::string json() const;

  /// Write json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  /// Thread id for (pid, lane), allocating metadata on first sight.
  std::size_t lane_tid(int pid, const std::string& lane);
  void name_process(int pid, const std::string& name);

  std::vector<std::string> events_;  ///< Pre-rendered JSON objects.
  std::vector<std::pair<int, std::string>> lanes_;  ///< (pid, lane) -> tid.
  std::vector<int> named_pids_;
  std::uint64_t next_flow_id_ = 1;  ///< Shared id per "s"/"f" arrow pair.
};

}  // namespace teco::core
