// teco::obs — span tracing on the simulated clock.
//
// A Span marks a [begin, end] interval on sim::Time and lands in a
// TraceBuffer, the one record of "X happened over [t0, t1]": step and fence
// spans, home-agent protocol events (instants, begin == end), and Gantt
// lanes (one-character glyph names, drawn by core::render_gantt) all live
// here. core::ChromeTraceComposer splices buffers and counter tracks into
// one Chrome/Perfetto trace_event JSON per run.
//
// Spans are RAII against the *simulated* clock, which has no global "now":
// construct with a pointer to the owner's clock variable and the span
// closes at whatever that clock reads on destruction —
//
//   obs::Span s(&spans_, "step", "step 12", &now_);
//   ... advance now_ through fences and compute ...
//   // ~Span records [begin, now_]
//
// or close explicitly with close(end) when the end time is computed rather
// than tracked. A null buffer makes every operation a no-op, so call sites
// need no `if (tracing)` guards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace teco::obs {

struct SpanEvent {
  std::string lane;  ///< Row in the viewer ("step", "tier.prefetch", ...).
  std::string name;  ///< Event label ("step 12", "t7 evict", ...).
  sim::Time begin = 0.0;
  sim::Time end = 0.0;
};

class TraceBuffer {
 public:
  /// Default span cap. Long runs (bench_serve_slo sweeps) emit spans per
  /// request iteration; the cap bounds memory, and overflow is counted in
  /// dropped() (surfaced as `obs.trace.dropped_spans` by core::Session)
  /// instead of growing silently.
  static constexpr std::size_t kDefaultMaxSpans = std::size_t{1} << 20;

  void emit(std::string lane, std::string name, sim::Time begin,
            sim::Time end) {
    if (events_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    events_.push_back(
        {std::move(lane), std::move(name), begin, begin > end ? begin : end});
  }

  const std::vector<SpanEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Spans rejected because the cap was hit (earliest spans win).
  std::uint64_t dropped() const { return dropped_; }
  std::size_t max_spans() const { return max_spans_; }
  void set_max_spans(std::size_t cap) { max_spans_ = cap; }

 private:
  std::vector<SpanEvent> events_;
  std::size_t max_spans_ = kDefaultMaxSpans;
  std::uint64_t dropped_ = 0;
};

/// RAII interval. Exactly one of close(end) / the clock pointer supplies
/// the end time; with neither, the span degenerates to an instant at
/// `begin` (still visible in the trace, still better than silence).
class Span {
 public:
  Span(TraceBuffer* buf, std::string lane, std::string name, sim::Time begin,
       const sim::Time* clock = nullptr)
      : buf_(buf), lane_(std::move(lane)), name_(std::move(name)),
        begin_(begin), clock_(clock) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record the span now with an explicit end time; destruction becomes a
  /// no-op afterwards.
  void close(sim::Time end) {
    if (buf_ != nullptr) {
      buf_->emit(std::move(lane_), std::move(name_), begin_, end);
    }
    buf_ = nullptr;
  }

  ~Span() {
    if (buf_ != nullptr) {
      close(clock_ != nullptr ? *clock_ : begin_);
    }
  }

 private:
  TraceBuffer* buf_;
  std::string lane_;
  std::string name_;
  sim::Time begin_;
  const sim::Time* clock_;
};

}  // namespace teco::obs
