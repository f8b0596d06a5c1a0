// Textual Gantt charts of a training step's timeline.
//
// A Gantt chart is a render of obs::TraceBuffer spans: each span's name is
// a one-character glyph, its lane a row. The builders below lay out the
// overlap structure the paper's figures describe — GPU compute, CPU
// optimizer, and the two link directions — so `bert_finetune` can *show*
// why TECO hides what ZeRO-Offload exposes, and ChromeTraceComposer::
// add_spans exports the same buffer unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dl/model_zoo.hpp"
#include "obs/span.hpp"
#include "offload/activation_timeline.hpp"
#include "offload/calibration.hpp"
#include "offload/runtime.hpp"
#include "sim/time.hpp"

namespace teco::core {

/// Add a per-tier occupancy lane from a byte step function: each segment
/// becomes a span named by a digit 0-9, the occupancy as a fraction of
/// `capacity` (a poor man's area chart; the trace exporter emits the raw
/// counters).
void add_occupancy(obs::TraceBuffer& buf, const std::string& lane,
                   const std::vector<std::pair<sim::Time, std::uint64_t>>&
                       points,
                   std::uint64_t capacity, sim::Time t_end);

/// Render every lane of `buf` (in order of first appearance) over
/// [0, latest span end] scaled to `width` columns, drawing each span with
/// the first character of its name.
std::string render_gantt(const obs::TraceBuffer& buf, std::size_t width = 72);

/// The Gantt spans of one training step under `kind`, reconstructed from
/// the same phase schedule the timeline simulator uses.
obs::TraceBuffer step_gantt(offload::RuntimeKind kind,
                            const dl::ModelConfig& m, std::uint32_t batch,
                            const offload::Calibration& cal);

/// Gantt spans of one tiered-activation step: compute slots, fetch stalls,
/// migration traffic per link direction, and a per-tier occupancy lane.
obs::TraceBuffer activation_gantt(const offload::ActivationStepReport& r,
                                  std::uint64_t hbm_capacity,
                                  std::uint64_t giant_cache_capacity);

}  // namespace teco::core
