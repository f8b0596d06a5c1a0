#include "core/gantt.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>

#include "offload/step_model.hpp"

namespace teco::core {

void add_occupancy(
    obs::TraceBuffer& buf, const std::string& lane,
    const std::vector<std::pair<sim::Time, std::uint64_t>>& points,
    std::uint64_t capacity, sim::Time t_end) {
  if (points.empty() || capacity == 0) return;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const sim::Time start = points[i].first;
    const sim::Time end =
        i + 1 < points.size() ? points[i + 1].first : t_end;
    if (end <= start) continue;
    const std::uint64_t level =
        std::min<std::uint64_t>(9, points[i].second * 10 / capacity);
    buf.emit(lane, std::string(1, static_cast<char>('0' + level)), start,
             end);
  }
}

std::string render_gantt(const obs::TraceBuffer& buf, std::size_t width) {
  sim::Time max_end = 0.0;
  std::vector<std::string> lanes;
  for (const auto& s : buf.events()) {
    max_end = std::max(max_end, s.end);
    if (std::find(lanes.begin(), lanes.end(), s.lane) == lanes.end()) {
      lanes.push_back(s.lane);
    }
  }
  if (max_end <= 0.0 || width == 0) return {};
  std::size_t name_width = 0;
  for (const auto& l : lanes) name_width = std::max(name_width, l.size());

  auto col = [&](sim::Time t) {
    return std::min(width - 1, static_cast<std::size_t>(
                                   t / max_end * static_cast<double>(width)));
  };
  std::ostringstream os;
  for (const auto& lane : lanes) {
    std::string row(width, '.');
    for (const auto& s : buf.events()) {
      if (s.lane != lane) continue;
      const std::size_t a = col(s.begin);
      const std::size_t b = std::max(col(s.end), a);
      for (std::size_t c = a; c <= b; ++c) row[c] = s.name[0];
    }
    os << lane << std::string(name_width - lane.size(), ' ') << " |" << row
       << "|\n";
  }
  char label[64];
  std::snprintf(label, sizeof label, "%.1f ms", max_end * 1e3);
  os << std::string(name_width, ' ') << " 0" << std::string(width - 1, '-')
     << "> " << label << "\n";
  return os.str();
}

obs::TraceBuffer step_gantt(offload::RuntimeKind kind,
                            const dl::ModelConfig& m, std::uint32_t batch,
                            const offload::Calibration& cal) {
  using offload::RuntimeKind;
  const auto in = offload::compute_step_inputs(m, batch, cal);
  const auto s = offload::simulate_step(kind, m, batch, cal);

  obs::TraceBuffer g;
  const sim::Time fwd_end = in.forward;
  const sim::Time bwd_end = in.forward + in.backward;
  g.emit("GPU fwd", "F", 0.0, fwd_end);
  g.emit("GPU bwd", "B", fwd_end, bwd_end);

  // Gradient transfer occupies the up-link from early backward until its
  // exposure past bwd_end (TECO) or trails the buffer flushes (baseline).
  const sim::Time grads_done = bwd_end + s.grad_transfer_exposed;
  const bool teco = kind == RuntimeKind::kTecoCxl ||
                    kind == RuntimeKind::kTecoReduction;
  const sim::Time grad_xfer_start =
      kind == RuntimeKind::kCxlInvalidation
          ? bwd_end
          : (teco ? fwd_end
                  : fwd_end + in.backward *
                                  static_cast<double>(in.grad_buffer_bytes) /
                                  static_cast<double>(in.grad_bytes));
  g.emit("link up", "^", grad_xfer_start, grads_done);

  const sim::Time clip_end = grads_done + in.grad_clip;
  const sim::Time adam_end = clip_end + in.adam;
  g.emit("CPU clip", "c", grads_done, clip_end);
  g.emit("CPU adam", "A", clip_end, adam_end);

  const sim::Time params_done = adam_end + s.param_transfer_exposed;
  const sim::Time param_xfer_start =
      teco ? clip_end
           : (kind == RuntimeKind::kCxlInvalidation ? adam_end : adam_end);
  g.emit("link down", "v", param_xfer_start, params_done);
  return g;
}

obs::TraceBuffer activation_gantt(const offload::ActivationStepReport& r,
                                  std::uint64_t hbm_capacity,
                                  std::uint64_t giant_cache_capacity) {
  obs::TraceBuffer g;
  g.emit("GPU fwd", "F", 0.0, r.sched.forward_end);
  g.emit("GPU bwd", "B", r.sched.forward_end, r.sched.backward_end);
  for (const auto& [s, e] : r.sched.stalls) g.emit("stall", "!", s, e);

  // Migration traffic, split by path: the two CXL directions share the
  // wire with the gradient/parameter streams; giant-cache copies do not.
  for (const auto& t : r.sched.transfers) {
    const bool gc = t.from == tier::Tier::kGiantCache ||
                    t.to == tier::Tier::kGiantCache;
    if (gc) {
      g.emit("giant$ cp", "g", t.start, t.end);
    } else if (t.to == tier::Tier::kHbm) {
      g.emit("mig down", "p", t.start, t.end);
    } else {
      g.emit("mig up", "e", t.start, t.end);
    }
  }

  const sim::Time bwd_end = r.sched.backward_end;
  const sim::Time grads_done = bwd_end + r.grad_transfer_exposed;
  g.emit("link up", "^", r.sched.forward_end, grads_done);
  const sim::Time clip_end = grads_done + r.grad_optimizer;
  const sim::Time adam_end = clip_end + r.param_optimizer;
  g.emit("CPU clip", "c", grads_done, clip_end);
  g.emit("CPU adam", "A", clip_end, adam_end);
  g.emit("link down", "v", clip_end, adam_end + r.param_transfer_exposed);

  const sim::Time t_end = adam_end + r.param_transfer_exposed;
  const std::array<std::uint64_t, tier::kTierCount> caps = {
      hbm_capacity, giant_cache_capacity,
      r.profile.peak_live_bytes()};  // CXL lane scaled to the working set.
  for (std::size_t i = 0; i < tier::kTierCount; ++i) {
    add_occupancy(
        g, "occ " + std::string(tier::to_string(static_cast<tier::Tier>(i))),
        r.sched.occupancy[i].points, caps[i], t_end);
  }
  return g;
}

}  // namespace teco::core
