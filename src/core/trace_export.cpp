#include "core/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace teco::core {

namespace {

std::string us(sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", t * 1e6);
  return buf;
}

}  // namespace

void ChromeTraceComposer::name_process(int pid, const std::string& name) {
  if (std::find(named_pids_.begin(), named_pids_.end(), pid) !=
      named_pids_.end()) {
    return;
  }
  named_pids_.push_back(pid);
  std::ostringstream os;
  os << R"({"name":"process_name","ph":"M","pid":)" << pid
     << R"(,"tid":0,"args":{"name":")" << obs::json_escape(name) << R"("}})";
  events_.push_back(os.str());
}

std::size_t ChromeTraceComposer::lane_tid(int pid, const std::string& lane) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].first == pid && lanes_[i].second == lane) return i + 1;
  }
  lanes_.emplace_back(pid, lane);
  const std::size_t tid = lanes_.size();
  std::ostringstream os;
  os << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)"
     << tid << R"(,"args":{"name":")" << obs::json_escape(lane) << R"("}})";
  events_.push_back(os.str());
  os.str({});
  os << R"({"name":"thread_sort_index","ph":"M","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"args":{"sort_index":)" << tid << "}}";
  events_.push_back(os.str());
  return tid;
}

void ChromeTraceComposer::add_spans(const obs::TraceBuffer& buf,
                                    const std::string& process_name,
                                    int pid) {
  name_process(pid, process_name);
  for (const auto& s : buf.events()) {
    const std::size_t tid = lane_tid(pid, s.lane);
    std::ostringstream os;
    os << R"({"name":")" << obs::json_escape(s.name) << R"(","cat":")"
       << obs::json_escape(s.lane) << R"(","ph":"X","pid":)" << pid
       << R"(,"tid":)" << tid << R"(,"ts":)" << us(s.begin) << R"(,"dur":)"
       << us(std::max(0.0, s.end - s.begin)) << "}";
    events_.push_back(os.str());
  }
}

void ChromeTraceComposer::add_counters(
    const std::vector<CounterSeries>& counters, int pid) {
  for (const auto& c : counters) {
    for (const auto& [t, v] : c.points) {
      std::ostringstream os;
      os << R"({"name":")" << obs::json_escape(c.name)
         << R"(","ph":"C","pid":)" << pid << R"(,"ts":)" << us(t)
         << R"(,"args":{"bytes":)" << v << "}}";
      events_.push_back(os.str());
    }
  }
}

void ChromeTraceComposer::add_critical_path(
    const obs::causal::Attribution& a, const std::string& process_name,
    int pid) {
  using obs::causal::Category;
  using obs::causal::PathSegment;
  name_process(pid, process_name);
  const std::vector<PathSegment>& segs = a.segments;
  for (const PathSegment& s : segs) {
    const std::string lane =
        std::string("critpath.") + obs::causal::to_string(s.cat);
    const std::size_t tid = lane_tid(pid, lane);
    std::ostringstream os;
    os << R"({"name":")" << obs::causal::to_string(s.cat)
       << R"(","cat":"critpath","ph":"X","pid":)" << pid << R"(,"tid":)"
       << tid << R"(,"ts":)" << us(s.begin) << R"(,"dur":)"
       << us(std::max(0.0, s.end - s.begin)) << "}";
    events_.push_back(os.str());
  }
  // Flow arrows between consecutive non-idle hops: "s" binds inside the
  // source slice at its end, "f" (bp:"e") inside the destination at its
  // begin — adjacent segments share that instant, so the viewer draws the
  // arrow across the lane hop.
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    if (segs[i].cat == Category::kIdle || segs[i + 1].cat == Category::kIdle) {
      continue;
    }
    const std::uint64_t id = next_flow_id_++;
    const std::size_t src_tid = lane_tid(
        pid, std::string("critpath.") + obs::causal::to_string(segs[i].cat));
    const std::size_t dst_tid =
        lane_tid(pid, std::string("critpath.") +
                          obs::causal::to_string(segs[i + 1].cat));
    std::ostringstream os;
    os << R"({"name":"critpath","cat":"critpath","ph":"s","id":)" << id
       << R"(,"pid":)" << pid << R"(,"tid":)" << src_tid << R"(,"ts":)"
       << us(segs[i].end) << "}";
    events_.push_back(os.str());
    os.str({});
    os << R"({"name":"critpath","cat":"critpath","ph":"f","bp":"e","id":)"
       << id << R"(,"pid":)" << pid << R"(,"tid":)" << dst_tid << R"(,"ts":)"
       << us(segs[i + 1].begin) << "}";
    events_.push_back(os.str());
  }
}

std::string ChromeTraceComposer::json() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i != 0) os << ",\n";
    os << events_[i];
  }
  os << "\n]\n";
  return os.str();
}

bool ChromeTraceComposer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << json();
  return static_cast<bool>(f);
}

}  // namespace teco::core
