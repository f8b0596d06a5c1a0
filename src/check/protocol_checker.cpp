#include "check/protocol_checker.hpp"

#include <algorithm>
#include <sstream>

#include "dba/dba_register.hpp"

namespace teco::check {

namespace {

using coherence::MesiState;
using coherence::Protocol;

constexpr std::uint8_t kMaxMesiByte =
    static_cast<std::uint8_t>(MesiState::kModified);

bool valid_state_byte(std::uint8_t s) { return s <= kMaxMesiByte; }

bool is_owner(std::uint8_t s) {
  return s == static_cast<std::uint8_t>(MesiState::kModified) ||
         s == static_cast<std::uint8_t>(MesiState::kExclusive);
}

std::string state_name(std::uint8_t s) {
  if (valid_state_byte(s)) {
    return std::string(to_string(static_cast<MesiState>(s)));
  }
  return "corrupt(" + std::to_string(s) + ")";
}

std::string_view to_string(Domain dom) {
  switch (dom) {
    case Domain::kCpuCache: return "cpu";
    case Domain::kGiantCache: return "dev";
  }
  __builtin_unreachable();
}

std::string_view to_string(Op op) {
  switch (op) {
    case Op::kNone: return "external";
    case Op::kCpuWrite: return "cpu_write";
    case Op::kCpuRead: return "cpu_read";
    case Op::kDeviceWrite: return "device_write";
    case Op::kDeviceRead: return "device_read";
    case Op::kFlushAll: return "flush_all";
  }
  __builtin_unreachable();
}

std::string hex(mem::Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

}  // namespace

std::string_view to_string(CheckLevel level) {
  switch (level) {
    case CheckLevel::kOff: return "off";
    case CheckLevel::kCount: return "count";
    case CheckLevel::kStrict: return "strict";
  }
  __builtin_unreachable();
}

std::string_view to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kSwmr: return "swmr";
    case ViolationKind::kIllegalTransition: return "illegal-transition";
    case ViolationKind::kSnoopFilter: return "snoop-filter";
    case ViolationKind::kDataValue: return "data-value";
    case ViolationKind::kDbaMerge: return "dba-merge";
    case ViolationKind::kFence: return "fence";
    case ViolationKind::kFlitConservation: return "flit-conservation";
  }
  __builtin_unreachable();
}

ProtocolChecker::ProtocolChecker(coherence::HomeAgent& agent, Options opts)
    : agent_(agent), opts_(opts) {
  for (const auto& r : agent_.giant_cache().regions()) {
    regions_.push_back(RegionInfo{r.region.base, r.region.bytes,
                                  r.dba_eligible,
                                  static_cast<std::uint8_t>(
                                      r.line_states.empty()
                                          ? MesiState::kInvalid
                                          : r.line_states.front())});
  }
  for (std::size_t d = 0; d < 2; ++d) {
    const auto& ch =
        agent_.link().channel(static_cast<cxl::Direction>(d)).stats();
    baseline_packets_[d] = ch.packets;
    last_delivery_[d] = ch.last_delivery;
  }
  agent_.set_observer(this);
}

ProtocolChecker::~ProtocolChecker() { agent_.set_observer(nullptr); }

const ProtocolChecker::RegionInfo* ProtocolChecker::region_of(
    mem::Addr line) const {
  for (const auto& r : regions_) {
    if (line >= r.base && line + mem::kLineBytes <= r.base + r.bytes) {
      return &r;
    }
  }
  return nullptr;
}

ProtocolChecker::LineInfo& ProtocolChecker::line_info(mem::Addr line) {
  const auto key = mem::line_index(line);
  auto it = lines_.find(key);
  if (it != lines_.end()) return it->second;

  // First sighting: seed the mirror from the domain's current truth, so a
  // checker attached mid-life (or after test setup) starts consistent.
  LineInfo li;
  const auto* meta = agent_.cpu_cache().peek(line);
  li.cpu = meta == nullptr ? static_cast<std::uint8_t>(MesiState::kInvalid)
                           : meta->state;
  li.dev = agent_.giant_cache().contains_line(line)
               ? static_cast<std::uint8_t>(agent_.giant_cache().state(line))
               : static_cast<std::uint8_t>(MesiState::kInvalid);
  const auto& sf = agent_.snoop_filter();
  if (sf.is_sharer(line, coherence::Sharer::kCpu)) {
    li.sharers |= static_cast<std::uint8_t>(coherence::Sharer::kCpu);
  }
  if (sf.is_sharer(line, coherence::Sharer::kDevice)) {
    li.sharers |= static_cast<std::uint8_t>(coherence::Sharer::kDevice);
  }
  ++stats_.lines_tracked;
  return lines_.emplace(key, li).first->second;
}

void ProtocolChecker::record(LineInfo& li, Domain dom, std::uint8_t from,
                             std::uint8_t to) {
  TransitionRecord rec{in_op_ ? op_now_ : last_time_, dom,
                       in_op_ ? op_ : Op::kNone, from, to};
  if (li.history_len < kHistoryDepth) {
    li.history[(li.history_head + li.history_len) % kHistoryDepth] = rec;
    ++li.history_len;
  } else {
    li.history[li.history_head] = rec;
    li.history_head = static_cast<std::uint8_t>(
        (li.history_head + 1) % kHistoryDepth);
  }
}

void ProtocolChecker::touch(mem::Addr line) {
  if (!in_op_) return;
  if (std::find(touched_.begin(), touched_.end(), line) == touched_.end()) {
    touched_.push_back(line);
  }
}

std::string ProtocolChecker::line_history(mem::Addr line) const {
  const auto it = lines_.find(mem::line_index(line));
  if (it == lines_.end()) return "(no history)";
  const LineInfo& li = it->second;
  std::ostringstream os;
  os << "history[" << static_cast<int>(li.history_len) << "]:";
  for (std::uint8_t i = 0; i < li.history_len; ++i) {
    const auto& r = li.history[(li.history_head + i) % kHistoryDepth];
    os << " {t=" << r.t << " " << to_string(r.dom) << " " << to_string(r.op)
       << " " << state_name(r.from) << "->" << state_name(r.to) << "}";
  }
  return os.str();
}

std::uint64_t& ProtocolChecker::counter_for(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kSwmr: return stats_.swmr_violations;
    case ViolationKind::kIllegalTransition: return stats_.illegal_transitions;
    case ViolationKind::kSnoopFilter: return stats_.snoop_violations;
    case ViolationKind::kDataValue: return stats_.data_value_violations;
    case ViolationKind::kDbaMerge: return stats_.dba_merge_violations;
    case ViolationKind::kFence: return stats_.fence_violations;
    case ViolationKind::kFlitConservation:
      return stats_.flit_conservation_violations;
  }
  __builtin_unreachable();
}

void ProtocolChecker::report(ViolationKind kind, const std::string& message) {
  ++counter_for(kind);
  std::string full = "[";
  full += to_string(kind);
  full += "] ";
  full += message;
  if (violations_.size() < 64) violations_.push_back(full);
  if (opts_.level == CheckLevel::kStrict) {
    throw ProtocolViolation(kind, full);
  }
}

// --- Invariant (b): transition legality -----------------------------------

void ProtocolChecker::check_transition(Domain dom, mem::Addr line,
                                       std::uint8_t from, std::uint8_t to) {
  ++stats_.transitions_checked;
  if (!valid_state_byte(from) || !valid_state_byte(to)) {
    report(ViolationKind::kIllegalTransition,
           "corrupt state byte on line " + hex(line) + ": " +
               state_name(from) + "->" + state_name(to) + "; " +
               line_history(line));
    return;
  }
  const Protocol proto = agent_.effective_protocol(line);
  const auto f = static_cast<MesiState>(from);
  const auto t = static_cast<MesiState>(to);
  bool ok;
  if (f == MesiState::kModified && t == MesiState::kShared &&
      proto == Protocol::kInvalidation) {
    // Stock MESI downgrades M->S only on a snoop read, where the dirty
    // line is written back as the kData response of a demand fetch. An
    // M->S *push* (FlushData outside a read) is the Fig. 4 extension and
    // is illegal under invalidation.
    ok = in_op_ && (op_ == Op::kCpuRead || op_ == Op::kDeviceRead);
  } else {
    ok = legal_transition(proto, f, t);
  }
  if (!ok) {
    report(ViolationKind::kIllegalTransition,
           std::string(to_string(dom)) + " line " + hex(line) +
               " illegal transition " + state_name(from) + "->" +
               state_name(to) + " under " +
               (proto == Protocol::kUpdate ? "update" : "invalidation") +
               " protocol (op=" +
               std::string(to_string(in_op_ ? op_ : Op::kNone)) + "); " +
               line_history(line));
  }
}

// --- Invariant (a): SWMR + snoop-filter consistency ------------------------

void ProtocolChecker::check_swmr(mem::Addr line, const LineInfo& li) {
  const int owners = (is_owner(li.cpu) ? 1 : 0) + (is_owner(li.dev) ? 1 : 0);
  if (owners > 1) {
    report(ViolationKind::kSwmr,
           "line " + hex(line) + " has two M/E holders (cpu=" +
               state_name(li.cpu) + ", dev=" + state_name(li.dev) + "); " +
               line_history(line));
  }
}

void ProtocolChecker::check_snoop(mem::Addr line, const LineInfo& li) {
  const Protocol proto = agent_.effective_protocol(line);
  if (proto == Protocol::kUpdate) {
    // Section IV-A2: the update protocol's producer/consumer discipline
    // needs no directory; an entry appearing here means the no-snoop-filter
    // argument was violated without a demotion.
    if (li.sharers != 0) {
      report(ViolationKind::kSnoopFilter,
             "line " + hex(line) +
                 " has snoop-filter sharers under the update protocol; " +
                 line_history(line));
    }
    return;
  }
  const auto cpu_bit = static_cast<std::uint8_t>(coherence::Sharer::kCpu);
  const auto dev_bit = static_cast<std::uint8_t>(coherence::Sharer::kDevice);
  if ((li.sharers & cpu_bit) != 0 &&
      li.cpu == static_cast<std::uint8_t>(MesiState::kInvalid)) {
    report(ViolationKind::kSnoopFilter,
           "snoop filter lists CPU as sharer of line " + hex(line) +
               " but the CPU copy is I; " + line_history(line));
  }
  if ((li.sharers & dev_bit) != 0 &&
      li.dev == static_cast<std::uint8_t>(MesiState::kInvalid)) {
    report(ViolationKind::kSnoopFilter,
           "snoop filter lists the device as sharer of line " + hex(line) +
               " but the device copy is I; " + line_history(line));
  }
}

// --- Invariant (c): data values / DBA merge conservation -------------------

void ProtocolChecker::check_data_after_op(Op op, mem::Addr line) {
  if (opts_.cpu_mem == nullptr || opts_.device_mem == nullptr) return;
  const RegionInfo* region = region_of(line);
  if (region == nullptr) return;
  const Protocol proto = agent_.effective_protocol(line);
  LineInfo& li = line_info(line);

  if (op == Op::kCpuWrite && proto == Protocol::kUpdate) {
    // The push landed: the device copy must be the source line, or its
    // DBA merge. `(old & hi_mask) | (new & lo_mask)` per FP32 word.
    const auto src = opts_.cpu_mem->read_line(line);
    const auto dev = opts_.device_mem->read_line(line);
    const dba::DbaRegister reg = agent_.dba();
    const bool trim = region->dba_eligible && reg.trims();
    if (trim) {
      const std::uint8_t n = reg.dirty_bytes();
      for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
        for (std::uint8_t b = 0; b < 4; ++b) {
          const std::size_t i = w * 4 + b;
          if (b < n) {
            if (dev[i] != src[i]) {
              report(ViolationKind::kDataValue,
                     "DBA push lost dirty byte " + std::to_string(i) +
                         " of line " + hex(line) + "; " + line_history(line));
              return;
            }
          } else if (li.has_expected_dev &&
                     dev[i] != li.expected_dev[i]) {
            report(ViolationKind::kDbaMerge,
                   "DBA merge did not conserve stale high byte " +
                       std::to_string(i) + " of line " + hex(line) + "; " +
                       line_history(line));
            return;
          }
        }
      }
    } else {
      if (dev != src) {
        report(ViolationKind::kDataValue,
               "device copy of line " + hex(line) +
                   " differs from the pushed source; " + line_history(line));
        return;
      }
    }
    if (region->dba_eligible) {
      // Parameter lines are consumer-read-only on the device: their bytes
      // may change only through protocol pushes, so the post-push value is
      // the expectation for every later device read.
      li.expected_dev = dev;
      li.has_expected_dev = true;
    }
    return;
  }

  if (op == Op::kDeviceWrite) {
    if (proto == Protocol::kUpdate) {
      // Gradient push: the CPU-side copy must equal the device source.
      if (opts_.cpu_mem->read_line(line) !=
          opts_.device_mem->read_line(line)) {
        report(ViolationKind::kDataValue,
               "CPU copy of line " + hex(line) +
                   " differs from the device push; " + line_history(line));
        return;
      }
    }
    if (region->dba_eligible) {
      // The device is now the last writer: its bytes supersede any earlier
      // push expectation, or a later device read of this line would be
      // judged against a stale mirror.
      li.expected_dev = opts_.device_mem->read_line(line);
      li.has_expected_dev = true;
    }
    return;
  }

  if (op == Op::kDeviceRead) {
    const auto dev = opts_.device_mem->read_line(line);
    if (op_sent_data_) {
      // Demand fetch completed: the device copy was legitimately replaced
      // by the CPU line, superseding any earlier expectation.
      if (dev != opts_.cpu_mem->read_line(line)) {
        report(ViolationKind::kDataValue,
               "demand fetch of line " + hex(line) +
                   " delivered bytes that differ from the CPU copy; " +
                   line_history(line));
        return;
      }
      if (region->dba_eligible) {
        li.expected_dev = dev;
        li.has_expected_dev = true;
      }
      return;
    }
    if (li.has_expected_dev && dev != li.expected_dev) {
      report(ViolationKind::kDataValue,
             "device reader of line " + hex(line) +
                 " does not observe the last writer's bytes; " +
                 line_history(line));
    }
    return;
  }

  if (op == Op::kCpuRead && op_sent_data_) {
    // Demand fetch of a device-dirty line: CPU now holds the device bytes.
    if (opts_.cpu_mem->read_line(line) != opts_.device_mem->read_line(line)) {
      report(ViolationKind::kDataValue,
             "demand fetch of line " + hex(line) +
                 " delivered bytes that differ from the device copy; " +
                 line_history(line));
    }
  }
}

// --- Observer implementation ----------------------------------------------

void ProtocolChecker::on_op_begin(sim::Time now, Op op, mem::Addr line) {
  in_op_ = true;
  op_ = op;
  op_now_ = now;
  op_line_ = line;
  op_sent_data_ = false;
  last_time_ = now;
  touched_.clear();
}

void ProtocolChecker::on_op_end(sim::Time now, Op op, mem::Addr line) {
  // Clear the scope before checking: a strict-mode throw below must not
  // leave the checker believing it is still inside the operation.
  std::vector<mem::Addr> touched = std::move(touched_);
  touched_.clear();
  in_op_ = false;
  last_time_ = now;
  ++stats_.ops_checked;
  for (const mem::Addr t : touched) {
    const LineInfo& li = line_info(t);
    check_swmr(t, li);
    check_snoop(t, li);
  }
  check_data_after_op(op, line);
}

void ProtocolChecker::on_region_mapped(mem::Addr base, std::uint64_t bytes,
                                       std::uint8_t initial_state,
                                       bool dba_eligible) {
  regions_.push_back(RegionInfo{base, bytes, dba_eligible, initial_state});
}

void ProtocolChecker::on_state_change(Domain dom, mem::Addr line,
                                      std::uint8_t from, std::uint8_t to) {
  if (region_of(line) == nullptr) return;  // Ordinary (non-coherent) memory.
  LineInfo& li = line_info(line);
  record(li, dom, from, to);
  check_transition(dom, line, from, to);
  if (dom == Domain::kCpuCache) {
    li.cpu = to;
  } else {
    li.dev = to;
  }
  if (in_op_) {
    touch(line);
  } else {
    // External poke (test/tool): no quiescent point follows, judge now.
    check_swmr(line, li);
  }
}

void ProtocolChecker::on_cache_drop(mem::Addr line, std::uint8_t state,
                                    bool /*dirty*/) {
  if (region_of(line) == nullptr) return;
  constexpr auto kI = static_cast<std::uint8_t>(MesiState::kInvalid);
  LineInfo& li = line_info(line);
  record(li, Domain::kCpuCache, state, kI);
  check_transition(Domain::kCpuCache, line, state, kI);
  li.cpu = kI;
  touch(line);
}

void ProtocolChecker::on_sharer_change(mem::Addr line, std::uint8_t before,
                                       std::uint8_t after) {
  if (before == after || region_of(line) == nullptr) return;
  line_info(line).sharers = after;
  touch(line);
}

void ProtocolChecker::on_packet(sim::Time now, std::uint8_t dir,
                                std::uint8_t /*msg_type*/, mem::Addr /*addr*/,
                                std::uint64_t count, sim::Time delivered) {
  const std::size_t d = dir == 0 ? 0 : 1;
  injected_[d] += count;
  if (delivered > last_delivery_[d]) last_delivery_[d] = delivered;
  if (now > last_time_) last_time_ = now;
  if (in_op_) op_sent_data_ = true;
}

void ProtocolChecker::on_fence(std::uint8_t dir, sim::Time now,
                               sim::Time drain) {
  const std::size_t d = dir == 0 ? 0 : 1;
  if (drain < last_delivery_[d]) {
    report(ViolationKind::kFence,
           "CXLFENCE at t=" + std::to_string(now) + " returned drain=" +
               std::to_string(drain) + " but a flit lands at t=" +
               std::to_string(last_delivery_[d]) +
               " (in-flight traffic survived the fence)");
    return;
  }
  const auto& ch =
      agent_.link().channel(static_cast<cxl::Direction>(d)).stats();
  const std::uint64_t accounted = ch.packets - baseline_packets_[d];
  if (accounted != injected_[d]) {
    report(ViolationKind::kFlitConservation,
           "flit conservation broken on direction " + std::to_string(d) +
               ": observer saw " + std::to_string(injected_[d]) +
               " injected flits but the channel accounted " +
               std::to_string(accounted) +
               " (injected != delivered + dropped-and-reported)");
  }
}

void ProtocolChecker::on_dba_pack(const std::uint8_t* src,
                                  const std::uint8_t* payload,
                                  std::size_t payload_len,
                                  std::uint8_t reg_bits) {
  const dba::DbaRegister reg = dba::DbaRegister::decode(reg_bits);
  if (!reg.trims()) {
    if (payload_len != mem::kLineBytes ||
        !std::equal(src, src + mem::kLineBytes, payload)) {
      report(ViolationKind::kDbaMerge,
             "aggregator bypass did not forward the full line unchanged");
    }
    return;
  }
  const std::uint8_t n = reg.dirty_bytes();
  if (payload_len != dba::payload_bytes(n)) {
    report(ViolationKind::kDbaMerge,
           "aggregator payload is " + std::to_string(payload_len) +
               " bytes; register dirty_bytes=" + std::to_string(n) +
               " implies " + std::to_string(dba::payload_bytes(n)));
    return;
  }
  for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
    for (std::uint8_t b = 0; b < n; ++b) {
      if (payload[w * n + b] != src[w * 4 + b]) {
        report(ViolationKind::kDbaMerge,
               "aggregator concatenated the wrong dirty bytes (word " +
                   std::to_string(w) + ")");
        return;
      }
    }
  }
}

void ProtocolChecker::on_dba_merge(const std::uint8_t* old_line,
                                   const std::uint8_t* payload,
                                   std::size_t payload_len,
                                   const std::uint8_t* merged,
                                   std::uint8_t reg_bits) {
  const dba::DbaRegister reg = dba::DbaRegister::decode(reg_bits);
  if (!reg.trims()) {
    if (payload_len != mem::kLineBytes ||
        !std::equal(payload, payload + mem::kLineBytes, merged)) {
      report(ViolationKind::kDbaMerge,
             "disaggregator bypass did not install the full payload");
    }
    return;
  }
  const std::uint8_t n = reg.dirty_bytes();
  if (payload_len != dba::payload_bytes(n)) {
    report(ViolationKind::kDbaMerge,
           "disaggregator payload size does not match the DBA register");
    return;
  }
  // Merge conservation: new = (old & hi_mask) | (payload & lo_mask).
  for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
    for (std::uint8_t b = 0; b < 4; ++b) {
      const std::size_t i = w * 4 + b;
      const std::uint8_t want = b < n ? payload[w * n + b] : old_line[i];
      if (merged[i] != want) {
        report(ViolationKind::kDbaMerge,
               "disaggregator merge corrupted byte " + std::to_string(i) +
                   " (dirty_bytes=" + std::to_string(n) + "): got " +
                   std::to_string(merged[i]) + ", want " +
                   std::to_string(want));
        return;
      }
    }
  }
}

void ProtocolChecker::verify_quiescent() {
  // Sweep in ascending line order: which violation fires (and, in strict
  // mode, throws) first must not depend on hash-table layout, or two runs
  // of the same scenario report different counterexamples.
  std::vector<std::uint64_t> keys;
  keys.reserve(lines_.size());
  // teco-lint: allow(unordered-iter)
  for (const auto& [key, li] : lines_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    const mem::Addr line = key * mem::kLineBytes;
    const LineInfo& li = lines_.find(key)->second;
    check_swmr(line, li);
    check_snoop(line, li);
  }
}

}  // namespace teco::check
