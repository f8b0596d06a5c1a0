// Recorders a traced pass attaches through public hooks, and the replays
// that turn their recordings into host cost per call.
//
// The simulator's link and DBA units carry no host timers. Instead a
// traced pass captures the exact sequence of link submissions (through a
// zero-delay cxl::LinkFaultHook) and of DBA pack/merge inputs (through a
// check::Observer), then replays each sequence into fresh cxl::Channel /
// dba::Aggregator / dba::Disaggregator instances and times the replay. That
// gives host nanoseconds per call on the workload's own traffic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "check/observer.hpp"
#include "cxl/link.hpp"

namespace perfbench {

/// Zero-delay fault hook that records every submission of one link.
class SendRecorder final : public teco::cxl::LinkFaultHook {
 public:
  struct Send {
    teco::cxl::Direction dir;
    teco::sim::Time t_ready;
    teco::cxl::Packet pkt;
    std::uint64_t count;
  };

  teco::sim::Time transmit_delay(teco::cxl::Direction dir,
                                 teco::sim::Time t_ready,
                                 const teco::cxl::Packet& pkt,
                                 std::uint64_t count) override {
    sends_.push_back(Send{dir, t_ready, pkt, count});
    return 0.0;
  }

  const std::vector<Send>& sends() const { return sends_; }

 private:
  std::vector<Send> sends_;
};

/// Counts every observer callback (the check layer's event load) and keeps
/// the inputs of every DBA pack and merge.
class DomainRecorder final : public teco::check::Observer {
 public:
  using Line = std::array<std::uint8_t, 64>;
  struct Pack {
    Line src;
    std::uint8_t reg_bits;
  };
  struct Merge {
    Line old_line;
    Line payload;  ///< First payload_len bytes are valid.
    Line merged;   ///< What the simulator's Disaggregator produced.
    std::uint8_t payload_len;
    std::uint8_t reg_bits;
  };

  std::uint64_t events() const { return events_; }
  const std::vector<Pack>& packs() const { return packs_; }
  const std::vector<Merge>& merges() const { return merges_; }

  void on_op_begin(teco::sim::Time, teco::check::Op, teco::mem::Addr) override {
    ++events_;
  }
  void on_op_end(teco::sim::Time, teco::check::Op, teco::mem::Addr) override {
    ++events_;
  }
  void on_region_mapped(teco::mem::Addr, std::uint64_t, std::uint8_t,
                        bool) override {
    ++events_;
  }
  void on_state_change(teco::check::Domain, teco::mem::Addr, std::uint8_t,
                       std::uint8_t) override {
    ++events_;
  }
  void on_cache_drop(teco::mem::Addr, std::uint8_t, bool) override {
    ++events_;
  }
  void on_sharer_change(teco::mem::Addr, std::uint8_t, std::uint8_t) override {
    ++events_;
  }
  void on_packet(teco::sim::Time, std::uint8_t, std::uint8_t, teco::mem::Addr,
                 std::uint64_t, teco::sim::Time) override {
    ++events_;
  }
  void on_fence(std::uint8_t, teco::sim::Time, teco::sim::Time) override {
    ++events_;
  }
  void on_dba_pack(const std::uint8_t* src, const std::uint8_t* payload,
                   std::size_t payload_len, std::uint8_t reg_bits) override;
  void on_dba_merge(const std::uint8_t* old_line, const std::uint8_t* payload,
                    std::size_t payload_len, const std::uint8_t* merged,
                    std::uint8_t reg_bits) override;

 private:
  std::uint64_t events_ = 0;
  std::vector<Pack> packs_;
  std::vector<Merge> merges_;
};

struct ChannelReplay {
  std::uint64_t calls = 0;
  double host_s = 0.0;  ///< Host time of the replayed calls.
  /// The replayed channels ended with the original link's packet count,
  /// busy time, producer stall and last delivery, exactly.
  bool matches = false;
};

/// Replays `sends` into two fresh channels built like `link`'s. `streams`
/// selects Channel::submit_stream (the path Link::send_stream takes) over
/// Channel::submit (Link::send); the fault hook cannot tell the two apart,
/// so the caller names the one its component uses.
ChannelReplay replay_channel(const std::vector<SendRecorder::Send>& sends,
                             const teco::cxl::Link& link, bool streams);

struct DbaReplay {
  double pack_ns = 0.0;   ///< Host ns per Aggregator::pack.
  double merge_ns = 0.0;  ///< Host ns per Disaggregator::merge.
  /// Every replayed merge reproduced the line the simulator produced.
  bool matches = false;
};

DbaReplay replay_dba(const DomainRecorder& rec);

}  // namespace perfbench
