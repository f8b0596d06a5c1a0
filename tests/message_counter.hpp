// Test helper: per-type link message counts, read from the observer hook.
//
// cxl::Link reports every send (message type and burst count) through
// check::Observer::on_packet, with or without TECO_OBS telemetry. Tests
// attach this counter to a link, a home agent (through an ObserverMux next
// to the strict checker) or a Session, then assert how many messages of
// each type crossed.
#pragma once

#include <array>
#include <cstdint>

#include "check/observer.hpp"
#include "cxl/packet.hpp"

namespace teco::test {

class MessageCounter final : public check::Observer {
 public:
  void on_packet(sim::Time /*now*/, std::uint8_t /*dir*/,
                 std::uint8_t msg_type, mem::Addr /*addr*/,
                 std::uint64_t count, sim::Time /*delivered*/) override {
    counts_[msg_type] += count;
  }

  std::uint64_t count(cxl::MessageType t) const {
    return counts_[static_cast<std::uint8_t>(t)];
  }

 private:
  std::array<std::uint64_t, 256> counts_{};
};

}  // namespace teco::test
