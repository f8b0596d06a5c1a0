// Sparse byte-addressable backing store.
//
// Holds the actual contents of CPU memory and the accelerator giant cache in
// the data-carrying paths (DBA merge correctness, coherence data movement
// tests). Pages are allocated lazily at cache-line granularity; untouched
// lines read as zero, mirroring zero-initialized simulated DRAM. Every
// accessor costs one hash lookup per line it touches, never one per byte or
// per float, so callers move whole buffers with one span call.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/annotations.hpp"
#include "mem/address.hpp"

namespace teco::mem {

class BackingStore {
 public:
  using Line = std::array<std::uint8_t, kLineBytes>;

  /// Read the 64-byte line containing `addr` (zeros if never written).
  Line read_line(Addr addr) const {
    shard_.assert_held();
    const auto it = lines_.find(line_index(addr));
    if (it == lines_.end()) return Line{};
    return it->second;
  }

  void write_line(Addr addr, const Line& data) {
    shard_.assert_held();
    lines_[line_index(addr)] = data;
  }

  /// Byte-granular accessors that may straddle lines. Both work one line at
  /// a time: the span is split at line boundaries and each piece costs one
  /// map lookup plus a memcpy (a memset when `read` meets a line that was
  /// never written, which reads as zero). `write` creates every line the
  /// span touches, even partially, exactly as a byte-at-a-time loop would,
  /// so resident_lines() counts lines touched; a zero-length span touches
  /// none. tests/mem_test.cpp checks both against that byte loop.
  void write(Addr addr, std::span<const std::uint8_t> bytes) {
    shard_.assert_held();
    for (std::size_t done = 0; done < bytes.size();) {
      const Addr a = addr + done;
      const std::size_t off = a % kLineBytes;
      const std::size_t n =
          std::min<std::size_t>(kLineBytes - off, bytes.size() - done);
      std::memcpy(lines_[line_index(a)].data() + off, bytes.data() + done, n);
      done += n;
    }
  }

  void read(Addr addr, std::span<std::uint8_t> out) const {
    shard_.assert_held();
    for (std::size_t done = 0; done < out.size();) {
      const Addr a = addr + done;
      const std::size_t off = a % kLineBytes;
      const std::size_t n =
          std::min<std::size_t>(kLineBytes - off, out.size() - done);
      const auto it = lines_.find(line_index(a));
      if (it == lines_.end()) {
        std::memset(out.data() + done, 0, n);
      } else {
        std::memcpy(out.data() + done, it->second.data() + off, n);
      }
      done += n;
    }
  }

  /// Float-array forms of write/read: `values` lands at `addr` in host byte
  /// order, float i at `addr + 4 * i`, the layout write_f32 gives.
  void write_f32s(Addr addr, std::span<const float> values) {
    write(addr, {reinterpret_cast<const std::uint8_t*>(values.data()),
                 values.size_bytes()});
  }

  void read_f32s(Addr addr, std::span<float> out) const {
    read(addr, {reinterpret_cast<std::uint8_t*>(out.data()), out.size_bytes()});
  }

  float read_f32(Addr addr) const {
    float f = 0.0f;
    read_f32s(addr, {&f, 1});
    return f;
  }

  void write_f32(Addr addr, float f) { write_f32s(addr, {&f, 1}); }

  std::size_t resident_lines() const {
    shard_.assert_held();
    return lines_.size();
  }
  void clear() {
    shard_.assert_held();
    lines_.clear();
  }

  /// Visit every resident line as (line base address, contents), in
  /// ascending address order. The order is a contract, not a convenience:
  /// the ft checkpoint engine and PersistentStore::commit serialize lines
  /// in visit order, so it must not depend on hash-table layout (which
  /// varies with insertion/rehash history) or replayed checkpoint images
  /// stop being bit-identical. tests/lint_test.cpp pins this.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    shard_.assert_held();
    std::vector<std::uint64_t> indices;
    indices.reserve(lines_.size());
    // Keys are sorted below before any order escapes to the visitor.
    // teco-lint: allow(unordered-iter)
    for (const auto& [index, line] : lines_) indices.push_back(index);
    std::sort(indices.begin(), indices.end());
    for (const std::uint64_t index : indices) {
      fn(static_cast<Addr>(index * kLineBytes), lines_.find(index)->second);
    }
  }

 private:
  // Byte contents belong to the shard that owns this address range;
  // cross-shard reads must go through the coherence protocol, not here.
  core::ShardCapability shard_;
  std::unordered_map<std::uint64_t, Line> lines_ TECO_SHARD_AFFINE(shard_);
};

}  // namespace teco::mem
