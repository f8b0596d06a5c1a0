// Unit tests for the memory substrate: addresses, caches, DRAM, stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/address.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/rng.hpp"

namespace teco::mem {
namespace {

TEST(Address, LineHelpers) {
  EXPECT_EQ(line_base(0), 0u);
  EXPECT_EQ(line_base(63), 0u);
  EXPECT_EQ(line_base(64), 64u);
  EXPECT_EQ(line_index(128), 2u);
  EXPECT_TRUE(line_aligned(192));
  EXPECT_FALSE(line_aligned(193));
}

TEST(Address, RegionContainsAndOverlaps) {
  const Region r{1024, 256};
  EXPECT_TRUE(r.contains(1024));
  EXPECT_TRUE(r.contains(1279));
  EXPECT_FALSE(r.contains(1280));
  EXPECT_TRUE(r.contains_line(1216));
  EXPECT_FALSE(r.contains_line(1280));
  EXPECT_EQ(r.lines(), 4u);
  EXPECT_TRUE(r.overlaps(Region{1200, 64}));
  EXPECT_FALSE(r.overlaps(Region{1280, 64}));
  EXPECT_FALSE(r.overlaps(Region{0, 1024}));
}

TEST(Cache, PresetsMatchTableII) {
  EXPECT_EQ(l1_config().size_bytes, 8u * 1024);
  EXPECT_EQ(l1_config().ways, 8u);
  EXPECT_EQ(l2_config().size_bytes, 64u * 1024);
  EXPECT_EQ(l2_config().ways, 16u);
  EXPECT_EQ(llc_config().size_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(llc_config().ways, 64u);
  EXPECT_EQ(llc_config().sets(),
            16u * 1024 * 1024 / (64 * 64));
}

TEST(Cache, RejectsBadConfig) {
  EXPECT_THROW(Cache(CacheConfig{0, 8, 64}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{1000, 8, 64}), std::invalid_argument);
}

TEST(Cache, HitMissAndLru) {
  Cache c(CacheConfig{4 * 64, 2, 64});  // 2 sets x 2 ways.
  EXPECT_EQ(c.lookup(0), nullptr);      // Miss.
  c.insert(0, 1, false);
  EXPECT_NE(c.lookup(0), nullptr);  // Hit.
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);

  // Same set: lines 0 and 2*64 map to set 0 with 2 sets.
  c.insert(2 * 64, 1, false);
  c.lookup(0);  // Touch 0 so line 128 becomes LRU.
  c.insert(4 * 64, 1, false);  // Evicts 128.
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(2 * 64));
  EXPECT_TRUE(c.contains(4 * 64));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c(CacheConfig{2 * 64, 1, 64});  // Direct-mapped, 2 sets.
  std::vector<Addr> wb;
  c.set_writeback_fn([&](Addr a, std::uint8_t) { wb.push_back(a); });
  c.insert(0, 3, /*dirty=*/true);
  c.insert(2 * 64, 3, false);  // Same set, evicts dirty line 0.
  ASSERT_EQ(wb.size(), 1u);
  EXPECT_EQ(wb[0], 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionDoesNotWriteBack) {
  Cache c(CacheConfig{2 * 64, 1, 64});
  int wb = 0;
  c.set_writeback_fn([&](Addr, std::uint8_t) { ++wb; });
  c.insert(0, 1, false);
  c.insert(2 * 64, 1, false);
  EXPECT_EQ(wb, 0);
}

TEST(Cache, FlushDirtyKeepsLinesResident) {
  Cache c(llc_config());
  int wb = 0;
  c.set_writeback_fn([&](Addr, std::uint8_t) { ++wb; });
  c.insert(0, 1, true);
  c.insert(64, 1, true);
  c.insert(128, 1, false);
  EXPECT_EQ(c.flush_dirty(), 2u);
  EXPECT_EQ(wb, 2);
  EXPECT_EQ(c.resident_lines(), 3u);
  EXPECT_EQ(c.flush_dirty(), 0u);  // Now clean.
}

TEST(Cache, InvalidateOptionalWriteback) {
  Cache c(llc_config());
  int wb = 0;
  c.set_writeback_fn([&](Addr, std::uint8_t) { ++wb; });
  c.insert(0, 1, true);
  EXPECT_TRUE(c.invalidate(0, /*writeback_on_invalidate=*/false));
  EXPECT_EQ(wb, 0);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.invalidate(0));
  c.insert(64, 1, true);
  EXPECT_TRUE(c.invalidate(64, true));
  EXPECT_EQ(wb, 1);
}

TEST(Cache, InsertReusesInvalidatedSlotBeforeEvicting) {
  // Regression: invalidate() leaves a valid=false husk in the set. A full
  // set with a husk has free capacity — insert() must reuse it instead of
  // evicting a live line, and must not report a phantom on_cache_drop for
  // the husk (whose stale state byte would corrupt an attached checker's
  // mirror of CPU residency). Found by the teco::mc model checker.
  struct DropCounter final : check::Observer {
    int drops = 0;
    void on_cache_drop(Addr, std::uint8_t, bool) override { ++drops; }
  };
  Cache c(CacheConfig{2 * 64, 2, 64});  // One set, two ways.
  DropCounter obs;
  c.set_observer(&obs);
  c.insert(0, 1, false);
  c.insert(64, 1, false);
  EXPECT_TRUE(c.invalidate(0));  // Husk occupies a slot; one real drop.
  EXPECT_EQ(obs.drops, 1);
  c.insert(128, 1, false);  // Must land in the husk's slot.
  EXPECT_EQ(obs.drops, 1);  // No phantom drop for the husk.
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_TRUE(c.contains(64));  // The live line survived.
  EXPECT_TRUE(c.contains(128));
  EXPECT_EQ(c.resident_lines(), 2u);
}

TEST(Cache, InsertUpdatesExistingLine) {
  Cache c(llc_config());
  c.insert(0, 1, false);
  auto& meta = c.insert(0, 2, true);
  EXPECT_EQ(meta.state, 2);
  EXPECT_TRUE(meta.dirty);
  EXPECT_EQ(c.resident_lines(), 1u);
}

// Reference for the differential test below: a verbatim copy of the Cache
// that grew a set before reusing an invalidated slot (husks piled up until
// the set reached `ways` slots). Hits, misses, evictions, victims and
// callbacks must not depend on that choice; only slot order inside a set
// may.
class GrowFirstCache {
 public:
  using WritebackFn = std::function<void(Addr, std::uint8_t)>;

  explicit GrowFirstCache(CacheConfig cfg) : cfg_(cfg) {
    sets_.resize(cfg_.sets());
    for (auto& s : sets_) s.reserve(cfg_.ways);
  }

  CacheLineMeta* lookup(Addr addr) {
    const Addr base = line_base(addr);
    for (auto& line : set_for(addr)) {
      if (line.valid && line.base == base) {
        line.last_use = ++tick_;
        ++stats_.hits;
        return &line;
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  const CacheLineMeta* peek(Addr addr) {
    const Addr base = line_base(addr);
    for (const auto& line : set_for(addr)) {
      if (line.valid && line.base == base) return &line;
    }
    return nullptr;
  }

  CacheLineMeta& insert(Addr addr, std::uint8_t state, bool dirty) {
    const Addr base = line_base(addr);
    auto& set = set_for(addr);
    for (auto& line : set) {
      if (line.valid && line.base == base) {
        line.state = state;
        line.dirty = line.dirty || dirty;
        line.last_use = ++tick_;
        return line;
      }
    }
    if (set.size() < cfg_.ways) {
      set.push_back(CacheLineMeta{base, true, dirty, state, ++tick_});
      return set.back();
    }
    for (auto& line : set) {
      if (!line.valid) {
        line = CacheLineMeta{base, true, dirty, state, ++tick_};
        return line;
      }
    }
    CacheLineMeta* victim = &set.front();
    for (auto& line : set) {
      if (line.last_use < victim->last_use) victim = &line;
    }
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.writebacks;
      if (writeback_) writeback_(victim->base, victim->state);
    }
    if (observer_ != nullptr) {
      observer_->on_cache_drop(victim->base, victim->state, victim->dirty);
    }
    *victim = CacheLineMeta{base, true, dirty, state, ++tick_};
    return *victim;
  }

  bool invalidate(Addr addr, bool writeback_on_invalidate) {
    const Addr base = line_base(addr);
    for (auto& line : set_for(addr)) {
      if (line.valid && line.base == base) {
        if (line.dirty && writeback_on_invalidate) {
          ++stats_.writebacks;
          if (writeback_) writeback_(line.base, line.state);
        }
        if (observer_ != nullptr) {
          observer_->on_cache_drop(line.base, line.state, line.dirty);
        }
        line.valid = false;
        line.dirty = false;
        return true;
      }
    }
    return false;
  }

  std::uint64_t flush_dirty() {
    std::uint64_t n = 0;
    for (auto& set : sets_) {
      for (auto& line : set) {
        if (line.valid && line.dirty) {
          ++stats_.writebacks;
          if (writeback_) writeback_(line.base, line.state);
          line.dirty = false;
          ++n;
        }
      }
    }
    return n;
  }

  void set_writeback_fn(WritebackFn fn) { writeback_ = std::move(fn); }
  void set_observer(check::Observer* obs) { observer_ = obs; }
  const CacheStats& stats() const { return stats_; }

  std::uint64_t resident_lines() const {
    std::uint64_t n = 0;
    for (const auto& set : sets_) {
      for (const auto& line : set) {
        if (line.valid) ++n;
      }
    }
    return n;
  }

  void for_each(const std::function<void(const CacheLineMeta&)>& fn) const {
    for (const auto& set : sets_) {
      for (const auto& line : set) {
        if (line.valid) fn(line);
      }
    }
  }

 private:
  std::vector<CacheLineMeta>& set_for(Addr addr) {
    return sets_[(addr / cfg_.line_bytes) % sets_.size()];
  }

  CacheConfig cfg_;
  std::vector<std::vector<CacheLineMeta>> sets_;
  WritebackFn writeback_;
  check::Observer* observer_ = nullptr;
  CacheStats stats_;
  std::uint64_t tick_ = 0;
};

using MetaKey = std::tuple<Addr, bool, bool, std::uint8_t, std::uint64_t>;

MetaKey key_of(const CacheLineMeta& m) {
  return {m.base, m.valid, m.dirty, m.state, m.last_use};
}

MetaKey key_of(const CacheLineMeta* m) {
  return m == nullptr ? MetaKey{0, false, false, 0, 0} : key_of(*m);
}

struct DropLog final : check::Observer {
  std::vector<std::tuple<Addr, std::uint8_t, bool>> drops;
  void on_cache_drop(Addr line, std::uint8_t state, bool dirty) override {
    drops.emplace_back(line, state, dirty);
  }
};

template <typename C>
std::vector<MetaKey> sorted_resident(const C& c) {
  std::vector<MetaKey> out;
  c.for_each([&](const CacheLineMeta& m) { out.push_back(key_of(m)); });
  std::sort(out.begin(), out.end());
  return out;
}

/// The for_each walk grouped by set: (set index, that set's lines sorted),
/// in visit order. Slot order within a set may differ between the two
/// caches; the order of sets and each set's contents may not.
template <typename C>
std::vector<std::pair<std::uint64_t, std::vector<MetaKey>>> walk_by_set(
    const C& c, std::uint64_t sets) {
  std::vector<std::pair<std::uint64_t, std::vector<MetaKey>>> out;
  c.for_each([&](const CacheLineMeta& m) {
    const std::uint64_t set = m.base / kLineBytes % sets;
    if (out.empty() || out.back().first != set) out.push_back({set, {}});
    out.back().second.push_back(key_of(m));
  });
  for (auto& [set, lines] : out) std::sort(lines.begin(), lines.end());
  return out;
}

TEST(Cache, MatchesGrowFirstReference) {
  struct Shape {
    CacheConfig cfg;
    std::uint64_t line_pool;  ///< Distinct line indices the trace draws.
    int ops;
  };
  std::vector<Shape> shapes;
  for (std::uint32_t ways = 1; ways <= 4; ++ways) {
    for (std::uint64_t sets = 1; sets <= 4; ++sets) {
      shapes.push_back({CacheConfig{sets * ways * kLineBytes, ways,
                                    kLineBytes},
                        sets * ways * 3, 4000});
    }
  }
  // 256 sets: occupied sets span several 64-set words of the walk bitmap.
  shapes.push_back({CacheConfig{256 * 2 * kLineBytes, 2, kLineBytes},
                    256 * 2 * 3, 6000});
  // The LLC, with lines drawn from a few sets so they overflow 64 ways.
  shapes.push_back({llc_config(), 0, 20000});

  for (const Shape& shape : shapes) {
    const std::uint64_t sets = shape.cfg.sets();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("ways " + std::to_string(shape.cfg.ways) + " sets " +
                   std::to_string(sets) + " seed " + std::to_string(seed));
      sim::Rng rng(seed);
      Cache c(shape.cfg);
      GrowFirstCache ref(shape.cfg);
      std::vector<std::pair<Addr, std::uint8_t>> wb_c, wb_ref;
      c.set_writeback_fn(
          [&](Addr a, std::uint8_t s) { wb_c.emplace_back(a, s); });
      ref.set_writeback_fn(
          [&](Addr a, std::uint8_t s) { wb_ref.emplace_back(a, s); });
      DropLog drop_c, drop_ref;
      c.set_observer(&drop_c);
      ref.set_observer(&drop_ref);

      const auto draw_addr = [&]() -> Addr {
        std::uint64_t line;
        if (shape.line_pool != 0) {
          line = rng.next_below(shape.line_pool);
        } else {
          line = rng.next_below(4) + sets * rng.next_below(100);
        }
        return line * kLineBytes + rng.next_below(kLineBytes);
      };

      for (int op = 0; op < shape.ops; ++op) {
        wb_c.clear();
        wb_ref.clear();
        drop_c.drops.clear();
        drop_ref.drops.clear();
        const Addr a = draw_addr();
        const std::uint64_t kind = rng.next_below(100);
        if (kind < 25) {
          ASSERT_EQ(key_of(c.lookup(a)), key_of(ref.lookup(a))) << "op " << op;
        } else if (kind < 35) {
          ASSERT_EQ(key_of(c.peek(a)), key_of(ref.peek(a))) << "op " << op;
        } else if (kind < 70) {
          const auto state = static_cast<std::uint8_t>(rng.next_below(4));
          const bool dirty = rng.next_below(2) == 0;
          ASSERT_EQ(key_of(c.insert(a, state, dirty)),
                    key_of(ref.insert(a, state, dirty)))
              << "op " << op;
        } else if (kind < 97) {
          const bool wb = rng.next_below(2) == 0;
          ASSERT_EQ(c.invalidate(a, wb), ref.invalidate(a, wb)) << "op " << op;
        } else {
          ASSERT_EQ(c.flush_dirty(), ref.flush_dirty()) << "op " << op;
          // A flush visits sets in index order, each set in slot order.
          // Slot order is what may differ, so the set sequence must match
          // exactly and each set's run is compared sorted.
          const auto set_of = [&](const std::pair<Addr, std::uint8_t>& w) {
            return w.first / kLineBytes % sets;
          };
          std::vector<std::uint64_t> sets_c, sets_ref;
          for (const auto& w : wb_c) sets_c.push_back(set_of(w));
          for (const auto& w : wb_ref) sets_ref.push_back(set_of(w));
          ASSERT_EQ(sets_c, sets_ref) << "op " << op;
          std::sort(wb_c.begin(), wb_c.end());
          std::sort(wb_ref.begin(), wb_ref.end());
        }
        ASSERT_EQ(wb_c, wb_ref) << "op " << op;
        ASSERT_EQ(drop_c.drops, drop_ref.drops) << "op " << op;
        const CacheStats& sc = c.stats();
        const CacheStats& sr = ref.stats();
        ASSERT_EQ(std::tie(sc.hits, sc.misses, sc.evictions, sc.writebacks),
                  std::tie(sr.hits, sr.misses, sr.evictions, sr.writebacks))
            << "op " << op;
        ASSERT_EQ(c.resident_lines(), ref.resident_lines()) << "op " << op;
        ASSERT_EQ(walk_by_set(c, sets), walk_by_set(ref, sets)) << "op " << op;
      }
      ASSERT_EQ(sorted_resident(c), sorted_resident(ref));
    }
  }
}

TEST(Dram, SequentialHitsRows) {
  Dram d;
  // 32 sequential lines land in the same row per bank stride pattern.
  for (Addr a = 0; a < 32 * 64; a += 64) d.access(a, true);
  EXPECT_GT(d.stats().row_hits, d.stats().row_misses);
}

TEST(Dram, ShuffledMissesRows) {
  const DramConfig cfg;
  Dram seq(cfg), shuf(cfg);
  std::vector<std::pair<Addr, bool>> strace, xtrace;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    strace.emplace_back(i * 64, true);
    // Large stride: every access opens a fresh row.
    xtrace.emplace_back((i * 7919) % 4096 * 64 * 1024, true);
  }
  const auto seq_cycles = seq.replay(strace);
  const auto shuf_cycles = shuf.replay(xtrace);
  EXPECT_LT(seq_cycles, shuf_cycles);
}

TEST(Dram, ReadModifyWriteAmplification) {
  // Section VIII-D: the Disaggregator adds a read per line update. The
  // paper measures 2.48x (sequential) and 1.9x (shuffled) DRAM-cycle
  // increases; the ordering (sequential amplifies MORE, because row hits
  // made the baseline cheap) must reproduce.
  const DramConfig cfg;
  auto run = [&](bool add_read, bool shuffled) {
    Dram d(cfg);
    for (std::uint64_t i = 0; i < 8192; ++i) {
      const Addr a = shuffled ? ((i * 7919) % 8192) * 64 * 997 : i * 64;
      if (add_read) d.access(a, false);
      d.access(a, true);
    }
    return d.stats().cycles;
  };
  const double seq_ratio =
      static_cast<double>(run(true, false)) / run(false, false);
  const double shuf_ratio =
      static_cast<double>(run(true, true)) / run(false, true);
  EXPECT_GT(seq_ratio, shuf_ratio);
  EXPECT_GT(seq_ratio, 1.5);
  EXPECT_LT(seq_ratio, 3.5);
  EXPECT_GT(shuf_ratio, 1.2);
  EXPECT_LT(shuf_ratio, 2.5);
}

TEST(Dram, ResetClearsState) {
  Dram d;
  d.access(0, true);
  d.reset();
  EXPECT_EQ(d.stats().cycles, 0u);
  EXPECT_EQ(d.stats().writes, 0u);
}

TEST(BackingStore, LineRoundTrip) {
  BackingStore s;
  BackingStore::Line line{};
  for (std::size_t i = 0; i < kLineBytes; ++i) {
    line[i] = static_cast<std::uint8_t>(i);
  }
  s.write_line(128, line);
  EXPECT_EQ(s.read_line(128), line);
  EXPECT_EQ(s.read_line(128 + 32), line);  // Same line.
  EXPECT_EQ(s.read_line(256), BackingStore::Line{});
}

TEST(BackingStore, ByteAccessStraddlesLines) {
  BackingStore s;
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i + 1);
  }
  s.write(60, data);  // Straddles two lines.
  std::vector<std::uint8_t> out(100);
  s.read(60, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(s.resident_lines(), 3u);
}

TEST(BackingStore, F32RoundTrip) {
  BackingStore s;
  s.write_f32(4, 3.14159f);
  EXPECT_FLOAT_EQ(s.read_f32(4), 3.14159f);
  EXPECT_FLOAT_EQ(s.read_f32(8), 0.0f);
  s.clear();
  EXPECT_FLOAT_EQ(s.read_f32(4), 0.0f);
}

// Reference for the span accessors: the byte-at-a-time read/write the store
// used before it worked one line at a time.
class ByteStore {
 public:
  void write(Addr addr, std::span<const std::uint8_t> bytes) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      BackingStore::Line& line = lines_[line_index(addr + i)];
      line[(addr + i) % kLineBytes] = bytes[i];
    }
  }

  void read(Addr addr, std::span<std::uint8_t> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto it = lines_.find(line_index(addr + i));
      out[i] = it == lines_.end() ? 0 : it->second[(addr + i) % kLineBytes];
    }
  }

  std::size_t resident_lines() const { return lines_.size(); }

  std::vector<std::pair<Addr, BackingStore::Line>> sorted_lines() const {
    std::vector<std::pair<Addr, BackingStore::Line>> out;
    for (const auto& [index, line] : lines_) {
      out.emplace_back(static_cast<Addr>(index * kLineBytes), line);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<std::uint64_t, BackingStore::Line> lines_;
};

TEST(BackingStore, SpanAccessorsMatchByteReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    BackingStore s;
    ByteStore ref;
    std::vector<std::uint8_t> buf, got, want;
    for (int op = 0; op < 3000; ++op) {
      // Mostly a 48-line window (so spans overlap earlier writes), and some
      // far lines, most of them never written.
      Addr addr = rng.next_below(48 * kLineBytes);
      if (rng.next_below(10) == 0) addr += (1 + rng.next_below(1000)) << 20;
      const std::uint64_t len_kind = rng.next_below(10);
      std::size_t len = len_kind == 0   ? 0
                        : len_kind < 5 ? rng.next_below(kLineBytes + 1)
                                       : rng.next_below(6 * kLineBytes);
      if (op % 250 == 249) {
        // Near the top of the address space, some spans wrapping past it.
        len = 1 + rng.next_below(3 * kLineBytes);
        addr = ~Addr{0} - rng.next_below(2 * len);
      }
      if (rng.next_below(2) == 0) {
        buf.resize(len);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
        s.write(addr, buf);
        ref.write(addr, buf);
      } else {
        got.assign(len, 0xAA);
        want.assign(len, 0x55);
        s.read(addr, got);
        ref.read(addr, want);
        ASSERT_EQ(got, want) << "op " << op << " addr " << addr << " len "
                             << len;
      }
      ASSERT_EQ(s.resident_lines(), ref.resident_lines()) << "op " << op;
      if (op % 50 == 0) {
        std::vector<std::pair<Addr, BackingStore::Line>> seen;
        s.for_each_line([&](Addr base, const BackingStore::Line& line) {
          seen.emplace_back(base, line);
        });
        ASSERT_EQ(seen, ref.sorted_lines()) << "op " << op;
      }
    }
  }
}

TEST(BackingStore, F32SpansUseTheF32Layout) {
  BackingStore spans;
  BackingStore words;
  std::vector<float> values(37);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.5f * static_cast<float>(i) - 3.0f;
  }
  spans.write_f32s(60, values);  // Unaligned start, straddles three lines.
  for (std::size_t i = 0; i < values.size(); ++i) {
    words.write_f32(60 + 4 * i, values[i]);
  }
  std::vector<float> back(values.size() + 2);
  spans.read_f32s(56, back);
  EXPECT_EQ(back.front(), 0.0f);
  EXPECT_EQ(back.back(), 0.0f);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i + 1], values[i]);
    EXPECT_EQ(words.read_f32(60 + 4 * i), values[i]);
  }
  EXPECT_EQ(spans.resident_lines(), words.resident_lines());
}

}  // namespace
}  // namespace teco::mem
