#include "fabric/pool.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dba/aggregator.hpp"

namespace teco::fabric {

PooledMemory::PooledMemory(std::uint64_t capacity_bytes, mem::Addr base)
    : capacity_(capacity_bytes), next_(mem::line_base(base)) {}

std::optional<mem::Region> PooledMemory::try_carve(std::string name,
                                                   std::uint32_t owner,
                                                   std::uint64_t bytes) {
  shard_.assert_held();
  const std::uint64_t rounded =
      (bytes + mem::kLineBytes - 1) / mem::kLineBytes * mem::kLineBytes;
  if (rounded == 0 || carved_ + rounded > capacity_) {
    ++rejects_;
    if (m_rejects_ != nullptr) m_rejects_->add();
    return std::nullopt;
  }
  const mem::Region region{next_, rounded};
  next_ += rounded;
  carved_ += rounded;
  carveouts_.push_back(Carveout{std::move(name), owner, region});
  if (m_carved_ != nullptr) m_carved_->set(static_cast<double>(carved_));
  return region;
}

void PooledMemory::set_metrics(obs::MetricsRegistry* reg) {
  shard_.assert_held();
  if (reg == nullptr) {
    m_carved_ = nullptr;
    m_rejects_ = nullptr;
    return;
  }
  m_carved_ = &reg->gauge("fabric.pool.carved_bytes");
  m_rejects_ = &reg->counter("fabric.pool.admission_rejects");
  m_carved_->set(static_cast<double>(carved_));
}

ReduceUnit::ReduceUnit(PooledMemory& pool,
                       std::vector<mem::Region> contributions,
                       mem::Region result)
    : pool_(pool),
      contributions_(std::move(contributions)),
      result_(result),
      lines_(result.lines()) {
  for (const mem::Region& c : contributions_) {
    if (c.lines() != lines_) {
      throw std::invalid_argument(
          "ReduceUnit: contribution/result line counts differ");
    }
  }
  acc_.assign(lines_ * mem::kWordsPerLine, 0.0f);
  counts_.assign(lines_ * contributions_.size(), 0);
  fold_order_.assign(lines_, {});
}

void ReduceUnit::begin_step() {
  shard_.assert_held();
  std::fill(acc_.begin(), acc_.end(), 0.0f);
  std::fill(counts_.begin(), counts_.end(), 0);
  for (auto& order : fold_order_) order.clear();
}

sim::Time ReduceUnit::fold(sim::Time now, std::uint32_t node,
                           std::uint64_t line) {
  shard_.assert_held();
  if (node >= contributions_.size() || line >= lines_) {
    throw std::out_of_range("ReduceUnit::fold: node or line out of range");
  }
  const mem::Addr src = contributions_[node].base + line * mem::kLineBytes;
  float words[mem::kWordsPerLine] = {};
  pool_.store().read_f32s(src, words);
  float* acc = &acc_[line * mem::kWordsPerLine];
  for (std::uint64_t w = 0; w < mem::kWordsPerLine; ++w) acc[w] += words[w];
  ++counts_[line * contributions_.size() + node];
  fold_order_[line].push_back(node);
  ++folds_;
  if (m_folds_ != nullptr) m_folds_->add();
  return now + dba::kModeledDbaLatency;
}

sim::Time ReduceUnit::commit(sim::Time now, std::uint64_t line) {
  shard_.assert_held();
  if (line >= lines_) {
    throw std::out_of_range("ReduceUnit::commit: line out of range");
  }
  mem::BackingStore::Line out{};
  std::memcpy(out.data(), &acc_[line * mem::kWordsPerLine], mem::kLineBytes);
  pool_.store().write_line(result_.base + line * mem::kLineBytes, out);
  ++commits_;
  if (m_commits_ != nullptr) m_commits_->add();
  return now + dba::kModeledDbaLatency;
}

std::uint32_t ReduceUnit::fold_count(std::uint64_t line,
                                     std::uint32_t node) const {
  shard_.assert_held();
  return counts_.at(line * contributions_.size() + node);
}

std::span<const float> ReduceUnit::accumulator(std::uint64_t line) const {
  shard_.assert_held();
  return std::span<const float>(&acc_[line * mem::kWordsPerLine],
                                mem::kWordsPerLine);
}

std::optional<std::string> ReduceUnit::check_invariants() const {
  shard_.assert_held();
  for (std::uint64_t line = 0; line < lines_; ++line) {
    for (std::uint32_t n = 0; n < contributions_.size(); ++n) {
      if (counts_[line * contributions_.size() + n] > 1) {
        return "merge applied " +
               std::to_string(counts_[line * contributions_.size() + n]) +
               " times for node " + std::to_string(n) + " on line " +
               std::to_string(line);
      }
    }
    float expect[mem::kWordsPerLine] = {};
    for (const std::uint32_t n : fold_order_[line]) {
      const mem::Addr src = contributions_[n].base + line * mem::kLineBytes;
      float words[mem::kWordsPerLine] = {};
      pool_.store().read_f32s(src, words);
      for (std::uint64_t w = 0; w < mem::kWordsPerLine; ++w) {
        expect[w] += words[w];
      }
    }
    if (std::memcmp(expect, &acc_[line * mem::kWordsPerLine],
                    mem::kLineBytes) != 0) {
      return "accumulator of line " + std::to_string(line) +
             " diverged from the fold-order recompute (lost or corrupted "
             "contribution bytes)";
    }
  }
  return std::nullopt;
}

void ReduceUnit::set_metrics(obs::MetricsRegistry* reg) {
  shard_.assert_held();
  if (reg == nullptr) {
    m_folds_ = nullptr;
    m_commits_ = nullptr;
    return;
  }
  m_folds_ = &reg->counter("fabric.reduce.lines_folded");
  m_commits_ = &reg->counter("fabric.reduce.commits");
}

}  // namespace teco::fabric
