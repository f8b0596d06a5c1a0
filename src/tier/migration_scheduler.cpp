#include "tier/migration_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <string>
#include <utility>

#include "cxl/packet.hpp"

namespace teco::tier {

MigrationScheduler::MigrationScheduler(const StepProfile& prof,
                                       const TierPlan& plan,
                                       const offload::Calibration& cal,
                                       check::TierObserver* obs)
    : prof_(prof), plan_(plan), cal_(cal), obs_(obs) {
  const std::uint32_t layers = std::max(1u, prof_.n_layers);
  n_slots_ = 2ull * layers;
  consumers_.assign(n_slots_, {});
  produces_.assign(n_slots_, {});
  state_.assign(prof_.tensors.size(), {});

  for (const auto& rec : prof_.tensors) {
    for (std::size_t i = 0; i < rec.consumes.size(); ++i) {
      consumers_[slot_of(rec.consumes[i])].push_back({rec.id, i});
    }
    if (rec.cls == TensorClass::kActivation) {
      produces_[std::min<std::size_t>(rec.layer, layers - 1)].push_back(
          rec.id);
    }
  }
  for (const auto& m : plan_.migrations) {
    if (!m.prefetch || prof_.tensors[m.tensor].consumes.empty()) continue;
    const auto& rec = prof_.tensors[m.tensor];
    const std::size_t idx = std::min(m.consume_idx, rec.consumes.size() - 1);
    pending_.push_back({m.tensor, idx, slot_of(rec.consumes[idx])});
  }
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const PendingPrefetch& a, const PendingPrefetch& b) {
                     return a.slot < b.slot;
                   });
}

std::size_t MigrationScheduler::slot_of(sim::Time consume_t) const {
  const std::uint32_t layers = std::max(1u, prof_.n_layers);
  const sim::Time eps = 1e-9 * std::max(1.0, prof_.forward + prof_.backward);
  if (consume_t + eps < prof_.forward) {
    const auto i = static_cast<std::size_t>(
        (consume_t + eps) / std::max(prof_.fwd_layer_time(), 1e-30));
    return std::min<std::size_t>(i, layers - 1);
  }
  const auto r = static_cast<std::size_t>(
      (consume_t - prof_.forward + eps) /
      std::max(prof_.bwd_layer_time(), 1e-30));
  return layers + std::min<std::size_t>(r, layers - 1);
}

void MigrationScheduler::occ_change(sim::Time t, Tier tier,
                                    std::int64_t delta) {
  auto& bytes = occ_bytes_[static_cast<std::size_t>(tier)];
  const std::int64_t next = static_cast<std::int64_t>(bytes) + delta;
  assert(next >= 0 && "tier occupancy went negative");
  bytes = next < 0 ? 0 : static_cast<std::uint64_t>(next);
  auto& series = res_.occupancy[static_cast<std::size_t>(tier)];
  series.points.push_back({t, bytes});
  series.peak = std::max(series.peak, bytes);
  if (obs_ != nullptr) {
    obs_->on_tier_occupancy(t, static_cast<std::uint8_t>(tier), bytes);
  }
}

sim::Time MigrationScheduler::transfer(sim::Time t, std::uint32_t tensor,
                                       Tier from, Tier to, bool prefetch) {
  const std::uint64_t bytes = prof_.tensors[tensor].bytes;
  sim::Time end;
  if (from == Tier::kGiantCache || to == Tier::kGiantCache) {
    // Device-local copy through the BAR window; no link crossing.
    end = t + cal_.hbm_gc_copy_latency +
          static_cast<double>(bytes) / cal_.hbm_gc_copy_bw;
  } else {
    cxl::Channel* ch = to == Tier::kHbm ? down_ : up_;
    const auto pkt = cxl::data_packet(cxl::MessageType::kData, 0, bytes);
    end = ch->submit(t, pkt).delivered;
  }
  res_.transfers.push_back({t, end, from, to, tensor, bytes, prefetch});
  if (trace_ != nullptr) {
    std::string name = "t";
    name += std::to_string(tensor);
    trace_->emit(to == Tier::kHbm ? "tier.fetch" : "tier.evict",
                 std::move(name), t, end);
  }
  if (obs_ != nullptr) {
    obs_->on_tier_migration(t, tensor, static_cast<std::uint8_t>(from),
                            static_cast<std::uint8_t>(to), bytes, end,
                            prefetch);
  }
  return end;
}

void MigrationScheduler::charge_stall(sim::Time from, sim::Time to) {
  res_.stall_time += to - from;
  res_.stalls.push_back({from, to});
  m_.stall_us->add((to - from) * 1e6);
  if (trace_ != nullptr) trace_->emit("tier.stall", "stall", from, to);
}

void MigrationScheduler::causal_note(obs::causal::Category cat,
                                     sim::Time from, sim::Time to) {
  if (causal_ == nullptr || to <= from) return;
  causal_tail_ = causal_->add(cat, to, causal_tail_, from);
}

sim::Time MigrationScheduler::issue_fetch(sim::Time t, std::uint32_t tensor) {
  auto& st = state_[tensor];
  const Tier home = plan_.home[tensor];
  const sim::Time end = transfer(t, tensor, home, Tier::kHbm, true);
  st.fetching = true;
  st.hbm_ready = end;
  m_.prefetch_bytes->add(static_cast<double>(prof_.tensors[tensor].bytes));
  // Delivery flips residency on the queue, so slots after the landing see
  // the tensor in HBM without polling. The guard keeps a flip from firing
  // for a tensor that died (state reset) while the fetch was in flight.
  // The flip is the fetch landing off the down link — tag it so the
  // causal sink records why it ran.
  sim::TagScope tag(*q_, obs::causal::tag(obs::causal::Category::kCxlDown));
  q_->schedule_at(end, [this, tensor, end] {
    shard_.assert_held();
    auto& s = state_[tensor];
    if (!s.fetching || s.hbm_ready != end) return;
    s.fetching = false;
    s.in_hbm = true;
    occ_change(end, Tier::kHbm,
               static_cast<std::int64_t>(prof_.tensors[tensor].bytes));
  });
  return end;
}

sim::Time MigrationScheduler::require(sim::Time t, std::uint32_t tensor) {
  auto& st = state_[tensor];
  if (st.in_hbm) return t;
  if (st.fetching) return std::max(t, st.hbm_ready);
  // Demand fetch from the home tier, fully exposed.
  m_.demand_fetches->add();
  st.prefetched = false;
  return issue_fetch(t, tensor);
}

void MigrationScheduler::try_issue_prefetches(std::size_t horizon_slot,
                                              sim::Time t) {
  std::vector<PendingPrefetch> keep;
  keep.reserve(pending_.size());
  for (const auto& pf : pending_) {
    if (pf.slot > horizon_slot) {
      keep.push_back(pf);
      continue;
    }
    auto& st = state_[pf.tensor];
    if (st.consumed > pf.consume_idx) continue;  // Already served.
    if (st.fetching || st.in_hbm) continue;      // Resident or on its way.
    if (!st.in_lower) {
      // Not evicted yet (eviction retires later); revisit next slot.
      keep.push_back(pf);
      continue;
    }
    issue_fetch(t, pf.tensor);
    st.prefetched = true;
    m_.prefetches->add();
  }
  pending_ = std::move(keep);
}

sim::Time MigrationScheduler::evict(sim::Time t, std::uint32_t tensor) {
  auto& st = state_[tensor];
  if (!st.in_hbm) return t;
  const std::uint64_t bytes = prof_.tensors[tensor].bytes;
  if (st.in_lower) {
    // A clean copy already lives below: dropping the HBM copy is free.
    st.in_hbm = false;
    occ_change(t, Tier::kHbm, -static_cast<std::int64_t>(bytes));
    return t;
  }
  const Tier home = plan_.home[tensor];
  const sim::Time end = transfer(t, tensor, Tier::kHbm, home, false);
  st.in_hbm = false;
  st.in_lower = true;
  occ_change(end, Tier::kHbm, -static_cast<std::int64_t>(bytes));
  occ_change(end, home, static_cast<std::int64_t>(bytes));
  m_.evictions->add();
  m_.evict_bytes->add(static_cast<double>(bytes));
  return end;
}

void MigrationScheduler::exec_slot(sim::EventQueue& q, std::size_t g,
                                   sim::Time t) {
  const std::uint32_t layers = std::max(1u, prof_.n_layers);
  const bool backward = g >= layers;
  const std::uint32_t layer =
      backward ? layers - 1 - static_cast<std::uint32_t>(g - layers)
               : static_cast<std::uint32_t>(g);
  const sim::Time dur =
      backward ? prof_.bwd_layer_time() : prof_.fwd_layer_time();

  if (plan_.policy != Policy::kNaiveSwap && plan_.prefetch_depth > 0) {
    try_issue_prefetches(std::min(n_slots_ - 1, g + plan_.prefetch_depth), t);
  }

  // Gather this slot's consumers and wait for the slowest residency.
  struct Pre {
    std::uint32_t id;
    std::size_t idx;
    std::uint8_t resident;
    bool in_hbm;
  };
  std::vector<Pre> pres;
  pres.reserve(consumers_[g].size());
  sim::Time ready_all = t;
  for (const auto& [id, idx] : consumers_[g]) {
    const auto& st = state_[id];
    // A hit: the consume finds the tensor resident (or already inbound)
    // because a prefetch put it there — the quantity the prefetch-depth
    // autotuner wants maximized.
    if (st.prefetched && (st.in_hbm || st.fetching)) m_.prefetch_hits->add();
    pres.push_back({id, idx,
                    st.in_hbm ? static_cast<std::uint8_t>(Tier::kHbm)
                              : static_cast<std::uint8_t>(plan_.home[id]),
                    st.in_hbm});
    ready_all = std::max(ready_all, require(t, id));
  }
  if (obs_ != nullptr) {
    for (const auto& p : pres) {
      obs_->on_tier_access(t, p.id, p.resident, p.in_hbm, ready_all - t);
    }
  }
  if (ready_all > t) {
    charge_stall(t, ready_all);
    causal_note(obs::causal::Category::kDemandFetch, t, ready_all);
  }

  // Retire the consumes; free dead activations, re-park gap tensors.
  for (const auto& p : pres) {
    auto& st = state_[p.id];
    const auto& rec = prof_.tensors[p.id];
    st.consumed = p.idx + 1;
    const bool last_use = p.idx + 1 == rec.consumes.size();
    if (last_use && rec.cls == TensorClass::kActivation) {
      // Dead: free every copy. A still-in-flight fetch was consumed off
      // the wire — its delivery flip is disarmed by the state reset, so
      // the bytes are never charged to HBM. (Weights stay resident.)
      if (st.in_hbm) {
        occ_change(ready_all, Tier::kHbm,
                   -static_cast<std::int64_t>(rec.bytes));
      }
      if (st.in_lower) {
        occ_change(ready_all, plan_.home[p.id],
                   -static_cast<std::int64_t>(rec.bytes));
      }
      st = TState{};
      st.consumed = p.idx + 1;
    } else if (!last_use && plan_.home[p.id] != Tier::kHbm &&
               rec.consumes[p.idx + 1] > rec.consumes[p.idx]) {
      // Park it again for the gap until the next consume (a clean-copy
      // drop when the lower copy is still valid, a transfer otherwise).
      if (st.fetching) {
        // Let the in-flight fetch land first; the evict event is
        // scheduled after the delivery flip (same time, later sequence).
        sim::TagScope tag(q,
                          obs::causal::tag(obs::causal::Category::kEvictStall));
        q.schedule_at(std::max(ready_all, st.hbm_ready),
                      [this, &q, id = p.id] {
                        shard_.assert_held();
                        evict(q.now(), id);
                      });
      } else {
        evict(ready_all, p.id);
      }
    }
  }

  const sim::Time start = ready_all;
  sim::Time end = start + dur;
  causal_note(obs::causal::Category::kCompute, start, end);

  // The hook fires before the produce-time evictions so its channel
  // submissions (the gradient stream) stay in nondecreasing time order
  // with the evictions issued at this slot's end.
  if (hook_) hook_(backward, layer, start, end);

  // Forward slots materialize their activations in HBM at slot end.
  if (!backward) {
    const sim::Time eps =
        1e-9 * std::max(1.0, prof_.forward + prof_.backward);
    for (const std::uint32_t id : produces_[g]) {
      auto& st = state_[id];
      const auto& rec = prof_.tensors[id];
      st.in_hbm = true;
      occ_change(end, Tier::kHbm, static_cast<std::int64_t>(rec.bytes));
      // A tensor consumed at the very next slot boundary gains nothing
      // from leaving HBM — skip its eviction (the write-through strawman
      // still pays it, that is its defining cost).
      const bool has_gap = rec.consumes.empty() ||
                           rec.first_consume() > rec.produce + eps;
      if (plan_.home[id] != Tier::kHbm &&
          (has_gap || plan_.policy == Policy::kNaiveSwap)) {
        const sim::Time ev_end = evict(end, id);
        if (plan_.policy == Policy::kNaiveSwap && ev_end > end) {
          // Write-through: forward blocks until the line stream lands.
          charge_stall(end, ev_end);
          causal_note(obs::causal::Category::kEvictStall, end, ev_end);
          end = ev_end;
        }
      }
    }
  }

  if (g + 1 == static_cast<std::size_t>(layers)) res_.forward_end = end;
  if (g + 1 == n_slots_) {
    res_.backward_end = end;
    return;
  }
  sim::TagScope tag(q, obs::causal::tag(obs::causal::Category::kCompute));
  q.schedule_at(end, [this, &q, g] {
    shard_.assert_held();
    exec_slot(q, g + 1, q.now());
  });
}

MigrationScheduler::Handles MigrationScheduler::resolve_handles(
    obs::MetricsRegistry& reg) {
  Handles h;
  h.prefetches = &reg.counter("tier.prefetches");
  h.prefetch_bytes = &reg.counter("tier.prefetch_bytes");
  h.prefetch_hits = &reg.counter("tier.prefetch_hits");
  h.demand_fetches = &reg.counter("tier.demand_fetches");
  h.evictions = &reg.counter("tier.evictions");
  h.evict_bytes = &reg.counter("tier.evict_bytes");
  h.stall_us = &reg.counter("tier.stall_us");
  return h;
}

ScheduleResult MigrationScheduler::run(sim::EventQueue& q, cxl::Channel& up,
                                       cxl::Channel& down) {
  shard_.assert_held();
  q_ = &q;
  up_ = &up;
  down_ = &down;
  res_ = {};
  occ_bytes_ = {};
  causal_tail_ = sim::kNoCausalNode;
  if (causal_ != nullptr) q.set_causal_sink(causal_);

  // tier.* counters accumulate in the attached registry (or a private one,
  // so recording is branch-free either way); the run's share is the delta.
  obs::MetricsRegistry& reg = ext_reg_ != nullptr ? *ext_reg_ : local_reg_;
  m_ = resolve_handles(reg);
  const obs::Counter* const handles[] = {
      m_.prefetches,   m_.prefetch_bytes, m_.prefetch_hits,
      m_.demand_fetches, m_.evictions,    m_.evict_bytes,
      m_.stall_us};
  static constexpr const char* kNames[] = {
      "tier.prefetches",     "tier.prefetch_bytes", "tier.prefetch_hits",
      "tier.demand_fetches", "tier.evictions",      "tier.evict_bytes",
      "tier.stall_us"};
  double base[std::size(kNames)];
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    base[i] = handles[i]->value();
  }

  // Initial residency: weights start parked in their home tier.
  const sim::Time t0 = q.now();
  for (const auto& rec : prof_.tensors) {
    if (rec.cls != TensorClass::kWeight) continue;
    auto& st = state_[rec.id];
    if (plan_.home[rec.id] == Tier::kHbm) {
      st.in_hbm = true;
      occ_change(t0, Tier::kHbm, static_cast<std::int64_t>(rec.bytes));
    } else {
      st.in_lower = true;
      occ_change(t0, plan_.home[rec.id],
                 static_cast<std::int64_t>(rec.bytes));
    }
  }
  {
    sim::TagScope tag(q, obs::causal::tag(obs::causal::Category::kCompute));
    q.schedule_at(t0, [this, &q] {
      shard_.assert_held();
      exec_slot(q, 0, q.now());
    });
  }
  q.run();
  if (causal_ != nullptr) q.set_causal_sink(nullptr);
  res_.causal_tail = causal_tail_;

  // Stall-shifted deliveries can record occupancy slightly out of order;
  // normalize the series for renderers and exporters.
  for (auto& series : res_.occupancy) {
    std::stable_sort(series.points.begin(), series.points.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }
  res_.metrics.reserve(std::size(kNames));
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    res_.metrics.push_back({kNames[i], handles[i]->value() - base[i],
                            obs::MetricKind::kCounter, true});
  }
  return res_;
}

}  // namespace teco::tier
