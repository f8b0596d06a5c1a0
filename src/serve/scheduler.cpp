#include "serve/scheduler.hpp"

#include <algorithm>
#include <string>

namespace teco::serve {

namespace {
constexpr double kSecToUs = 1e6;
}  // namespace

ServeScheduler::ServeScheduler(const ServeConfig& cfg,
                               obs::MetricsRegistry* reg)
    : cfg_(cfg),
      kvpt_(kv_bytes_per_token(cfg_.model)),
      reg_(reg != nullptr ? reg : &local_reg_),
      kv_(cfg_, q_, link_, *reg_, report_),
      arrivals_(cfg_),
      sessions_(cfg_.max_sessions),
      waiting_(cfg_.max_sessions),
      running_(cfg_.max_sessions),
      // TTFT up to 60 s at 10 ms resolution, inter-token up to 2 s at
      // 0.5 ms: wide enough that overload sweeps keep honest p999s.
      ttft_hist_(reg_->histogram("serve.ttft_us", 0.0, 60e6, 6000)),
      tpot_hist_(reg_->histogram("serve.tpot_us", 0.0, 2e6, 4000)),
      c_arrivals_(reg_->counter("serve.arrivals")),
      c_admitted_(reg_->counter("serve.admitted")),
      c_rejected_(reg_->counter("serve.rejected")),
      c_completed_(reg_->counter("serve.completed")),
      c_slo_(reg_->counter("serve.slo_attained")),
      c_tokens_(reg_->counter("serve.tokens")),
      c_prefill_iters_(reg_->counter("serve.iterations.prefill")),
      c_decode_iters_(reg_->counter("serve.iterations.decode")),
      c_prefill_tokens_(reg_->counter("serve.prefill_tokens")),
      c_stall_us_(reg_->counter("serve.kv.stall_us")) {
  link_.set_metrics(reg_);
  for (std::size_t s = cfg_.max_sessions; s > 0; --s) {
    free_.push_back(static_cast<Slot>(s - 1));  // Slot 0 pops first.
  }
}

ServeScheduler::~ServeScheduler() {
  // Fold the link's deferred cxl.* deltas into the registry, then detach
  // its flusher so an external registry may outlive this scheduler.
  (void)reg_->value("cxl.down.bytes");
  link_.set_metrics(nullptr);
}

bool ServeScheduler::attains_slo(const ServeConfig& cfg, sim::Time ttft,
                                 sim::Time mean_tpot) {
  return ttft <= cfg.slo_ttft && mean_tpot <= cfg.effective_slo_tpot();
}

void ServeScheduler::causal_note(obs::causal::Category cat, sim::Time from,
                                 sim::Time to) {
  if (causal_ == nullptr || to <= from) return;
  causal_last_ = causal_->add(cat, to, causal_last_, from);
}

void ServeScheduler::drain_arrivals() {
  while (pending_.has_value() && pending_->arrival <= q_.now()) {
    const Request r = *pending_;
    c_arrivals_.add();
    if (free_.empty()) {
      bump(report_.rejected, c_rejected_);
    } else {
      bump(report_.admitted, c_admitted_);
      const Slot s = free_.back();
      free_.pop_back();
      sessions_[s] = Session{r};
      waiting_.push_back(s);
      kv_.add_session(s, r.id);
    }
    pending_ = arrivals_.next();
  }
}

void ServeScheduler::prefill_iteration() {
  const sim::Time t = q_.now();
  // The group is the FCFS prefix of waiting_ that fits max_prefill_tokens
  // (always at least one session).
  std::size_t n = 0;
  std::uint64_t tokens = 0;
  std::uint64_t kv_need = 0;
  for (; n < waiting_.size(); ++n) {
    const std::uint32_t prompt = sessions_[waiting_[n]].req.prompt_tokens;
    if (n > 0 && tokens + prompt > cfg_.max_prefill_tokens) break;
    tokens += prompt;
    kv_need += static_cast<std::uint64_t>(prompt) * kvpt_;
  }
  const sim::Time avail = kv_.ensure_capacity(kv_need, t);
  if (avail > t) {
    report_.kv_stall += avail - t;
    c_stall_us_.add((avail - t) * kSecToUs);
    causal_note(obs::causal::Category::kEvictStall, t, avail);
  }
  const sim::Time end = avail + cfg_.cost.prefill_time(cfg_.model, tokens);
  causal_note(obs::causal::Category::kCompute, avail, end);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot slot = waiting_[i];
    Session& s = sessions_[slot];
    s.prefill_end = end;
    s.last_token = end;
    s.generated = 1;  // Prefill emits the request's first token.
    ttft_hist_.observe((end - s.req.arrival) * kSecToUs);
    if (causal_ != nullptr) {
      ttft_records_.push_back({s.req.id, s.req.arrival, end, causal_last_});
    }
    bump(report_.tokens_generated, c_tokens_);
    // Appends interleave with completions, as the HBM peak depends on it.
    kv_.append(slot, static_cast<std::uint64_t>(s.req.prompt_tokens) * kvpt_,
               end);
    if (s.generated >= s.req.decode_tokens) {
      complete(slot, end);
    } else {
      running_.push_back(slot);
    }
  }
  waiting_.pop_front(n);
  c_prefill_iters_.add();
  c_prefill_tokens_.add(static_cast<double>(tokens));
  if (end > report_.makespan) report_.makespan = end;
  q_.run_until(end);
}

void ServeScheduler::decode_iteration() {
  const sim::Time t = q_.now();
  const std::size_t width = std::min(cfg_.max_batch, running_.size());
  batch_.clear();
  for (std::size_t i = 0; i < width; ++i) batch_.push_back(running_[i]);
  running_.pop_front(width);
  kv_.set_pinned(batch_, true);
  // Residency barrier: every batch member's KV must be back in HBM before
  // the kernel launches. Prefetched sessions land (partially) hidden;
  // under kNaiveSwap everything is a fully exposed demand fetch.
  const sim::Time ready = kv_.ensure_resident(batch_, t);
  const sim::Time avail =
      kv_.ensure_capacity(static_cast<std::uint64_t>(width) * kvpt_, t);
  const sim::Time start = std::max(ready, avail);
  if (start > t) {
    report_.kv_stall += start - t;
    c_stall_us_.add((start - t) * kSecToUs);
    causal_note(ready >= avail ? obs::causal::Category::kDemandFetch
                               : obs::causal::Category::kEvictStall,
                t, start);
  }
  // Lookahead paging, issued BEFORE this iteration's compute so the wire
  // works while the kernel runs: the running sessions behind the batch
  // are the next rotations' batches. The current batch is still pinned,
  // so prefetch evictions can only take colder sessions; a prefetch that
  // would overcommit the budget is skipped entirely (see
  // KvCacheManager::prefetch).
  if (cfg_.policy != tier::Policy::kNaiveSwap &&
      cfg_.policy != tier::Policy::kAllHbm && cfg_.prefetch_depth > 0) {
    const std::size_t horizon =
        std::min(running_.size(), cfg_.max_batch * cfg_.prefetch_depth);
    for (std::size_t i = 0; i < horizon; ++i) kv_.prefetch(running_[i], start);
  }
  const std::uint64_t batch_kv =
      kv_.bytes(batch_) + static_cast<std::uint64_t>(width) * kvpt_;
  const sim::Time end = start + cfg_.cost.decode_time(cfg_.model, batch_kv);
  causal_note(obs::causal::Category::kCompute, start, end);
  kv_.append(batch_, kvpt_, end);
  kv_.set_pinned(batch_, false);
  // Rotate: finished sessions leave, the rest requeue at the back, so
  // batch membership cycles through all active sessions.
  for (const Slot slot : batch_) {
    Session& s = sessions_[slot];
    ++s.generated;
    bump(report_.tokens_generated, c_tokens_);
    tpot_hist_.observe((end - s.last_token) * kSecToUs);
    s.last_token = end;
    if (s.generated >= s.req.decode_tokens) {
      complete(slot, end);
    } else {
      running_.push_back(slot);
    }
  }
  // Victim-ordering hints for the next iteration's evictions: a session's
  // next turn is its queue position in whole rotations.
  const sim::Time iter_est = end - start;
  for (std::size_t pos = 0; pos < running_.size(); ++pos) {
    kv_.set_next_use_hint(
        running_[pos], static_cast<double>(pos / cfg_.max_batch) * iter_est);
  }
  c_decode_iters_.add();
  if (end > report_.makespan) report_.makespan = end;
  q_.run_until(end);
}

void ServeScheduler::complete(Slot slot, sim::Time t) {
  const Session& s = sessions_[slot];
  const sim::Time mean_tpot =
      s.generated > 1
          ? (t - s.prefill_end) / static_cast<double>(s.generated - 1)
          : 0.0;
  bump(report_.completed, c_completed_);
  if (attains_slo(cfg_, s.prefill_end - s.req.arrival, mean_tpot)) {
    bump(report_.slo_attained, c_slo_);
  }
  kv_.release(slot);
  free_.push_back(slot);
}

std::vector<std::string> ServeScheduler::check_invariants() const {
  shard_.assert_held();
  std::vector<std::string> out;
  const auto expect = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      out.push_back(std::string(what) + ": " + std::to_string(a) +
                    " != " + std::to_string(b));
    }
  };
  const std::size_t live = waiting_.size() + running_.size();
  expect("arrivals vs completed + live + rejected",
         arrivals_.emitted() - (pending_.has_value() ? 1 : 0),
         report_.completed + live + report_.rejected);
  expect("hbm_used vs resident + in-flight KV bytes", kv_.hbm_used(),
         kv_.charged_bytes());
  expect("live + free slots vs max_sessions", live + free_.size(),
         cfg_.max_sessions);
  return out;
}

void ServeScheduler::finalize() {
  report_.offered = arrivals_.emitted();
  report_.ttft = LatencyQuantiles{ttft_hist_.quantile(0.5) / kSecToUs,
                                  ttft_hist_.quantile(0.99) / kSecToUs,
                                  ttft_hist_.quantile(0.999) / kSecToUs};
  report_.tpot = LatencyQuantiles{tpot_hist_.quantile(0.5) / kSecToUs,
                                  tpot_hist_.quantile(0.99) / kSecToUs,
                                  tpot_hist_.quantile(0.999) / kSecToUs};
}

ServeReport ServeScheduler::run() {
  shard_.assert_held();
  pending_ = arrivals_.next();
  for (;;) {
    drain_arrivals();
    if (waiting_.empty() && running_.empty()) {
      if (!pending_.has_value()) break;
      causal_note(obs::causal::Category::kIdle, q_.now(), pending_->arrival);
      q_.run_until(pending_->arrival);  // Idle until the next arrival.
      continue;
    }
    if (!waiting_.empty() && running_.size() < cfg_.max_batch) {
      prefill_iteration();
    } else {
      decode_iteration();
    }
  }
  finalize();
  return report_;
}

}  // namespace teco::serve
