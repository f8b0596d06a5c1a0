#include "ft/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/gantt.hpp"
#include "mem/address.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/rng.hpp"

namespace teco::ft {

namespace {

/// Step-keyed workload seed: replaying step s after a restore draws the
/// identical touched-line set and gradient noise as the original execution.
std::uint64_t step_seed(std::uint64_t data_seed, std::size_t step) {
  return data_seed ^
         (static_cast<std::uint64_t>(step) + 1) * 0x9e3779b97f4a7c15ULL;
}

core::SessionConfig apply_degraded(core::SessionConfig base, DegradedMode m) {
  switch (m) {
    case DegradedMode::kNone:
      break;
    case DegradedMode::kDbaOff:
      base.dba_enabled = false;
      break;
    case DegradedMode::kInvalidation:
      base.protocol = coherence::Protocol::kInvalidation;
      break;
  }
  return base;
}

}  // namespace

FtTrainResult run_ft_training(const FtTrainConfig& cfg) {
  const std::size_t n = cfg.n_params;
  const std::uint64_t bytes = n * sizeof(float);
  const std::size_t lines =
      (bytes + mem::kLineBytes - 1) / mem::kLineBytes;

  // Deterministic initial state; the accelerator starts with a copy of the
  // master parameters, as allocate_parameters' state-E mapping implies.
  std::vector<float> master(n);
  sim::Rng init_rng(cfg.data_seed);
  for (auto& p : master) {
    p = static_cast<float>(init_rng.uniform(-0.1, 0.1));
  }
  std::vector<float> accel = master;
  std::vector<float> adam_m(n, 0.0f);
  std::vector<float> adam_v(n, 0.0f);
  std::vector<float> grads(n, 0.0f);

  PersistentStore store(cfg.pmem);
  CheckpointEngine engine(store, cfg.session.ft_mode);
  RecoveryManager recovery(engine, store);
  FaultInjector injector(cfg.faults);

  core::SessionConfig scfg = cfg.session;
  if (cfg.faults.bit_error_rate > 0.0) {
    scfg.mc_bit_error_rate = cfg.faults.bit_error_rate;
  }

  obs::TraceBuffer gantt;
  DegradedMode degraded = DegradedMode::kNone;
  std::unique_ptr<core::Session> session;
  mem::Addr pbase = 0;
  mem::Addr gbase = 0;

  // (Re)build the coherent domain. A device crash loses the device-side
  // state, so recovery constructs a fresh session, re-maps the regions (the
  // bump allocator is deterministic: same bases), seeds both memories from
  // the restored images and fast-forwards the clock to the recovery point.
  auto build_session = [&](sim::Time resume_at) {
    // ft.* totals must survive a device crash even though the coherent
    // domain (and with it the telemetry registry) is rebuilt: carry the
    // old session's values into the new one.
    double ckpt_bytes = 0.0;
    double dirty_lines = 0.0;
    double recovery_us = 0.0;
    if (session != nullptr) {
      ckpt_bytes = session->metrics().value("ft.checkpoint_bytes");
      dirty_lines = session->metrics().value("ft.dirty_lines");
      recovery_us = session->metrics().value("ft.recovery_us");
    }
    session = std::make_unique<core::Session>(apply_degraded(scfg, degraded));
    pbase = session->allocate_parameters("ft_params", bytes);
    gbase = session->allocate_gradients("ft_grads", bytes);
    session->seed_cpu_memory(pbase, master);
    session->seed_device_memory(pbase, accel);
    session->add_observer(&engine);
    session->add_observer(&injector);
    session->set_link_fault_hook(&injector);
    session->advance(resume_at);
    obs::MetricsRegistry& reg = session->metrics();
    reg.counter("ft.checkpoint_bytes").add(ckpt_bytes);
    reg.counter("ft.dirty_lines").add(dirty_lines);
    reg.counter("ft.recovery_us").add(recovery_us);
  };
  build_session(0.0);

  engine.register_state("master", master, pbase);
  engine.register_state("accel", accel, pbase);
  engine.register_state("adam_m", adam_m);
  engine.register_state("adam_v", adam_v);

  FtTrainResult res;
  res.mode = scfg.ft_mode;
  const std::size_t interval = scfg.ft_checkpoint_interval;
  sim::Time last_durable_time = 0.0;
  std::size_t recoveries = 0;
  std::size_t furthest = 0;  ///< First never-executed step (replay marker).

  const float b1 = cfg.adam.beta1;
  const float b2 = cfg.adam.beta2;

  std::size_t step = 0;
  while (step < cfg.steps) {
    const sim::Time t0 = session->now();
    const bool replaying = step < furthest;
    sim::Rng rng(step_seed(cfg.data_seed, step));

    std::vector<std::size_t> touched;
    for (std::size_t l = 0; l < lines; ++l) {
      if (rng.next_bool(cfg.update_fraction)) touched.push_back(l);
    }
    if (touched.empty()) touched.push_back(step % lines);

    // Backward: the device produces gradients for the touched lines; each
    // one rides the update protocol home during the compute window.
    for (const std::size_t l : touched) {
      const std::size_t first = l * mem::kWordsPerLine;
      const std::size_t count = std::min<std::size_t>(mem::kWordsPerLine,
                                                      n - first);
      for (std::size_t i = 0; i < count; ++i) {
        grads[first + i] =
            0.05f * accel[first + i] +
            0.01f * static_cast<float>(rng.next_gaussian());
      }
      session->device_write_gradients(
          gbase + l * mem::kLineBytes,
          std::span<const float>(grads).subspan(first, count));
    }
    session->advance(cfg.step_compute);
    session->backward_complete();
    session->check_activation(step);

    // CPU optimizer: lazy Adam over the touched indices, global step count
    // as bias-correction time (exactly reproducible on replay).
    const float t_adam = static_cast<float>(step + 1);
    const float bc1 = 1.0f - std::pow(b1, t_adam);
    const float bc2 = 1.0f - std::pow(b2, t_adam);
    for (const std::size_t l : touched) {
      const std::size_t first = l * mem::kWordsPerLine;
      const std::size_t count = std::min<std::size_t>(mem::kWordsPerLine,
                                                      n - first);
      const auto g =
          session->cpu_read_gradients(gbase + l * mem::kLineBytes, count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = first + i;
        adam_m[idx] = b1 * adam_m[idx] + (1.0f - b1) * g[i];
        adam_v[idx] = b2 * adam_v[idx] + (1.0f - b2) * g[i] * g[i];
        const float mhat = adam_m[idx] / bc1;
        const float vhat = adam_v[idx] / bc2;
        master[idx] -= cfg.adam.lr * mhat / (std::sqrt(vhat) + cfg.adam.eps);
      }
    }
    session->advance(cfg.cpu_opt_time);
    for (const std::size_t l : touched) {
      const std::size_t first = l * mem::kWordsPerLine;
      const std::size_t count = std::min<std::size_t>(mem::kWordsPerLine,
                                                      n - first);
      session->cpu_write_parameters(
          pbase + l * mem::kLineBytes,
          std::span<const float>(master).subspan(first, count));
    }
    session->optimizer_step_complete();

    // Accelerator parameter image after the (possibly DBA-trimmed) push.
    for (const std::size_t l : touched) {
      const std::size_t first = l * mem::kWordsPerLine;
      const std::size_t count = std::min<std::size_t>(mem::kWordsPerLine,
                                                      n - first);
      const auto vals =
          session->device_read_parameters(pbase + l * mem::kLineBytes, count);
      std::copy(vals.begin(), vals.end(),
                accel.begin() + static_cast<std::ptrdiff_t>(first));
      engine.mark_floats("adam_m", first, count);
      engine.mark_floats("adam_v", first, count);
    }
    ++res.steps_executed;
    gantt.emit("train", replaying ? "r" : "=", t0, session->now());
    furthest = std::max(furthest, step + 1);

    // Poisoned lines land after the step and are scrubbed from the CPU-side
    // master copy (a full-line push, so the device adopts master's bytes).
    for (const auto& p : injector.take_poison(step)) {
      const std::size_t l = p.line_offset % lines;
      const mem::Addr la = pbase + l * mem::kLineBytes;
      mem::BackingStore::Line junk;
      junk.fill(0xDB);
      session->corrupt_device_line(la, junk);
      recovery.scrub_poisoned_line(*session, la);
      const std::size_t first = l * mem::kWordsPerLine;
      const std::size_t count = std::min<std::size_t>(mem::kWordsPerLine,
                                                      n - first);
      std::copy_n(master.begin() + static_cast<std::ptrdiff_t>(first), count,
                  accel.begin() + static_cast<std::ptrdiff_t>(first));
      engine.mark_floats("accel", first, count);
    }

    if (scfg.ft_mode != core::FtMode::kOff && (step + 1) % interval == 0) {
      const sim::Time c0 = session->now();
      const auto r = engine.checkpoint(c0, step, cfg.step_compute);
      session->advance(r.exposed_time);
      last_durable_time = session->now();
      gantt.emit("pmem", "C", c0, c0 + r.media_time);
      obs::MetricsRegistry& reg = session->metrics();
      reg.counter("ft.checkpoint_bytes").add(static_cast<double>(r.bytes));
      reg.counter("ft.dirty_lines").add(static_cast<double>(r.lines));
    }

    if (recoveries < cfg.max_recoveries &&
        injector.crash_due(step, session->now())) {
      ++recoveries;
      const sim::Time crash_time = session->now();
      store.crash();
      const auto plan = recovery.plan_recovery(
          crash_time, injector, /*state_bytes=*/4 * bytes,
          /*device_image_bytes=*/bytes, session->link().phy().cxl_bandwidth(),
          cfg.allow_degraded);
      recovery.record_recovery(plan, crash_time - last_durable_time,
                               step + 1 - plan.resume_step);
      gantt.emit("fault", "X", crash_time, crash_time + cfg.step_compute / 4);
      gantt.emit("restore", "R", crash_time, crash_time + plan.restore_time);

      if (plan.from_checkpoint) {
        engine.restore_into("master", master);
        engine.restore_into("accel", accel);
        engine.restore_into("adam_m", adam_m);
        engine.restore_into("adam_v", adam_v);
      } else {
        // No durable image: rebuild the deterministic initial state. The
        // registered spans alias these vectors, so overwrite in place.
        sim::Rng r2(cfg.data_seed);
        for (auto& p : master) {
          p = static_cast<float>(r2.uniform(-0.1, 0.1));
        }
        std::copy(master.begin(), master.end(), accel.begin());
        std::fill(adam_m.begin(), adam_m.end(), 0.0f);
        std::fill(adam_v.begin(), adam_v.end(), 0.0f);
      }
      if (plan.degraded != DegradedMode::kNone) degraded = plan.degraded;
      res.final_degraded = degraded;
      engine.mark_all_dirty();
      build_session(crash_time + plan.restore_time);
      session->metrics().counter("ft.recovery_us")
          .add(plan.restore_time * 1e6);
      step = plan.resume_step;
      continue;
    }

    ++step;
  }

  res.steps_completed = cfg.steps;
  res.wall_time = session->now();
  res.checkpoint = engine.stats();
  res.faults = injector.stats();
  res.recovery = recovery.stats();
  res.pmem = store.stats();
  res.gantt = core::render_gantt(gantt);
  res.master = std::move(master);
  res.accel = std::move(accel);
  res.adam_m = std::move(adam_m);
  res.adam_v = std::move(adam_v);
  return res;
}

}  // namespace teco::ft
