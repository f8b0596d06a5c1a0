// A microscope on the coherence protocol: drive a few parameter updates
// through the home agent under both protocols and print the message flows
// (the Fig. 4/5 transitions), plus a bit-level DBA merge demonstration.
#include <cstdio>
#include <cstring>

#include "core/teco.hpp"

namespace {

void run_protocol(teco::coherence::Protocol proto) {
  using namespace teco;
  std::printf("=== %s protocol ===\n",
              proto == coherence::Protocol::kUpdate ? "Update (TECO)"
                                                    : "Invalidation (stock)");
  core::SessionConfig cfg;
  cfg.protocol = proto;
  cfg.dba_enabled = false;
  cfg.enable_trace = true;
  core::Session s(cfg);
  const auto params = s.allocate_parameters("w", 128);

  s.cpu_write_parameters(params, std::vector<float>{1.0f, 2.0f});
  s.optimizer_step_complete();
  s.device_read_parameters(params, 2);

  // Protocol events share the session's span buffer with the step and
  // fence spans; each is an instant named "<Event>@<line> <detail>".
  for (const auto& ev : s.spans().events()) {
    if (ev.lane == "home_agent") {
      std::printf("  t=%-12.3e %s\n", ev.begin, ev.name.c_str());
    }
  }
  const auto& st = s.stats();
  std::printf("  pushes=%llu invalidations=%llu demand_fetches=%llu\n\n",
              static_cast<unsigned long long>(st.update_pushes),
              static_cast<unsigned long long>(st.invalidations),
              static_cast<unsigned long long>(st.demand_fetches));
}

void dba_merge_demo() {
  using namespace teco;
  std::puts("=== DBA bit-level merge (dirty_bytes = 2) ===");
  const float old_val = 0.123456f;
  float new_small = old_val, new_big = 2.0f * old_val;
  std::uint32_t bits;
  std::memcpy(&bits, &new_small, 4);
  bits += 513;  // Low-two-byte mantissa drift.
  std::memcpy(&new_small, &bits, 4);

  const float spliced_small = dba::splice_f32(old_val, new_small, 2);
  const float spliced_big = dba::splice_f32(old_val, new_big, 2);
  std::printf("  low-byte update : master %.9f -> device %.9f (exact: %s)\n",
              new_small, spliced_small,
              spliced_small == new_small ? "yes" : "no");
  std::printf("  exponent update : master %.9f -> device %.9f (exact: %s)\n",
              new_big, spliced_big, spliced_big == new_big ? "yes" : "no");
  std::puts("  -> DBA transfers fine-tuning-scale updates losslessly and "
            "approximates rare exponent moves;\n     activation after "
            "act_aft_steps keeps those rare during the steady phase.\n");
}

}  // namespace

int main() {
  run_protocol(teco::coherence::Protocol::kUpdate);
  run_protocol(teco::coherence::Protocol::kInvalidation);
  dba_merge_demo();
  return 0;
}
