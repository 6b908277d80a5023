#include "mem/memory.hpp"

#include <cstdio>
#include <cstdlib>

#include "mem/banked_memory.hpp"
#include "mem/dram_memory.hpp"
#include "mem/ideal_memory.hpp"

namespace axipack::mem {

std::string validate(const MemoryConfig& cfg) {
  const bool banked = cfg.name == "banked";
  const bool dram = cfg.name == "dram";
  if (!banked && !dram && cfg.name != "ideal") {
    return "unknown memory \"" + cfg.name +
           "\"; valid names: banked, ideal, dram";
  }
  // The DRAM scheduler tracks pending banks and contending ports in 64-bit
  // masks.
  if (cfg.num_ports == 0 || (dram && cfg.num_ports > 64)) {
    return "num_ports=" + std::to_string(cfg.num_ports) +
           (dram ? " must be in [1, 64]" : " must be >= 1");
  }
  if (cfg.req_depth == 0 || cfg.resp_depth == 0) {
    return "req_depth=" + std::to_string(cfg.req_depth) +
           " / resp_depth=" + std::to_string(cfg.resp_depth) +
           " must be >= 1 (zero-capacity FIFOs cannot carry traffic)";
  }
  if (banked && cfg.num_banks == 0) return "banked memory needs >= 1 bank";
  if (!dram && cfg.latency == 0) {
    return cfg.name + " memory latency must be >= 1 cycle";
  }
  if (!dram) return {};
  const DramTimingConfig& t = cfg.dram;
  if (cfg.dram_sched_window == 0) {
    return "dram_sched_window must be >= 1 (use 1 for head-only "
           "scheduling, not 0)";
  }
  if (t.num_banks() == 0 || t.num_banks() > 64 || t.row_words == 0) {
    return "dram needs 1-64 banks (got " + std::to_string(t.num_banks()) +
           ") and row_words >= 1";
  }
  // The response channel needs at least one register stage.
  if (t.tCAS == 0 || t.tCCD == 0) return "dram tCAS and tCCD must be >= 1";
  // Refresh liveness (tREFI == 0 disables refresh): between the end of one
  // window and the start of the next there must be room for a full
  // precharge-activate-column sequence, or every row cycle is deferred
  // forever and the simulation hangs.
  if (t.tREFI != 0 && t.tRFC + t.tRP + t.tRCD >= t.tREFI) {
    return "dram refresh interval tREFI=" + std::to_string(t.tREFI) +
           " leaves no room for a row cycle (tRFC=" + std::to_string(t.tRFC) +
           " + tRP=" + std::to_string(t.tRP) +
           " + tRCD=" + std::to_string(t.tRCD) + " must be < tREFI)";
  }
  return {};
}

std::unique_ptr<WordMemory> make_memory(sim::Kernel& k, BackingStore& store,
                                        const MemoryConfig& cfg) {
  // A bad config must never yield a memory that divides by zero, hangs or
  // corrupts the Fifo invariants: fail loudly even in assert-free builds.
  const std::string error = validate(cfg);
  if (!error.empty()) {
    std::fprintf(stderr, "make_memory: %s\n", error.c_str());
    std::abort();
  }
  if (cfg.name == "dram") return std::make_unique<DramMemory>(k, store, cfg);
  if (cfg.name == "ideal") return std::make_unique<IdealMemory>(k, store, cfg);
  return std::make_unique<BankedMemory>(k, store, cfg);
}

}  // namespace axipack::mem
