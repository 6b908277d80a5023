// Banked on-chip SRAM: n word ports, m interleaved banks, fixed latency.
// This is the memory endpoint behind the AXI-Pack adapter in the BASE and
// PACK systems (paper: eight 32-bit word ports backed by 17 banks).
#pragma once

#include <memory>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/bank_xbar.hpp"
#include "mem/memory.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

class BankedMemory final : public WordMemory {
 public:
  /// Uses num_ports, num_banks, latency (cycles from grant to response
  /// visible) and the FIFO depths of `cfg`.
  BankedMemory(sim::Kernel& k, BackingStore& store, const MemoryConfig& cfg);

  unsigned num_ports() const override {
    return static_cast<unsigned>(ports_.size());
  }
  WordPort& port(unsigned i) override { return *ports_[i]; }
  /// Grants and conflict losses; no row-buffer stats.
  MemStats stats() const override;

  const BankXbar& xbar() const { return *xbar_; }

 private:
  std::vector<std::unique_ptr<WordPort>> ports_;
  std::unique_ptr<BankXbar> xbar_;
};

}  // namespace axipack::mem
