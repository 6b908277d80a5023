// Conflict-free word memory: every port is served every cycle. Used as the
// "ideal" bank count in the Fig. 5 sensitivity sweeps, giving the adapter an
// upper bound unconstrained by banking.
#pragma once

#include <memory>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/memory.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

class IdealMemory final : public WordMemory, public sim::Component {
 public:
  /// Uses num_ports, latency and the FIFO depths of `cfg`.
  IdealMemory(sim::Kernel& k, BackingStore& store, const MemoryConfig& cfg);

  unsigned num_ports() const override {
    return static_cast<unsigned>(ports_.size());
  }
  WordPort& port(unsigned i) override { return *ports_[i]; }

  void tick() override;
  /// Pure request server: all pending work sits in subscribed request Fifos
  /// (the latency lives on the response Fifos).
  bool quiescent() const override { return true; }

 private:
  BackingStore& store_;
  std::vector<std::unique_ptr<WordPort>> ports_;
};

}  // namespace axipack::mem
