#include "mem/banked_memory.hpp"

namespace axipack::mem {

BankedMemory::BankedMemory(sim::Kernel& k, BackingStore& store,
                           const MemoryConfig& cfg) {
  ports_.reserve(cfg.num_ports);
  std::vector<WordPort*> raw;
  for (unsigned i = 0; i < cfg.num_ports; ++i) {
    ports_.push_back(std::make_unique<WordPort>(k, cfg.req_depth,
                                                cfg.resp_depth,
                                                cfg.latency));
    raw.push_back(ports_.back().get());
  }
  xbar_ = std::make_unique<BankXbar>(k, store, std::move(raw), cfg.num_banks);
}

MemStats BankedMemory::stats() const {
  MemStats s;
  s.grants = xbar_->total_grants();
  s.conflict_losses = xbar_->total_conflict_losses();
  return s;
}

}  // namespace axipack::mem
