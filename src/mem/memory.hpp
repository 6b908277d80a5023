// One memory config for every word memory behind the AXI-Pack adapter.
//
// A system's memory endpoint is one of three word memories, selected by
// name: "banked" (the paper's on-chip SRAM, BankedMemory), "ideal" (the
// conflict-free Fig. 5 endpoint, IdealMemory) or "dram" (cycle-level DRAM
// timing, DramMemory). All three are built from one MemoryConfig and report
// one MemStats through WordMemory::stats().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mem/backing_store.hpp"
#include "mem/dram_timing.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

/// Construction parameters of a word memory. Fields a memory does not use
/// (e.g. num_banks on "ideal", the dram timing block on "banked") are
/// ignored by it.
struct MemoryConfig {
  std::string name = "banked";   ///< "banked", "ideal" or "dram"
  unsigned num_ports = 8;        ///< word ports (= bus_bytes / 4)
  unsigned num_banks = 17;       ///< banked only
  sim::Cycle latency = 1;        ///< access latency (SRAM or ideal)
  std::size_t req_depth = 2;     ///< per-port request FIFO depth
  std::size_t resp_depth = 64;   ///< per-port response FIFO depth
  /// "dram" only: bank organization, address-mapping policy and the core
  /// timing set. The derived data latencies are
  ///   row hit   tCAS                 (open-row column access)
  ///   closed    tRCD + tCAS          (activate first, e.g. after refresh)
  ///   row miss  tRP + tRCD + tCAS    (precharge, activate, then access)
  /// and every tREFI cycles an all-bank refresh blocks activates for tRFC
  /// (tREFI = 0 disables refresh). See dram_timing.hpp for the field-level
  /// documentation and defaults.
  DramTimingConfig dram;
  /// "dram" only: row-aware batching scheduler. The per-port lookahead
  /// window (visible requests per port the scheduler may inspect and
  /// reorder reads within, including the head; 1 = head-only in-order
  /// scheduling, no batching) and the starvation cap bounding how many
  /// cycles a timing-legal row miss may be deferred for pending same-row
  /// requests (0 = never defers). The effective window is bounded by
  /// req_depth, so deepen both together.
  std::size_t dram_sched_window = 32;
  sim::Cycle dram_starve_cap = 48;
  /// Channel-interleave geometry of the surrounding system (1 = the
  /// single-channel identity). "dram" compacts the channel-select address
  /// bits out of its row/bank decomposition so per-channel row locality
  /// survives interleaving; "banked" (17 prime banks) and "ideal" decode
  /// absolute addresses and ignore these.
  unsigned channels = 1;
  std::uint64_t channel_granule_bytes = 4096;
};

/// Empty when make_memory can build `cfg`; otherwise what is wrong with it.
std::string validate(const MemoryConfig& cfg);

/// Builds the word memory `cfg.name` selects. A config validate() rejects
/// aborts with its message, in every build type.
std::unique_ptr<WordMemory> make_memory(sim::Kernel& k, BackingStore& store,
                                        const MemoryConfig& cfg);

}  // namespace axipack::mem
