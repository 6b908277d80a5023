// Word-port interface between the AXI-Pack adapter and banked memory.
//
// The adapter converts bursts into sequences of W-bit word accesses issued on
// n parallel ports (n = bus_width / word_width). Each port is a request FIFO
// plus a response FIFO; the memory serves at most one request per bank per
// cycle and returns responses after a fixed SRAM latency, so responses on a
// given port always return in request order.
#pragma once

#include <cstdint>

#include "sim/kernel.hpp"

namespace axipack::mem {

/// Memory word width used by all evaluation systems (32-bit banks).
inline constexpr unsigned kWordBytes = 4;

/// One word access. `addr` is an absolute, word-aligned byte address.
struct WordReq {
  std::uint64_t addr = 0;
  bool write = false;
  std::uint32_t wdata = 0;
  std::uint8_t wstrb = 0;  ///< low 4 bits; ignored for reads
  std::uint32_t tag = 0;   ///< opaque to the memory, returned on the response
};

/// Response to a WordReq (writes are acknowledged too, for B generation).
struct WordResp {
  std::uint32_t rdata = 0;
  std::uint32_t tag = 0;
  bool was_write = false;
  /// The access faulted: a read returned poisoned data (uncorrectable), a
  /// write was dropped before reaching the array. Converters surface this
  /// as SLVERR on the owning burst's R/B response.
  bool error = false;
};

/// One request/response port pair. Owned by the memory.
struct WordPort {
  sim::Fifo<WordReq> req;
  sim::Fifo<WordResp> resp;

  WordPort(sim::Kernel& k, std::size_t req_depth, std::size_t resp_depth,
           sim::Cycle resp_latency)
      : req(k, req_depth, 1), resp(k, resp_depth, resp_latency) {}
};

/// Activity counters of a word memory. Memories without a concept of
/// conflicts (or of row buffers) report zeros for the fields they do not
/// track.
struct MemStats {
  std::uint64_t grants = 0;
  /// Same-cycle same-bank contenders not granted.
  std::uint64_t conflict_losses = 0;
  std::uint64_t row_hits = 0;    ///< dram only
  std::uint64_t row_misses = 0;  ///< dram only (activates)
  /// dram only: bank-cycles requests waited on refresh.
  std::uint64_t refresh_stall_cycles = 0;
  /// dram only: bank-cycles a timing-legal row miss was deferred to batch
  /// pending same-row requests on the open row (row-aware scheduling).
  std::uint64_t row_batch_defer_cycles = 0;
  /// dram only: misses granted by the starvation cap while same-row work
  /// was still pending (the batching veto was overridden for fairness).
  std::uint64_t row_starved_grants = 0;

  double row_hit_ratio() const {
    const std::uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / total;
  }
};

/// Abstract n-port word memory (banked, ideal or dram; see memory.hpp).
class WordMemory {
 public:
  virtual ~WordMemory() = default;
  virtual unsigned num_ports() const = 0;
  virtual WordPort& port(unsigned i) = 0;
  /// Activity counters since construction; zeros unless overridden (the
  /// conflict-free ideal memory tracks none).
  virtual MemStats stats() const { return {}; }
};

}  // namespace axipack::mem
