// Parameter-sensitivity harness (paper §III-E): an ideal requestor issues
// continuous pack read bursts of length 256 at the adapter and measures
// steady-state read-bus utilization, sweeping element size, index size and
// bank count (Figs. 5a/5b). Decoupling queues are deepened to 32 "to avoid
// bottlenecks unrelated to the analysis", as in the paper.
//
// The requestor is a sim::Component (not a run_until side effect), so the
// gated kernel treats it like any other master and the sweep points run
// unattended; grids of points fan out over their ExperimentSpec's pool.
#pragma once

#include <cstdint>
#include <vector>

#include "pack/coalescer.hpp"

namespace axipack::sys {

struct SensitivityConfig {
  unsigned bus_bytes = 32;
  unsigned banks = 17;        ///< 0 = ideal (conflict-free) memory
  unsigned elem_bits = 32;    ///< 32..256
  unsigned index_bits = 32;   ///< 8/16/32 (indirect only)
  bool indirect = false;
  std::int64_t stride_elems = 1;  ///< element stride (strided only)
  unsigned queue_depth = 32;
  unsigned idx_window_lines = 8;  ///< indirect index prefetch window
  /// >0 enables the index coalescing unit with this pending-table size
  /// (indirect only; 0 keeps the plain shared-lane indirect path).
  std::size_t coalesce_entries = 0;
  std::size_t coalesce_window = 16;  ///< grouping window when enabled
  unsigned burst_beats = 256;
  unsigned num_bursts = 8;
  std::uint64_t seed = 1;
  bool naive_kernel = false;  ///< equivalence testing: disable gating
};

struct SensitivityResult {
  double r_util = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t bank_conflict_losses = 0;
  /// The adapter's coalescing units, summed (all zero when disabled).
  pack::CoalescerStats coalescer;
};

/// Runs the configured read stream to completion and reports utilization.
SensitivityResult measure_read_utilization(const SensitivityConfig& cfg);

/// Fig. 5b datapoint: utilization averaged across element strides
/// 0..max_stride, measured serially in stride order (a grid of these
/// points parallelizes on its ExperimentSpec's pool).
double strided_util_avg(unsigned elem_bits, unsigned banks,
                        unsigned bus_bytes = 32, unsigned max_stride = 63);

}  // namespace axipack::sys
