#include "systems/sensitivity.hpp"

#include <memory>
#include <vector>

#include "axi/burst.hpp"
#include "axi/types.hpp"
#include "systems/builder.hpp"
#include "systems/stream_requestor.hpp"
#include "systems/system.hpp"
#include "util/rng.hpp"

namespace axipack::sys {

SensitivityResult measure_read_utilization(const SensitivityConfig& cfg) {
  constexpr std::uint64_t kBase = 0x8000'0000ull;
  const unsigned elem_bytes = cfg.elem_bits / 8;
  const std::uint64_t epb = cfg.bus_bytes / elem_bytes;
  const std::uint64_t elems_per_burst = epb * cfg.burst_beats;
  const std::uint64_t total_elems = elems_per_burst * cfg.num_bursts;

  // Size the data region to cover the whole stream.
  const std::uint64_t span =
      cfg.indirect
          ? (1ull << 22)
          : elems_per_burst * cfg.num_bursts *
                    static_cast<std::uint64_t>(
                        cfg.stride_elems < 0 ? -cfg.stride_elems
                                             : cfg.stride_elems + 1) *
                    elem_bytes +
                (1u << 16);

  // Bare measurement fabric: one raw requestor port straight into the
  // adapter (no xbar/link hops), banks == 0 selecting the ideal memory.
  SystemBuilder builder;
  builder.bus_bits(cfg.bus_bytes * 8)
      .mem_region(kBase, span + (1ull << 22))
      .monitor(false)
      .naive_kernel(cfg.naive_kernel);
  mem::MemoryConfig mc;
  if (cfg.banks == 0) {
    mc.name = "ideal";
  } else {
    mc.name = "banked";
    mc.num_banks = cfg.banks;
    mc.resp_depth = 256;
  }
  builder.memory(mc);
  pack::AdapterConfig ac;
  ac.queue_depth = cfg.queue_depth;
  ac.resp_fifo_depth = 512;
  ac.idx_window_lines = cfg.idx_window_lines;
  if (cfg.coalesce_entries > 0) {
    ac.coalesce_enable = true;
    ac.coalesce_entries = cfg.coalesce_entries;
    ac.coalesce_window = cfg.coalesce_window;
  }
  builder.adapter(ac);
  const MasterId requestor = builder.attach_port("ideal-requestor");

  std::unique_ptr<System> system = builder.build();
  sim::Kernel& kernel = system->kernel();
  mem::BackingStore& store = system->store();
  axi::AxiPort& port = system->master_port(requestor);

  // Build the burst stream.
  std::vector<axi::AxiAr> ars;
  if (cfg.indirect) {
    // Random indices over the table; index array placed past the table.
    const std::uint64_t table_elems = (1ull << 20) / elem_bytes;
    const std::uint64_t idx_base = kBase + (1ull << 21);
    util::Rng rng(cfg.seed);
    const unsigned ib = cfg.index_bits / 8;
    std::vector<std::uint8_t> raw(total_elems * ib);
    for (std::uint64_t i = 0; i < total_elems; ++i) {
      const std::uint64_t max_idx =
          std::min<std::uint64_t>(table_elems, 1ull << cfg.index_bits);
      const std::uint64_t idx = rng.below(max_idx);
      for (unsigned b = 0; b < ib; ++b) {
        raw[i * ib + b] = static_cast<std::uint8_t>(idx >> (8 * b));
      }
    }
    store.write(idx_base, raw.data(), raw.size());
    ars = axi::split_pack_indirect(kBase, idx_base, cfg.index_bits,
                                   elem_bytes, total_elems, cfg.bus_bytes);
  } else {
    const std::int64_t stride_bytes =
        cfg.stride_elems * static_cast<std::int64_t>(elem_bytes);
    const std::uint64_t start =
        cfg.stride_elems >= 0
            ? kBase
            : kBase + static_cast<std::uint64_t>(-stride_bytes) * total_elems;
    ars = axi::split_pack_strided(start, stride_bytes, elem_bytes, total_elems,
                                  cfg.bus_bytes);
  }

  // Drive bursts back-to-back through the requestor component; the done
  // predicate is a pure observation, so idle stretches fast-forward.
  StreamRequestor driver(kernel, port, std::move(ars));
  kernel.run_until([&] { return driver.done(); }, 50'000'000,
                   sim::Kernel::PredKind::pure);

  SensitivityResult result;
  result.payload_bytes = driver.payload_bytes();
  result.cycles = kernel.now();
  result.r_util = static_cast<double>(result.payload_bytes) /
                  (static_cast<double>(result.cycles) * cfg.bus_bytes);
  result.bank_conflict_losses =
      system->memory(0)->stats().conflict_losses;
  result.coalescer = system->adapter().coalescer_stats();
  return result;
}

double strided_util_avg(unsigned elem_bits, unsigned banks,
                        unsigned bus_bytes, unsigned max_stride) {
  double sum = 0.0;
  for (unsigned s = 0; s <= max_stride; ++s) {
    SensitivityConfig cfg;
    cfg.bus_bytes = bus_bytes;
    cfg.banks = banks;
    cfg.elem_bits = elem_bits;
    cfg.indirect = false;
    cfg.stride_elems = static_cast<std::int64_t>(s);
    cfg.num_bursts = 4;  // short steady-state run per stride
    sum += measure_read_utilization(cfg).r_util;
  }
  return sum / (max_stride + 1);
}

}  // namespace axipack::sys
