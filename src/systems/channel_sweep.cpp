#include "systems/channel_sweep.hpp"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "axi/burst.hpp"
#include "axi/types.hpp"
#include "systems/builder.hpp"
#include "systems/stream_requestor.hpp"
#include "systems/system.hpp"

namespace axipack::sys {

ChannelScalingResult measure_channel_scaling(
    const ChannelScalingConfig& cfg) {
  constexpr std::uint64_t kBase = 0x8000'0000ull;
  assert(cfg.masters > 0 && cfg.bytes_per_master > 0);

  // Each master streams its own contiguous region; regions are granule
  // multiples so every master's bursts round-robin all channels the same
  // way regardless of its region index.
  const std::uint64_t span =
      (cfg.bytes_per_master + cfg.granule_bytes - 1) / cfg.granule_bytes *
      cfg.granule_bytes;
  std::uint64_t mem_size = span * cfg.masters + (1ull << 20);
  const std::uint64_t block = cfg.granule_bytes * cfg.channels;
  mem_size = (mem_size + block - 1) / block * block;

  SystemBuilder builder;
  builder.bus_bits(cfg.bus_bytes * 8)
      .mem_region(kBase, mem_size)
      .channels(cfg.channels, cfg.granule_bytes)
      .naive_kernel(cfg.naive_kernel);
  builder.memory("dram");
  mem::DramTimingConfig t;
  t.mapping = cfg.mapping;
  builder.dram_timing(t);
  std::vector<MasterId> ids;
  ids.reserve(cfg.masters);
  for (unsigned m = 0; m < cfg.masters; ++m) {
    ids.push_back(builder.attach_port("req" + std::to_string(m)));
  }

  std::unique_ptr<System> system = builder.build();
  sim::Kernel& kernel = system->kernel();

  std::vector<std::unique_ptr<StreamRequestor>> drivers;
  drivers.reserve(cfg.masters);
  for (unsigned m = 0; m < cfg.masters; ++m) {
    drivers.push_back(std::make_unique<StreamRequestor>(
        kernel, system->master_port(ids[m]),
        axi::split_contiguous(kBase + m * span, cfg.bytes_per_master,
                              cfg.bus_bytes, axi::Traffic::data)));
  }

  kernel.run_until(
      [&] {
        for (const auto& d : drivers) {
          if (!d->done()) return false;
        }
        return true;
      },
      200'000'000, sim::Kernel::PredKind::pure);

  ChannelScalingResult out;
  out.cycles = kernel.now();
  for (const auto& d : drivers) out.payload_bytes += d->payload_bytes();
  const double cap =
      static_cast<double>(out.cycles) * static_cast<double>(cfg.bus_bytes);
  for (unsigned c = 0; c < system->num_channels(); ++c) {
    const axi::BusStats* bs = system->bus_stats(c);
    const double util =
        bs == nullptr || cap == 0.0
            ? 0.0
            : static_cast<double>(bs->r_payload_bytes) / cap;
    out.per_channel_r_util.push_back(util);
    out.agg_r_util += util;
    const mem::MemStats ms = system->memory(c)->stats();
    out.per_channel_row_hits.push_back(ms.row_hits);
    out.per_channel_row_misses.push_back(ms.row_misses);
  }
  return out;
}

}  // namespace axipack::sys
