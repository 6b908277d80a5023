// Strided write converter: mirror image of the strided read converter.
// A beat unpacker splits incoming W beats into per-lane word writes aimed at
// the strided addresses; write acknowledgements are counted and combined
// into the single B response (paper §II-C).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "pack/converter.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class StridedWriteConverter final : public Converter {
 public:
  StridedWriteConverter(sim::Kernel& k, std::vector<LaneIO> lanes,
                        unsigned bus_bytes, unsigned queue_depth,
                        std::size_t b_out_depth = 4,
                        std::size_t max_bursts = 2);

  bool can_accept_aw() const override;
  void accept_aw(const axi::AxiAw& aw) override;
  bool can_accept_w() const override;
  void accept_w(const axi::AxiW& w) override;
  sim::Fifo<axi::AxiB>* b_out() override { return &b_out_; }
  bool idle() const override { return bursts_.empty(); }


 private:
  void advance() override;
  struct Burst {
    PackGeom geom;
    std::uint64_t base = 0;
    std::int64_t stride = 0;
    std::uint32_t id = 0;
    std::uint64_t unpack_beat = 0;  ///< next W beat to unpack
    std::uint64_t acks = 0;         ///< word acknowledgements received
    bool err = false;               ///< any errored ack -> B reports SLVERR
  };

  std::uint64_t slot_addr(const Burst& bu, std::uint64_t slot) const {
    const std::uint64_t elem = bu.geom.elem_of_slot(slot);
    const unsigned word = bu.geom.word_in_elem(slot);
    return bu.base +
           static_cast<std::uint64_t>(static_cast<std::int64_t>(elem) *
                                      bu.stride) +
           4ull * word;
  }

  /// Burst currently consuming W beats (W data arrives in AW order).
  Burst* unpack_target();

  std::vector<LaneIO> lanes_;
  unsigned bus_bytes_;
  Regulator regulator_;
  sim::Fifo<axi::AxiB> b_out_;
  std::deque<Burst> bursts_;
  std::size_t max_bursts_;
};

}  // namespace axipack::pack
