// Strided read converter (paper Fig. 2c).
//
// For each beat of a strided pack burst the request generator issues up to n
// parallel word requests fetching the scattered elements; each lane keeps an
// independent request pointer so lanes may run ahead of one another (bank
// conflicts on one lane do not stall the others). The request regulator
// bounds per-lane in-flight words to the decoupling-queue depth. The beat
// packer pops one response per valid lane, packs them into a bus-aligned R
// beat, and emits it — in order, since per-lane responses return in request
// order.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "pack/converter.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class StridedReadConverter final : public Converter {
 public:
  StridedReadConverter(sim::Kernel& k, std::vector<LaneIO> lanes,
                       unsigned bus_bytes, unsigned queue_depth,
                       std::size_t r_out_depth = 4,
                       std::size_t max_bursts = 2);

  bool can_accept_ar() const override;
  void accept_ar(const axi::AxiAr& ar) override;
  sim::Fifo<axi::AxiR>* r_out() override { return &r_out_; }
  bool idle() const override { return bursts_.empty(); }


  std::uint64_t beats_packed() const { return beats_packed_; }

  /// Attaches the system fault plan (nullptr = fault-free): packed beats
  /// leaving this converter may be bit-corrupted (delivered as SLVERR).
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

 private:
  void advance() override;
  struct Burst {
    PackGeom geom;
    std::uint64_t base = 0;
    std::int64_t stride = 0;
    std::uint32_t id = 0;
    axi::Traffic traffic = axi::Traffic::data;
    // Issue state: per-lane beat pointer; lane l has issued slots
    // {b*n + l : b < issue_beat[l]}.
    std::vector<std::uint64_t> issue_beat;
    // Pack state.
    std::uint64_t pack_beat = 0;
  };

  std::uint64_t slot_addr(const Burst& bu, std::uint64_t slot) const {
    const std::uint64_t elem = bu.geom.elem_of_slot(slot);
    const unsigned word = bu.geom.word_in_elem(slot);
    return bu.base +
           static_cast<std::uint64_t>(static_cast<std::int64_t>(elem) *
                                      bu.stride) +
           4ull * word;
  }

  void tick_issue();
  void tick_pack();

  std::vector<LaneIO> lanes_;
  unsigned bus_bytes_;
  Regulator regulator_;
  sim::Fifo<axi::AxiR> r_out_;
  std::deque<Burst> bursts_;
  std::size_t max_bursts_;
  std::uint64_t beats_packed_ = 0;
  sim::FaultPlan* faults_ = nullptr;
};

}  // namespace axipack::pack
