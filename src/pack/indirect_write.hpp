// Indirect write converter: index stage as in the indirect read converter;
// the element stage is a beat unpacker that scatters each W beat's words to
// the indexed addresses. Write acknowledgements are combined into B.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "pack/converter.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class IndirectWriteConverter final : public Converter {
 public:
  IndirectWriteConverter(sim::Kernel& k, std::vector<LaneIO> lanes,
                         unsigned bus_bytes, unsigned queue_depth,
                         std::size_t b_out_depth = 4,
                         std::size_t idx_window_lines = 4,
                         std::size_t max_bursts = 2);

  bool can_accept_aw() const override;
  void accept_aw(const axi::AxiAw& aw) override;
  bool can_accept_w() const override;
  void accept_w(const axi::AxiW& w) override;
  sim::Fifo<axi::AxiB>* b_out() override { return &b_out_; }
  bool idle() const override { return bursts_.empty(); }

  /// Word-level issue counts (fan-out accounting): idx reads vs element
  /// words scattered — see IndirectWordStats.
  const IndirectWordStats& word_stats() const { return word_stats_; }


 private:
  void advance() override;
  static constexpr std::uint32_t kIdxTag = 1;
  static constexpr std::uint32_t kElemTag = 0;

  struct Burst {
    PackGeom geom;
    std::uint64_t elem_base = 0;
    std::uint64_t idx_base = 0;
    unsigned idx_bytes = 4;
    std::uint32_t id = 0;

    std::uint64_t idx_words_total = 0;
    std::vector<std::uint64_t> idx_issue;
    std::uint64_t idx_words_extracted = 0;
    std::deque<std::uint64_t> idx_window;
    std::uint64_t idx_window_base = 0;

    std::uint64_t unpack_beat = 0;
    std::uint64_t acks = 0;
    // Sticky: an errored index word (or word ack) poisons the burst. Writes
    // whose index came after the corruption are issued with an empty strobe
    // so a bogus substituted index can never clobber unrelated memory; the
    // master sees the SLVERR B and replays the whole store.
    bool err = false;
  };

  Burst* unpack_target();
  const Burst* unpack_target() const;
  void drain_responses();
  void tick_index_issue();
  void tick_index_extract();
  void retire_indices(Burst& bu);

  std::vector<LaneIO> lanes_;
  unsigned bus_bytes_;
  unsigned lanes_n_;
  IndirectWordStats word_stats_;
  Regulator idx_regulator_;
  Regulator elem_regulator_;
  sim::Fifo<axi::AxiB> b_out_;
  std::deque<Burst> bursts_;
  std::size_t max_bursts_;
  std::size_t idx_window_lines_;
  std::vector<bool> prefer_idx_;
  std::vector<std::deque<mem::WordResp>> idx_q_;
};

}  // namespace axipack::pack
