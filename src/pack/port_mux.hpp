// Bank-port mux (paper Fig. 2b): shares the n physical word ports of the
// banked memory among the adapter's converters. Requests arbitrate per lane
// round-robin across converters; responses are routed back by the converter
// id carried in the tag's top bits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mem/word.hpp"
#include "pack/converter.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class PortMux final : public sim::Component {
 public:
  /// Tag bits reserved for the converter id (top of the 32-bit tag).
  static constexpr unsigned kConvBits = 3;
  static constexpr unsigned kConvShift = 32 - kConvBits;

  PortMux(sim::Kernel& k, mem::WordMemory& memory, unsigned num_converters,
          std::size_t lane_fifo_depth, std::size_t resp_fifo_depth);
  ~PortMux() override;

  /// Lane I/O bundle for converter `conv` (stable for the mux's lifetime).
  std::vector<LaneIO> lanes_of(unsigned conv);

  unsigned num_lanes() const { return lanes_; }

  void tick() override;
  /// Pure forwarder between the converters' lane Fifos and the memory
  /// ports; all pending work is visible in subscribed Fifos.
  bool quiescent() const override { return true; }

  std::uint64_t words_issued() const { return words_issued_; }

  /// Called with the address of every write request the moment it is
  /// granted onto a memory port, before the write enters the port FIFO.
  /// The index coalescer uses this to invalidate retained read data (its
  /// coherence point is this mux: all of the adapter's write streams are
  /// granted here).
  void set_write_snoop(std::function<void(std::uint64_t)> fn) {
    write_snoop_ = std::move(fn);
  }

  /// Sticky (burst-quantum) arbitration: once a converter is granted, it
  /// keeps its lane for up to `quantum` back-to-back grants while it has
  /// requests, before round-robin moves on. Each lane then emits long
  /// single-stream runs — which are single-row runs at the DRAM, since the
  /// coalescing units partition their streams by bank — instead of
  /// fine-grained stream interleave that forces a row swap per grant.
  /// `patience` rides out the holder's production bubbles: while it has
  /// credit but no visible request, competing converters are denied for up
  /// to that many consecutive cycles before round-robin takes over (a
  /// short idle port is cheaper than a row swap; bounded, so liveness is
  /// unaffected). quantum 0 (default) is plain per-cycle round-robin.
  void set_sticky_quantum(std::size_t quantum, sim::Cycle patience = 0) {
    sticky_quantum_ = quantum;
    sticky_patience_ = patience;
  }

 private:
  sim::Fifo<mem::WordReq>& req(unsigned conv, unsigned lane) {
    return *req_flat_[lane * convs_ + conv];
  }
  sim::Fifo<mem::WordResp>& resp(unsigned conv, unsigned lane) {
    return *resp_flat_[lane * convs_ + conv];
  }

  mem::WordMemory& memory_;
  sim::Kernel& kernel_;
  unsigned lanes_;
  unsigned convs_;
  std::vector<mem::WordPort*> ports_;  ///< cached, port(l) is virtual
  // Flat lane-major [lane * convs + conv] fifo arrays: the hot tick scans
  // all converters of one lane, so keep that scan contiguous in memory.
  std::vector<std::unique_ptr<sim::Fifo<mem::WordReq>>> req_flat_;
  std::vector<std::unique_ptr<sim::Fifo<mem::WordResp>>> resp_flat_;
  std::vector<unsigned> rr_;  ///< per-lane round-robin over converters
  std::size_t sticky_quantum_ = 0;      ///< 0 = plain round-robin
  sim::Cycle sticky_patience_ = 0;      ///< bubble-ride-out, in cycles
  std::vector<std::size_t> sticky_credit_;  ///< per-lane remaining quantum
  std::vector<unsigned> sticky_conv_;       ///< per-lane current holder
  /// Cycle the holder's current production bubble started denying a
  /// competitor (kNoHold = not holding). Stamped with cycle numbers, not
  /// tick counts, so gated and naive scheduling stay cycle-identical.
  static constexpr sim::Cycle kNoHold = ~sim::Cycle{0};
  std::vector<sim::Cycle> sticky_hold_since_;
  std::function<void(std::uint64_t)> write_snoop_;
  std::uint64_t words_issued_ = 0;
  // Occupancy masks (FifoBase::set_push_flag taps, cleared here when a
  // pop empties the Fifo). tick() visits only lanes with stored work and,
  // within a lane, only converters with a stored request (the per-lane
  // arbitration scan was the top single function of every profile; most
  // lanes and converters idle most cycles). A clear bit proves the
  // skipped check would have found nothing, so scheduling stays
  // cycle-identical.
  /// Per lane: bit c set iff converter c's request Fifo is non-empty.
  std::vector<std::uint64_t> req_pending_;
  /// Bit l set iff memory port l's response Fifo is non-empty.
  std::uint64_t resp_pending_ = 0;

  /// First converter, in round-robin order from `from`, among `pending`
  /// whose request is visible at `now`; convs_ if none.
  unsigned first_visible(unsigned lane, std::uint64_t pending, unsigned from,
                         sim::Cycle now);
};

}  // namespace axipack::pack
