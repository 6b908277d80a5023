#include "pack/strided_read.hpp"

#include <cassert>

namespace axipack::pack {

StridedReadConverter::StridedReadConverter(sim::Kernel& k,
                                           std::vector<LaneIO> lanes,
                                           unsigned bus_bytes,
                                           unsigned queue_depth,
                                           std::size_t r_out_depth,
                                           std::size_t max_bursts)
    : lanes_(std::move(lanes)),
      bus_bytes_(bus_bytes),
      regulator_(static_cast<unsigned>(lanes_.size()), queue_depth),
      r_out_(k, r_out_depth, 1),
      max_bursts_(max_bursts) {
  k.add(*this);
  attach_lanes(k, lanes_);
  add_output(r_out_);
}

bool StridedReadConverter::can_accept_ar() const {
  return bursts_.size() < max_bursts_;
}

void StridedReadConverter::accept_ar(const axi::AxiAr& ar) {
  assert(ar.pack.has_value() && !ar.pack->indir);
  wake_self();
  Burst bu;
  bu.geom = PackGeom::make(bus_bytes_, ar.beat_bytes(), ar.pack->num_elems);
  bu.base = ar.addr;
  bu.stride = ar.pack->stride;
  bu.id = ar.id;
  bu.traffic = ar.traffic;
  bu.issue_beat.assign(lanes_.size(), 0);
  bursts_.push_back(std::move(bu));
}

void StridedReadConverter::tick_issue() {
  // Each lane issues the next word of the oldest burst it has not finished.
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    if (!regulator_.can_issue(l)) continue;
    if (!lanes_[l].req->can_push()) continue;
    // Find the first burst with an unissued valid slot on this lane.
    for (Burst& bu : bursts_) {
      std::uint64_t& beat = bu.issue_beat[l];
      // Skip past the tail: a lane is done with a burst once its next slot
      // falls outside the stream.
      if (beat >= bu.geom.beats || !bu.geom.slot_valid(bu.geom.slot(beat, l))) {
        continue;
      }
      mem::WordReq req;
      req.addr = slot_addr(bu, bu.geom.slot(beat, l));
      req.write = false;
      req.tag = l;
      lanes_[l].req->push(req);
      regulator_.on_issue(l);
      ++beat;
      progressed_ = true;
      break;
    }
  }
}

void StridedReadConverter::tick_pack() {
  if (bursts_.empty()) return;
  Burst& bu = bursts_.front();
  if (bu.pack_beat >= bu.geom.beats) return;  // fully packed, waiting retire
  if (!r_out_.can_push()) return;
  const unsigned valid = bu.geom.valid_lanes(bu.pack_beat);
  // All valid lanes must have their response at the head of their queue.
  for (unsigned l = 0; l < valid; ++l) {
    if (!lanes_[l].resp->can_pop()) return;
  }
  axi::AxiR beat;
  beat.id = bu.id;
  beat.traffic = bu.traffic;
  beat.useful_bytes = static_cast<std::uint16_t>(bu.geom.beat_useful_bytes(
      bu.pack_beat));
  for (unsigned l = 0; l < valid; ++l) {
    const mem::WordResp resp = lanes_[l].resp->pop();
    regulator_.on_retire(l);
    // An errored element word errors the whole beat (the master discards
    // the payload and retries the burst).
    if (resp.error) beat.resp = axi::worst_resp(beat.resp, axi::kRespSlvErr);
    axi::place_bytes(beat.data, 4 * l,
                     reinterpret_cast<const std::uint8_t*>(&resp.rdata), 4);
  }
  if (faults_ != nullptr) {
    unsigned bit = 0;
    if (faults_->next_pack_beat(sim::FaultSite::pack_strided, &bit)) {
      const unsigned bits = beat.useful_bytes > 0 ? beat.useful_bytes * 8u : 8u;
      const unsigned b = bit % bits;
      beat.data[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
      beat.resp = axi::worst_resp(beat.resp, axi::kRespSlvErr);
    }
  }
  ++bu.pack_beat;
  beat.last = bu.pack_beat == bu.geom.beats;
  r_out_.push(beat);
  progressed_ = true;
  ++beats_packed_;
  if (beat.last) bursts_.pop_front();
}

void StridedReadConverter::advance() {
  tick_issue();
  tick_pack();
}

}  // namespace axipack::pack
