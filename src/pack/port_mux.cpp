#include "pack/port_mux.hpp"

#include <cassert>

namespace axipack::pack {

PortMux::PortMux(sim::Kernel& k, mem::WordMemory& memory,
                 unsigned num_converters, std::size_t lane_fifo_depth,
                 std::size_t resp_fifo_depth)
    : memory_(memory),
      kernel_(k),
      lanes_(memory.num_ports()),
      convs_(num_converters) {
  assert(convs_ > 0 && convs_ < (1u << kConvBits));
  req_flat_.reserve(std::size_t{convs_} * lanes_);
  resp_flat_.reserve(std::size_t{convs_} * lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    for (unsigned c = 0; c < convs_; ++c) {
      req_flat_.push_back(std::make_unique<sim::Fifo<mem::WordReq>>(
          k, lane_fifo_depth, 1));
      resp_flat_.push_back(std::make_unique<sim::Fifo<mem::WordResp>>(
          k, resp_fifo_depth, 1));
    }
  }
  rr_.assign(lanes_, 0);
  sticky_credit_.assign(lanes_, 0);
  sticky_conv_.assign(lanes_, 0);
  sticky_hold_since_.assign(lanes_, kNoHold);
  ports_.reserve(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) ports_.push_back(&memory_.port(l));
  k.add(*this);
  for (auto& f : req_flat_) k.subscribe(*this, *f);
  for (unsigned l = 0; l < lanes_; ++l) {
    k.subscribe(*this, memory_.port(l).resp);
  }
  // Every Fifo a lane's work arrives through sets its occupancy bit on
  // push; tick() clears the bit when it pops the Fifo empty.
  assert(lanes_ <= 64 && "response occupancy mask is one 64-bit word");
  req_pending_.assign(lanes_, 0);
  for (unsigned l = 0; l < lanes_; ++l) {
    for (unsigned c = 0; c < convs_; ++c) {
      req(c, l).set_push_flag(&req_pending_[l], c);
    }
    memory_.port(l).resp.set_push_flag(&resp_pending_, l);
  }
}

PortMux::~PortMux() {
  // The memory outlives the mux in some harnesses; detach the push taps so
  // its response Fifos never write through a dangling pointer.
  for (unsigned l = 0; l < lanes_; ++l) {
    memory_.port(l).resp.set_push_flag(nullptr, 0);
  }
}

std::vector<LaneIO> PortMux::lanes_of(unsigned conv) {
  assert(conv < convs_);
  std::vector<LaneIO> out(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    out[l].req = &req(conv, l);
    out[l].resp = &resp(conv, l);
  }
  return out;
}

unsigned PortMux::first_visible(unsigned lane, std::uint64_t pending,
                               unsigned from, sim::Cycle now) {
  // Rotation order from `from`: pending converters >= from ascending, then
  // the ones below it (the wrap-around of the round-robin pointer).
  const std::uint64_t below = (std::uint64_t{1} << from) - 1;
  for (const std::uint64_t part : {pending & ~below, pending & below}) {
    for (std::uint64_t m = part; m != 0; m &= m - 1) {
      const unsigned c = static_cast<unsigned>(__builtin_ctzll(m));
      if (req(c, lane).has_visible(now)) return c;
    }
  }
  return convs_;
}

void PortMux::tick() {
  const sim::Cycle now = kernel_.now();  // hoisted out of the fifo checks
  // Lanes with nothing stored are skipped: no visible request, no
  // response, and hold aging needs a visible competitor, so their body
  // would be a no-op.
  for (unsigned l = 0; l < lanes_; ++l) {
    const std::uint64_t pending = req_pending_[l];
    const bool has_resp = ((resp_pending_ >> l) & 1) != 0;
    if (pending == 0 && !has_resp) continue;
    mem::WordPort& port = *ports_[l];
    // Requests: round-robin over converters with a pending request. With a
    // sticky quantum, the last-granted converter keeps the lane while it
    // has requests and credit; a holder in a short production bubble still
    // holds the lane (denying competitors) for up to `patience` cycles,
    // after which — or once the credit is spent — the round-robin scan
    // takes over and re-arms the credit.
    if (pending != 0 && port.req.can_push()) {
      const unsigned holder = sticky_conv_[l];
      const std::uint64_t holder_bit = std::uint64_t{1} << holder;
      unsigned c = convs_;
      if (sticky_credit_[l] > 0 && (pending & holder_bit) != 0 &&
          req(holder, l).has_visible(now)) {
        c = holder;
        sticky_hold_since_[l] = kNoHold;
      } else {
        bool hold = false;
        if (sticky_credit_[l] > 0 && sticky_patience_ > 0) {
          // Only denied competitors start or age the hold, so lanes where
          // nothing is pending carry no hold state (keeps gated and naive
          // kernel scheduling cycle-identical).
          const bool competitor =
              first_visible(l, pending & ~holder_bit, 0, now) != convs_;
          if (competitor) {
            if (sticky_hold_since_[l] == kNoHold) sticky_hold_since_[l] = now;
            if (now - sticky_hold_since_[l] < sticky_patience_) {
              hold = true;
            } else {
              sticky_hold_since_[l] = kNoHold;
              sticky_credit_[l] = 0;  // bubble outlasted patience: yield
            }
          }
        }
        if (!hold) c = first_visible(l, pending, rr_[l], now);
      }
      if (c != convs_) {
        sim::Fifo<mem::WordReq>& q = req(c, l);
        mem::WordReq r = q.pop();
        if (q.empty()) req_pending_[l] &= ~(std::uint64_t{1} << c);
        assert((r.tag >> kConvShift) == 0 && "tag collides with conv field");
        r.tag |= c << kConvShift;
        if (r.write && write_snoop_) write_snoop_(r.addr);
        port.req.push(r);
        rr_[l] = c + 1 == convs_ ? 0 : c + 1;
        if (sticky_quantum_ > 0) {
          sticky_credit_[l] = c == holder && sticky_credit_[l] > 0
                                  ? sticky_credit_[l] - 1
                                  : sticky_quantum_ - 1;
          sticky_conv_[l] = c;
          sticky_hold_since_[l] = kNoHold;
        }
        ++words_issued_;
      }
    }
    // Responses: route by converter id in the tag.
    if (has_resp && port.resp.has_visible(now)) {
      const unsigned c = port.resp.front().tag >> kConvShift;
      assert(c < convs_);
      if (resp(c, l).can_push()) {
        mem::WordResp r = port.resp.pop();
        if (port.resp.empty()) resp_pending_ &= ~(std::uint64_t{1} << l);
        r.tag &= (1u << kConvShift) - 1u;
        resp(c, l).push(r);
      }
    }
  }
}

}  // namespace axipack::pack
