// The ideal requestor of §III-E as a gate-safe component, shared by the
// sensitivity harness and the channel-scaling sweep: it pushes a prepared
// AR stream (one request per cycle, as AR-channel handshaking allows) and
// drains/accounts R beats. Quiescent once all requests are out — from
// then on only R traffic (subscribed) re-activates it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "axi/types.hpp"
#include "sim/kernel.hpp"

namespace axipack::sys {

class StreamRequestor final : public sim::Component {
 public:
  StreamRequestor(sim::Kernel& k, axi::AxiPort& port,
                  std::vector<axi::AxiAr> ars)
      : port_(port), ars_(std::move(ars)) {
    for (const axi::AxiAr& ar : ars_) beats_left_ += ar.beats();
    k.add(*this);
    k.subscribe(*this, port_.r);
  }

  void tick() override {
    if (next_ar_ < ars_.size() && port_.ar.try_push(ars_[next_ar_])) {
      ++next_ar_;
    }
    while (const auto beat = port_.r.try_pop()) {
      payload_bytes_ += beat->useful_bytes;
      --beats_left_;
    }
  }

  bool quiescent() const override { return next_ar_ >= ars_.size(); }

  bool done() const { return beats_left_ == 0; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  axi::AxiPort& port_;
  std::vector<axi::AxiAr> ars_;
  std::size_t next_ar_ = 0;
  std::uint64_t beats_left_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

}  // namespace axipack::sys
