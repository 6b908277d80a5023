#include "sim/kernel.hpp"

#include <cxxabi.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <typeinfo>

namespace axipack::sim {

void Kernel::add(Component& c) {
  assert(c.kernel_ == nullptr && "component registered twice");
  c.kernel_ = this;
  const auto id = static_cast<std::uint32_t>(slots_.size());
  c.comp_id_ = id;
  slots_.emplace_back();
  slots_.back().component = &c;
  if (id % 64 == 0) {
    awake_.push_back(0);
    wheel_.resize(wheel_.size() + kWheelSlots, 0);
  }
  awake_[id / 64] |= bit(id);
  ++awake_count_;
}

void Kernel::add(FifoBase& f) {
  assert(f.kernel_ == nullptr && "fifo registered twice");
  f.kernel_ = this;
}

void Kernel::subscribe(Component& c, FifoBase& f) {
  assert(c.kernel_ == this && f.kernel_ == this);
  slots_[c.comp_id_].subs.push_back(&f);
  f.subscribers_.push_back(c.comp_id_);
}

void Kernel::wake(Component& c) {
  assert(c.kernel_ == this);
  wake_id(c.comp_id_);
}

std::vector<const Component*> Kernel::components() const {
  std::vector<const Component*> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.push_back(s.component);
  return out;
}

std::string component_class(const Component& c) {
  const char* mangled = typeid(c).name();
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name = status == 0 ? demangled : mangled;
  std::free(demangled);
  const std::size_t colon = name.rfind("::");
  return colon == std::string::npos ? name : name.substr(colon + 2);
}

void Kernel::set_gating(bool on) {
  if (gating_ == on) return;
  gating_ = on;
  if (!on) {
    // Naive mode ticks everything; make the awake set reflect that so a
    // later re-enable starts from a conservative (all-awake) state, and
    // drop the timed wakes — naive steps do not service them.
    for (std::uint32_t i = 0; i < slots_.size(); ++i) wake_id(i);
    std::fill(wheel_.begin(), wheel_.end(), 0);
    wheel_rows_ = 0;
    wakes_ = {};
  }
}

void Kernel::service_wakes() {
  const unsigned row = static_cast<unsigned>(cycle_ % kWheelSlots);
  const std::uint64_t row_bit = std::uint64_t{1} << row;
  if ((wheel_rows_ & row_bit) != 0) {
    wheel_rows_ &= ~row_bit;
    for (std::size_t w = 0; w < awake_.size(); ++w) {
      std::uint64_t& ids = wheel_[w * kWheelSlots + row];
      for (std::uint64_t m = std::exchange(ids, 0); m != 0; m &= m - 1) {
        wake_id(static_cast<std::uint32_t>(w * 64 + std::countr_zero(m)));
      }
    }
  }
  while (!wakes_.empty() && wakes_.top().first <= cycle_) {
    wake_id(wakes_.top().second);
    wakes_.pop();
  }
}

Cycle Kernel::next_timed_wake() const {
  Cycle next = wakes_.empty() ? kNever : wakes_.top().first;
  if (wheel_rows_ != 0) {
    // Rows are cycle % 64 and every entry lies in (cycle_, cycle_ + 64), so
    // the first occupied row after the current one is the earliest.
    const int shift = static_cast<int>(cycle_ % kWheelSlots);
    next = std::min<Cycle>(
        next, cycle_ + std::countr_zero(std::rotr(wheel_rows_, shift)));
  }
  return next;
}

void Kernel::try_sleep(std::uint32_t i) {
  Slot& slot = slots_[i];
  Component* c = slot.component;
  if (!c->quiescent()) {
    defer_sleep_check(slot);
    return;
  }
  const std::vector<FifoBase*>& subs = slot.subs;
  Cycle next_wake = kNever;
  const Cycle timed = c->wake_hint();
  if (timed > cycle_) {
    // The component vouches its tick() is a no-op until `timed` even with
    // visible subscribed input (a timing window, with the visibility of
    // every already-enqueued item folded into the hint) — sleep through
    // it. New pushes while asleep still wake earlier via notify_push.
    next_wake = timed;
  } else {
    const std::size_t n = subs.size();
    // Start scanning at the subscription that kept us awake last time: in
    // steady streaming the same input stays visible, making the scan O(1).
    const std::size_t hint = slot.sub_hint < n ? slot.sub_hint : 0;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t j = hint + k;
      if (j >= n) j -= n;
      const FifoBase* f = subs[j];
      if (f->size_ == 0) continue;
      if (f->head_visible_ <= cycle_) {  // visible work: stay awake
        slot.sub_hint = j;
        defer_sleep_check(slot);
        return;
      }
      next_wake = std::min(next_wake, f->head_visible_);
    }
  }
  // A sleep/wake round-trip has real cost (subscription counters, wake
  // queue); napping through a short latency window is a net loss, so stay
  // awake and no-op-tick through it, exactly like the naive kernel.
  if (next_wake != kNever && next_wake - cycle_ < kMinSleepCycles) {
    defer_sleep_check(slot);
    return;
  }
  awake_[i / 64] &= ~bit(i);
  --awake_count_;
  ++slot.sleeps;
  slot.next_wake = kNever;
  slot.sleep_backoff = 0;
  slot.sleep_check_at = 0;
  for (FifoBase* f : subs) ++f->asleep_subscribers_;
  if (next_wake != kNever) schedule_wake(i, next_wake);
}

void Kernel::step() {
  if (gating_) {
    service_wakes();
    for (std::size_t w = 0; w < awake_.size(); ++w) {
      std::uint64_t ids = awake_[w];
      while (ids != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(ids));
        const auto i = static_cast<std::uint32_t>(w * 64 + b);
        Slot& slot = slots_[i];
        step_pos_ = i + 1;
        slot.component->tick();
        ++slot.ticks;
        // Backoff gate inline: busy components skip the sleep attempt cheaply.
        if (cycle_ >= slot.sleep_check_at) try_sleep(i);
        // Re-read the word: a component woken by this tick still ticks this
        // cycle iff its slot comes later, as in a plain in-order walk.
        ids = awake_[w] & ~((std::uint64_t{2} << b) - 1);
      }
    }
  } else {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      step_pos_ = i + 1;
      slots_[i].component->tick();
      ++slots_[i].ticks;
    }
  }
  step_pos_ = 0;
  ++cycle_;
}

bool Kernel::fast_forward(Cycle limit) {
  if (!gating_ || awake_count_ > 0) return false;
  service_wakes();
  if (awake_count_ > 0) return false;
  // Everyone is asleep: nothing can happen before the next scheduled wake,
  // so the skipped cycles are exactly the no-op cycles the naive kernel
  // would have spun through.
  cycle_ = std::min(limit, next_timed_wake());
  return true;
}

void Kernel::run(Cycle n) {
  const Cycle end = cycle_ + n;
  while (cycle_ < end) {
    if (fast_forward(end)) continue;
    step();
  }
}

RunStatus Kernel::run_until(const std::function<bool()>& done,
                            Cycle max_cycles, PredKind kind) {
  const Cycle start = cycle_;
  const Cycle deadline = cycle_ + max_cycles;
  // Evaluate once per cycle: before the first step and after each step.
  bool completed = done();
  while (!completed && cycle_ < deadline) {
    if (kind == PredKind::pure && fast_forward(deadline)) {
      // A pure predicate cannot change over skipped (fully-asleep) cycles.
      continue;
    }
    step();
    completed = done();
  }
  return RunStatus{completed, cycle_ - start};
}

}  // namespace axipack::sim
