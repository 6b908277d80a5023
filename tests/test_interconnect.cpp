// Interconnect IP tests: AXI crossbar routing/ordering with multiple
// masters and slaves, and the width converter's regular + pack re-packing.
#include "test_common.hpp"

#include <cstring>
#include <memory>

#include "axi/burst.hpp"
#include "axi/types.hpp"
#include "axi/width_converter.hpp"
#include "axi/xbar.hpp"
#include "mem/backing_store.hpp"
#include "mem/banked_memory.hpp"
#include "pack/adapter.hpp"

namespace axipack {
namespace {

constexpr std::uint64_t kSlave0Base = 0x8000'0000ull;
constexpr std::uint64_t kSlave1Base = 0x9000'0000ull;
constexpr std::uint64_t kRegion = 1u << 20;

/// A functional AXI slave answering reads with (addr/4) and acking writes;
/// used to verify crossbar routing without a full memory stack.
class EchoSlave final : public sim::Component {
 public:
  EchoSlave(sim::Kernel& k, axi::AxiPort& port, unsigned bus_bytes)
      : port_(port), bus_bytes_(bus_bytes) {
    k.add(*this);
  }

  void tick() override {
    if (beats_left_ == 0 && port_.ar.can_pop()) {
      ar_ = port_.ar.pop();
      beats_left_ = ar_.beats();
      beat_ = 0;
    }
    if (beats_left_ > 0 && port_.r.can_push()) {
      axi::AxiR r;
      r.id = ar_.id;
      const std::uint64_t addr = axi::beat_addr(ar_, beat_);
      for (unsigned w = 0; w < bus_bytes_ / 4; ++w) {
        const std::uint32_t value =
            static_cast<std::uint32_t>((addr + 4 * w) / 4);
        axi::place_bytes(r.data, 4 * w,
                         reinterpret_cast<const std::uint8_t*>(&value), 4);
      }
      r.useful_bytes = static_cast<std::uint16_t>(bus_bytes_);
      ++beat_;
      --beats_left_;
      r.last = beats_left_ == 0;
      port_.r.push(r);
    }
    if (port_.aw.can_pop() && w_expected_ == 0) {
      aw_ = port_.aw.pop();
      w_expected_ = aw_.beats();
    }
    if (w_expected_ > 0 && port_.w.can_pop()) {
      port_.w.pop();
      if (--w_expected_ == 0 && port_.b.can_push()) {
        axi::AxiB b;
        b.id = aw_.id;
        port_.b.push(b);
      }
    }
  }

 private:
  axi::AxiPort& port_;
  unsigned bus_bytes_;
  axi::AxiAr ar_{};
  axi::AxiAw aw_{};
  unsigned beats_left_ = 0;
  unsigned beat_ = 0;
  unsigned w_expected_ = 0;
};

TEST(AxiXbarTest, RoutesByAddress) {
  sim::Kernel k;
  axi::AxiPort m0(k, 2, "m0");
  axi::AxiPort s0(k, 2, "s0");
  axi::AxiPort s1(k, 2, "s1");
  axi::AxiXbar xbar(k, {&m0}, {&s0, &s1},
                    {{kSlave0Base, kRegion, 0}, {kSlave1Base, kRegion, 1}});
  EchoSlave e0(k, s0, 32);
  EchoSlave e1(k, s1, 32);

  // One read to each slave, same master.
  axi::AxiAr ar;
  ar.addr = kSlave1Base + 64;
  ar.size = 5;
  ar.len = 0;
  m0.ar.push(ar);
  int beats = 0;
  std::uint32_t first_word = 0;
  k.run_until([&] {
    if (m0.r.can_pop()) {
      const auto beat = m0.r.pop();
      if (beats == 0) {
        axi::extract_bytes(beat.data, 0,
                           reinterpret_cast<std::uint8_t*>(&first_word), 4);
      }
      ++beats;
      return beat.last;
    }
    return false;
  });
  EXPECT_EQ(beats, 1);
  EXPECT_EQ(first_word, static_cast<std::uint32_t>((kSlave1Base + 64) / 4));
}

TEST(AxiXbarTest, TwoMastersArbitrateFairly) {
  sim::Kernel k;
  axi::AxiPort m0(k, 4, "m0");
  axi::AxiPort m1(k, 4, "m1");
  axi::AxiPort s0(k, 4, "s0");
  axi::AxiXbar xbar(k, {&m0, &m1}, {&s0}, {{kSlave0Base, kRegion, 0}});
  EchoSlave e0(k, s0, 32);

  // Both masters issue 4 single-beat reads each.
  int pushed0 = 0;
  int pushed1 = 0;
  int got0 = 0;
  int got1 = 0;
  k.run_until(
      [&] {
        if (pushed0 < 4 && m0.ar.can_push()) {
          axi::AxiAr ar;
          ar.addr = kSlave0Base + 32ull * pushed0;
          ar.size = 5;
          m0.ar.push(ar);
          ++pushed0;
        }
        if (pushed1 < 4 && m1.ar.can_push()) {
          axi::AxiAr ar;
          ar.addr = kSlave0Base + 4096 + 32ull * pushed1;
          ar.size = 5;
          m1.ar.push(ar);
          ++pushed1;
        }
        if (m0.r.can_pop()) {
          m0.r.pop();
          ++got0;
        }
        if (m1.r.can_pop()) {
          m1.r.pop();
          ++got1;
        }
        return got0 == 4 && got1 == 4;
      },
      10'000);
  EXPECT_EQ(got0, 4);
  EXPECT_EQ(got1, 4);
}

TEST(AxiXbarTest, WriteFollowsAwOrder) {
  sim::Kernel k;
  axi::AxiPort m0(k, 4, "m0");
  axi::AxiPort s0(k, 4, "s0");
  axi::AxiXbar xbar(k, {&m0}, {&s0}, {{kSlave0Base, kRegion, 0}});
  EchoSlave e0(k, s0, 32);

  axi::AxiAw aw;
  aw.addr = kSlave0Base;
  aw.size = 5;
  aw.len = 1;  // two beats
  m0.aw.push(aw);
  int w_pushed = 0;
  bool got_b = false;
  k.run_until(
      [&] {
        if (w_pushed < 2 && m0.w.can_push()) {
          axi::AxiW w;
          w.useful_bytes = 32;
          w.strb = 0xFFFFFFFF;
          w.last = w_pushed == 1;
          m0.w.push(w);
          ++w_pushed;
        }
        if (m0.b.can_pop()) {
          m0.b.pop();
          got_b = true;
        }
        return got_b;
      },
      10'000);
  EXPECT_TRUE(got_b);
}

TEST(AxiXbarTest, PackBurstsPassThroughUntouched) {
  // The key compatibility claim: a non-reshaping interconnect routes
  // AXI-Pack bursts without modification. Wire a crossbar in front of a
  // real adapter + memory and run a strided gather through it.
  sim::Kernel k;
  mem::BackingStore store(kSlave0Base, 1u << 20);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    store.write_u32(kSlave0Base + 4ull * i, i + 1);
  }
  axi::AxiPort m0(k, 2, "m0");
  axi::AxiPort s0(k, 2, "s0");
  axi::AxiXbar xbar(k, {&m0}, {&s0}, {{kSlave0Base, kRegion, 0}});
  mem::MemoryConfig mc;
  mem::BankedMemory memory(k, store, mc);
  pack::AdapterConfig ac;
  pack::AxiPackAdapter adapter(k, s0, memory, ac);

  const auto bursts =
      axi::split_pack_strided(kSlave0Base, 7 * 4, 4, 24, 32);
  m0.ar.push(bursts[0]);
  std::vector<std::uint32_t> got;
  k.run_until(
      [&] {
        while (m0.r.can_pop()) {
          const auto beat = m0.r.pop();
          for (unsigned e = 0; e < beat.useful_bytes / 4; ++e) {
            std::uint32_t v;
            axi::extract_bytes(beat.data, 4 * e,
                               reinterpret_cast<std::uint8_t*>(&v), 4);
            got.push_back(v);
          }
          if (beat.last) return true;
        }
        return false;
      },
      100'000);
  ASSERT_EQ(got.size(), 24u);
  for (std::uint32_t i = 0; i < 24; ++i) EXPECT_EQ(got[i], 7 * i + 1);
}

TEST(WidthConverterTest, RegularReadDownsized) {
  sim::Kernel k;
  axi::AxiPort up(k, 2, "up");      // 32B master side
  axi::AxiPort down(k, 2, "down");  // 8B slave side
  axi::AxiWidthConverter conv(k, up, 32, down, 8);
  EchoSlave slave(k, down, 8);

  const auto bursts = axi::split_contiguous(kSlave0Base, 64, 32);
  up.ar.push(bursts[0]);
  std::vector<std::uint32_t> got;
  k.run_until(
      [&] {
        while (up.r.can_pop()) {
          const auto beat = up.r.pop();
          for (unsigned e = 0; e < beat.useful_bytes / 4; ++e) {
            std::uint32_t v;
            axi::extract_bytes(beat.data, 4 * e,
                               reinterpret_cast<std::uint8_t*>(&v), 4);
            got.push_back(v);
          }
          if (beat.last) return true;
        }
        return false;
      },
      10'000);
  ASSERT_EQ(got.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(got[i], static_cast<std::uint32_t>(kSlave0Base / 4 + i));
  }
}

TEST(WidthConverterTest, PackBurstRepacked) {
  // A pack burst crossing the converter is re-derived for the narrow bus:
  // wire converter -> adapter(8B) -> memory and gather through it.
  sim::Kernel k;
  mem::BackingStore store(kSlave0Base, 1u << 20);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    store.write_u32(kSlave0Base + 4ull * i, 0xF00 + i);
  }
  axi::AxiPort up(k, 2, "up");
  axi::AxiPort down(k, 2, "down");
  axi::AxiWidthConverter conv(k, up, 32, down, 8);
  mem::MemoryConfig mc;
  mc.num_ports = 2;  // 8B bus -> 2 word ports
  mem::BankedMemory memory(k, store, mc);
  pack::AdapterConfig ac;
  ac.bus_bytes = 8;
  pack::AxiPackAdapter adapter(k, down, memory, ac);

  // 20 elements stride 3: wide master sees 3 beats (8 elems each), narrow
  // side re-packs into 10 beats of 2 elements.
  const auto bursts = axi::split_pack_strided(kSlave0Base, 3 * 4, 4, 20, 32);
  up.ar.push(bursts[0]);
  std::vector<std::uint32_t> got;
  k.run_until(
      [&] {
        while (up.r.can_pop()) {
          const auto beat = up.r.pop();
          for (unsigned e = 0; e < beat.useful_bytes / 4; ++e) {
            std::uint32_t v;
            axi::extract_bytes(beat.data, 4 * e,
                               reinterpret_cast<std::uint8_t*>(&v), 4);
            got.push_back(v);
          }
          if (beat.last) return true;
        }
        return false;
      },
      100'000);
  ASSERT_EQ(got.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(got[i], 0xF00u + 3 * i);
}

/// Wide-master fabric behind a downsizer: converter -> adapter -> memory.
struct DownsizedFabric {
  sim::Kernel k;
  mem::BackingStore store{kSlave0Base, 1u << 20};
  axi::AxiPort up;
  axi::AxiPort down;
  axi::AxiWidthConverter conv;
  mem::MemoryConfig mc;
  std::unique_ptr<mem::BankedMemory> memory;
  std::unique_ptr<pack::AxiPackAdapter> adapter;

  DownsizedFabric(unsigned up_bytes, unsigned down_bytes)
      : up(k, 2, "up"),
        down(k, 2, "down"),
        conv(k, up, up_bytes, down, down_bytes) {
    mc.num_ports = down_bytes / 4;
    memory = std::make_unique<mem::BankedMemory>(k, store, mc);
    pack::AdapterConfig ac;
    ac.bus_bytes = down_bytes;
    adapter = std::make_unique<pack::AxiPackAdapter>(k, down, *memory, ac);
  }

  /// Collects packed payload words of one read burst on the wide side.
  std::vector<std::uint32_t> gather(const axi::AxiAr& ar) {
    up.ar.push(ar);
    std::vector<std::uint32_t> got;
    k.run_until(
        [&] {
          while (up.r.can_pop()) {
            const auto beat = up.r.pop();
            for (unsigned e = 0; e < beat.useful_bytes / 4; ++e) {
              std::uint32_t v;
              axi::extract_bytes(beat.data, 4 * e,
                                 reinterpret_cast<std::uint8_t*>(&v), 4);
              got.push_back(v);
            }
            if (beat.last) return true;
          }
          return false;
        },
        200'000);
    return got;
  }
};

class WidthConverterSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, bool>> {};

TEST_P(WidthConverterSweep, PackGatherSurvivesDownsizing) {
  const auto [down_bytes, elem_bytes, indirect] = GetParam();
  DownsizedFabric fab(32, down_bytes);
  const std::uint32_t n = 48;
  const unsigned wpe = elem_bytes / 4;
  // Element table.
  for (std::uint32_t i = 0; i < 4096; ++i) {
    fab.store.write_u32(kSlave0Base + 4ull * i, 0xD000 + i);
  }

  axi::AxiAr ar;
  std::vector<std::uint32_t> expect;
  if (indirect) {
    const std::uint64_t idx_base = kSlave0Base + (1u << 18);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t idx = (i * 31 + 5) % 512;
      fab.store.write_u32(idx_base + 4ull * i, idx);
      for (unsigned w = 0; w < wpe; ++w) {
        expect.push_back(0xD000 + idx * wpe + w);
      }
    }
    const auto bursts = axi::split_pack_indirect(kSlave0Base, idx_base, 32,
                                                 elem_bytes, n, 32);
    ASSERT_EQ(bursts.size(), 1u);
    ar = bursts[0];
  } else {
    const std::int64_t stride = 5 * elem_bytes;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (unsigned w = 0; w < wpe; ++w) {
        expect.push_back(0xD000 + i * 5 * wpe + w);
      }
    }
    const auto bursts =
        axi::split_pack_strided(kSlave0Base, stride, elem_bytes, n, 32);
    ASSERT_EQ(bursts.size(), 1u);
    ar = bursts[0];
  }

  const auto got = fab.gather(ar);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "word " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndElems, WidthConverterSweep,
    ::testing::Combine(::testing::Values(8u, 16u),  // narrow side width
                       ::testing::Values(4u, 8u),   // element bytes
                       ::testing::Bool()),          // strided / indirect
    [](const auto& info) {
      return "down" + std::to_string(std::get<0>(info.param)) + "_es" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_indirect" : "_strided");
    });

TEST(WidthConverterTest, PackScatterSurvivesDownsizing) {
  // Strided pack WRITE through the downsizer: wide W beats are split into
  // narrow beats whose packed payload the narrow-side adapter scatters.
  DownsizedFabric fab(32, 8);
  const std::uint32_t n = 24;
  const std::int64_t stride = 28;
  const std::uint64_t dst = kSlave0Base + (1u << 16);

  const auto bursts = axi::split_pack_strided(dst, stride, 4, n, 32);
  ASSERT_EQ(bursts.size(), 1u);
  const axi::AxiAw aw = bursts[0];
  bool aw_pushed = false;
  std::uint32_t sent = 0;
  bool done = false;
  fab.k.run_until(
      [&] {
        if (!aw_pushed && fab.up.aw.can_push()) {
          fab.up.aw.push(aw);
          aw_pushed = true;
        }
        if (aw_pushed && sent < n && fab.up.w.can_push()) {
          axi::AxiW beat;
          const std::uint32_t cnt = std::min<std::uint32_t>(8, n - sent);
          for (std::uint32_t e = 0; e < cnt; ++e) {
            const std::uint32_t value = 0xBEE0'0000u + sent + e;
            axi::place_bytes(beat.data, 4 * e,
                             reinterpret_cast<const std::uint8_t*>(&value),
                             4);
          }
          beat.strb = axi::strb_mask(0, 4 * cnt);
          beat.useful_bytes = static_cast<std::uint16_t>(4 * cnt);
          sent += cnt;
          beat.last = sent == n;
          fab.up.w.push(beat);
        }
        if (fab.up.b.can_pop()) {
          fab.up.b.pop();
          done = true;
        }
        return done;
      },
      200'000);
  ASSERT_TRUE(done);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(fab.store.read_u32(dst + i * stride), 0xBEE0'0000u + i)
        << "element " << i;
  }
}

}  // namespace
}  // namespace axipack
