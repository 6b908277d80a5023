// Protocol-level verification: the ProtocolChecker IP itself, randomized
// mixed traffic with golden-model data checks under an always-watching
// checker, and backpressure injection (a randomly stalling consumer) — the
// simulation analogue of RTL verification with protocol assertions and
// randomized ready signals.
#include "test_common.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "axi/burst.hpp"
#include "axi/monitor.hpp"
#include "axi/protocol_checker.hpp"
#include "mem/backing_store.hpp"
#include "mem/banked_memory.hpp"
#include "pack/adapter.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

constexpr std::uint64_t kBase = 0x8000'0000ull;

// ------------------------------------------------- checker unit behaviour

TEST(ProtocolChecker, AcceptsWellFormedRead) {
  axi::ProtocolChecker chk(32);
  axi::AxiAr ar;
  ar.id = 3;
  ar.len = 1;
  ar.size = 5;
  chk.observe_ar(ar, 0);
  axi::AxiR beat;
  beat.id = 3;
  chk.observe_r(beat, 1);
  beat.last = true;
  chk.observe_r(beat, 2);
  EXPECT_TRUE(chk.clean());
  EXPECT_TRUE(chk.drained());
}

TEST(ProtocolChecker, FlagsMissingLast) {
  axi::ProtocolChecker chk(32);
  axi::AxiAr ar;
  ar.len = 0;
  chk.observe_ar(ar, 0);
  axi::AxiR beat;  // last not set on the only beat
  chk.observe_r(beat, 1);
  ASSERT_FALSE(chk.clean());
  EXPECT_EQ(chk.violations()[0].rule, "R.overrun");
}

TEST(ProtocolChecker, FlagsEarlyLast) {
  axi::ProtocolChecker chk(32);
  axi::AxiAr ar;
  ar.len = 3;
  chk.observe_ar(ar, 0);
  axi::AxiR beat;
  beat.last = true;  // after one of four beats
  chk.observe_r(beat, 1);
  ASSERT_FALSE(chk.clean());
  EXPECT_EQ(chk.violations()[0].rule, "R.last");
}

TEST(ProtocolChecker, FlagsOrphanResponses) {
  axi::ProtocolChecker chk(32);
  axi::AxiR r;
  r.id = 9;
  chk.observe_r(r, 0);
  axi::AxiB b;
  b.id = 9;
  chk.observe_b(b, 0);
  ASSERT_EQ(chk.violations().size(), 2u);
  EXPECT_EQ(chk.violations()[0].rule, "R.orphan");
  EXPECT_EQ(chk.violations()[1].rule, "B.orphan");
}

TEST(ProtocolChecker, FlagsEarlyB) {
  axi::ProtocolChecker chk(32);
  axi::AxiAw aw;
  aw.id = 2;
  aw.len = 1;
  chk.observe_aw(aw, 0);
  axi::AxiB b;
  b.id = 2;
  chk.observe_b(b, 1);  // before any W beat
  ASSERT_FALSE(chk.clean());
  EXPECT_EQ(chk.violations()[0].rule, "B.early");
}

TEST(ProtocolChecker, FlagsMalformedPackRequest) {
  axi::ProtocolChecker chk(32);
  axi::AxiAr ar;
  ar.size = 2;
  ar.len = 0;  // wrong: 20 elements of 4B on a 32B bus need 3 beats
  axi::PackRequest p;
  p.num_elems = 20;
  ar.pack = p;
  chk.observe_ar(ar, 0);
  ASSERT_FALSE(chk.clean());
  EXPECT_EQ(chk.violations()[0].rule, "AR.pack.len");
}

TEST(ProtocolChecker, PackLenRuleMatchesBurstSplitter) {
  // Everything split_pack_* produces must satisfy the checker's geometry
  // rule — ties the request factory and the checker together.
  axi::ProtocolChecker chk(32);
  for (const auto& ar :
       axi::split_pack_strided(kBase, 12, 4, 1000, 32)) {
    chk.observe_ar(ar, 0);
  }
  for (const auto& ar : axi::split_pack_indirect(kBase, kBase + 0x10000, 16,
                                                 8, 777, 32)) {
    chk.observe_ar(ar, 0);
  }
  EXPECT_TRUE(chk.clean());
}

// ------------------------------------- randomized traffic + backpressure

/// Reference gather for one AR against the backing store.
std::vector<std::uint8_t> golden_payload(const mem::BackingStore& store,
                                         const axi::AxiAr& ar) {
  std::vector<std::uint8_t> out;
  if (ar.pack.has_value()) {
    const unsigned es = ar.beat_bytes();
    for (std::uint64_t i = 0; i < ar.pack->num_elems; ++i) {
      std::uint64_t addr;
      if (ar.pack->indir) {
        const unsigned ib = ar.pack->index_bits / 8;
        std::uint64_t idx = 0;
        store.read(ar.pack->index_base + i * ib, &idx, ib);
        addr = ar.addr + idx * es;
      } else {
        addr = ar.addr + static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(i) * ar.pack->stride);
      }
      for (unsigned b = 0; b < es; ++b) {
        std::uint8_t byte;
        store.read(addr + b, &byte, 1);
        out.push_back(byte);
      }
    }
  } else {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(ar.beats()) * ar.beat_bytes();
    // Full-width INCR only in this test's random mix.
    for (std::uint64_t b = 0; b < bytes; ++b) {
      std::uint8_t byte;
      store.read(ar.addr + b, &byte, 1);
      out.push_back(byte);
    }
  }
  return out;
}

struct TrafficParams {
  unsigned banks;
  unsigned stall_pct;  ///< chance (in %) the consumer refuses to pop R
};

class RandomTraffic
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(RandomTraffic, MixedReadsMatchGoldenUnderBackpressure) {
  const auto [banks, stall_pct] = GetParam();
  sim::Kernel kernel;
  mem::BackingStore store(kBase, 8u << 20);
  axi::AxiPort master(kernel, 2, "m");
  axi::AxiPort slave(kernel, 2, "s");
  axi::AxiLink link(kernel, master, slave);
  axi::ProtocolChecker checker(32);
  link.attach_checker(&checker);
  mem::MemoryConfig mc;
  mc.num_ports = 8;
  mc.num_banks = banks;
  mem::BankedMemory memory(kernel, store, mc);
  pack::AdapterConfig ac;
  pack::AxiPackAdapter adapter(kernel, slave, memory, ac);

  util::Rng rng(banks * 100 + stall_pct);
  for (std::uint32_t i = 0; i < (2u << 20) / 4; ++i) {
    store.write_u32(kBase + 4ull * i, static_cast<std::uint32_t>(rng.below(1ull << 32)));
  }
  // Index region with bounded random indices.
  const std::uint64_t idx_base = kBase + (4u << 20);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    store.write_u32(idx_base + 4ull * i, rng.below(1 << 14));
  }

  // Random request mix: regular INCR, strided, indirect.
  std::vector<axi::AxiAr> requests;
  for (int i = 0; i < 60; ++i) {
    const unsigned kind = static_cast<unsigned>(rng.below(3));
    const std::uint64_t n = 1 + rng.below(96);
    std::vector<axi::AxiAr> split;
    if (kind == 0) {
      split = axi::split_contiguous(kBase + 4 * rng.below(1 << 16), n * 4, 32);
    } else if (kind == 1) {
      const std::int64_t stride = 4 * (1 + static_cast<std::int64_t>(
                                               rng.below(24)));
      split = axi::split_pack_strided(kBase + 4 * rng.below(1 << 10), stride,
                                      4, n, 32);
    } else {
      split = axi::split_pack_indirect(kBase, idx_base + 4 * rng.below(1024),
                                       32, 4, n, 32);
    }
    requests.insert(requests.end(), split.begin(), split.end());
  }

  // Issue everything; consume R beats with random stalls; compare payload
  // streams burst by burst (single-ID traffic returns in request order).
  std::vector<std::uint8_t> got;
  std::size_t next = 0;
  std::uint64_t bursts_done = 0;
  const bool ok = kernel.run_until(
      [&] {
        if (next < requests.size() && master.ar.can_push()) {
          master.ar.push(requests[next]);
          ++next;
        }
        if (master.r.can_pop() && rng.below(100) >= stall_pct) {
          const axi::AxiR beat = master.r.pop();
          for (unsigned b = 0; b < beat.useful_bytes; ++b) {
            got.push_back(beat.data[b]);
          }
          if (beat.last) ++bursts_done;
        }
        return bursts_done == requests.size();
      },
      20'000'000);
  ASSERT_TRUE(ok) << "traffic did not drain";

  std::vector<std::uint8_t> expect;
  for (const auto& ar : requests) {
    const auto g = golden_payload(store, ar);
    expect.insert(expect.end(), g.begin(), g.end());
  }
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(got == expect) << "payload mismatch";

  EXPECT_TRUE(checker.clean())
      << checker.violations().size() << " violations, first: "
      << checker.violations()[0].rule << " — "
      << checker.violations()[0].detail;
  EXPECT_TRUE(checker.drained());
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndStalls, RandomTraffic,
    ::testing::Combine(::testing::Values(8u, 17u, 32u),
                       ::testing::Values(0u, 30u, 70u)),
    [](const auto& info) {
      return "banks" + std::to_string(std::get<0>(info.param)) + "_stall" +
             std::to_string(std::get<1>(info.param));
    });

// Write-side randomized traffic with the checker watching W/B ordering.
TEST(RandomTraffic, MixedWritesLandCorrectlyUnderChecker) {
  sim::Kernel kernel;
  mem::BackingStore store(kBase, 8u << 20);
  axi::AxiPort master(kernel, 2, "m");
  axi::AxiPort slave(kernel, 2, "s");
  axi::AxiLink link(kernel, master, slave);
  axi::ProtocolChecker checker(32);
  link.attach_checker(&checker);
  mem::MemoryConfig mc;
  mc.num_ports = 8;
  mc.num_banks = 17;
  mem::BankedMemory memory(kernel, store, mc);
  pack::AdapterConfig ac;
  pack::AxiPackAdapter adapter(kernel, slave, memory, ac);

  util::Rng rng(99);
  struct Job {
    axi::AxiAw aw;
    std::vector<std::uint32_t> payload;  ///< packed words
    std::uint64_t dst;                   ///< first element address
    std::int64_t stride;
  };
  std::vector<Job> jobs;
  std::uint64_t region = kBase + (1u << 20);
  for (int i = 0; i < 24; ++i) {
    Job job;
    const std::uint64_t n = 1 + rng.below(64);
    job.stride = 4 * (1 + static_cast<std::int64_t>(rng.below(12)));
    job.dst = region;
    region += n * job.stride + 64;
    const auto split =
        axi::split_pack_strided(job.dst, job.stride, 4, n, 32);
    ASSERT_EQ(split.size(), 1u);
    job.aw = split[0];
    for (std::uint64_t e = 0; e < n; ++e) {
      job.payload.push_back(static_cast<std::uint32_t>(rng.below(1ull << 32)));
    }
    jobs.push_back(std::move(job));
  }

  std::size_t next_aw = 0;
  std::size_t w_job = 0;
  std::size_t w_word = 0;
  std::uint64_t bs = 0;
  const bool ok = kernel.run_until(
      [&] {
        if (next_aw < jobs.size() && next_aw <= w_job &&
            master.aw.can_push()) {
          master.aw.push(jobs[next_aw].aw);
          ++next_aw;
        }
        if (w_job < jobs.size() && w_job < next_aw && master.w.can_push()) {
          const Job& job = jobs[w_job];
          axi::AxiW beat;
          const std::size_t cnt =
              std::min<std::size_t>(8, job.payload.size() - w_word);
          for (std::size_t e = 0; e < cnt; ++e) {
            axi::place_bytes(
                beat.data, static_cast<unsigned>(4 * e),
                reinterpret_cast<const std::uint8_t*>(&job.payload[w_word + e]),
                4);
          }
          beat.strb = axi::strb_mask(0, static_cast<unsigned>(4 * cnt));
          beat.useful_bytes = static_cast<std::uint16_t>(4 * cnt);
          w_word += cnt;
          beat.last = w_word == job.payload.size();
          master.w.push(beat);
          if (beat.last) {
            ++w_job;
            w_word = 0;
          }
        }
        if (master.b.can_pop()) {
          master.b.pop();
          ++bs;
        }
        return bs == jobs.size();
      },
      20'000'000);
  ASSERT_TRUE(ok);

  for (const Job& job : jobs) {
    for (std::size_t e = 0; e < job.payload.size(); ++e) {
      ASSERT_EQ(store.read_u32(job.dst + static_cast<std::uint64_t>(
                                             job.stride * static_cast<std::int64_t>(e))),
                job.payload[e]);
    }
  }
  EXPECT_TRUE(checker.clean())
      << checker.violations().size() << " violations, first: "
      << checker.violations()[0].rule;
  EXPECT_TRUE(checker.drained());
}

// ------------------------------------------- fault-mode diagnostics policy

TEST(ProtocolDiagnostics, InjectedTruncationIsCollectedNotFatal) {
  // An injected burst truncation breaks the R beat-count rule on purpose.
  // With a fault plan attached, checker findings are collected diagnostics
  // surfaced through RunResult — the run must recover via retry and stay
  // correct instead of hard-failing on the first violation.
  sys::SystemBuilder b =
      sys::ScenarioRegistry::instance().builder("pack-256-17b");
  b.faults(sim::FaultConfig{});
  sim::RetryConfig rc;
  rc.max_attempts = 4;
  rc.timeout_cycles = 50'000;
  b.retry(rc);
  std::unique_ptr<sys::System> system = b.build();
  system->fault_plan()->force(sim::FaultSite::link_r, 12, 2);

  wl::WorkloadConfig cfg = sys::plan_workload(wl::KernelKind::gemv, b);
  cfg.n = 64;
  const wl::WorkloadInstance inst = wl::build_workload(system->store(), cfg);
  const sys::RunResult r = system->run(inst);

  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_GE(r.protocol_violations, 1u);
  ASSERT_TRUE(system->protocol_checker() != nullptr);
  EXPECT_EQ(system->protocol_checker()->violations().size(),
            r.protocol_violations);
  EXPECT_FALSE(system->protocol_checker()->violations().front().rule.empty());
}

TEST(ProtocolDiagnostics, CleanFaultPlanRunsStayViolationFree) {
  // The converse guard: attaching a plan must not relax checking into
  // false positives — a zero-rate plan still reports a clean link.
  sys::SystemBuilder b =
      sys::ScenarioRegistry::instance().builder("pack-256-17b");
  b.faults(sim::FaultConfig{});
  std::unique_ptr<sys::System> system = b.build();
  wl::WorkloadConfig cfg = sys::plan_workload(wl::KernelKind::spmv, b);
  cfg.n = 48;
  cfg.nnz_per_row = 16;
  const wl::WorkloadInstance inst = wl::build_workload(system->store(), cfg);
  const sys::RunResult r = system->run(inst);
  EXPECT_TRUE(r.correct) << r.error;
  EXPECT_EQ(r.protocol_violations, 0u);
}

}  // namespace
}  // namespace axipack
