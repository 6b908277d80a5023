// Gated-vs-naive kernel equivalence: the activity-gated kernel (sleeping
// components, wake scheduling, idle fast-forward, lazy pop accounting) must
// report bit-identical results to the force-naive kernel (every component
// ticked every cycle) for every registered scenario and for the sensitivity
// harness: every stat RunResult::to_json() reports, plus the link beat
// counts and DMA stats it does not. The last tests check that gating pays:
// components waiting on in-flight requests actually sleep.
#include "test_common.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "axi/types.hpp"
#include "dma/descriptor.hpp"
#include "dma/engine.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory.hpp"
#include "pack/adapter.hpp"
#include "sim/kernel.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/sensitivity.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

/// Everything one run reports: the full RunResult JSON (every stat an
/// artifact or figure can read) plus the counters the JSON does not carry —
/// the monitored link's beat counts and the DMA engines' stats.
struct Outcome {
  sys::RunResult run;
  std::uint64_t dma_bytes_moved = 0;
  std::uint64_t dma_busy_cycles = 0;
  std::uint64_t dma_desc_fetch_bytes = 0;
};

void expect_identical(const Outcome& naive, const Outcome& gated,
                      const std::string& what) {
  EXPECT_EQ(naive.run.to_json(), gated.run.to_json()) << what;
  EXPECT_EQ(naive.run.bus.r_beats, gated.run.bus.r_beats) << what;
  EXPECT_EQ(naive.run.bus.w_beats, gated.run.bus.w_beats) << what;
  EXPECT_EQ(naive.dma_bytes_moved, gated.dma_bytes_moved) << what;
  EXPECT_EQ(naive.dma_busy_cycles, gated.dma_busy_cycles) << what;
  EXPECT_EQ(naive.dma_desc_fetch_bytes, gated.dma_desc_fetch_bytes) << what;
}

/// Runs `cfg` on `scenario` under the naive and the gated kernel (in that
/// order), both after the optional builder `patch`.
std::pair<sys::RunResult, sys::RunResult> run_both(
    const std::string& scenario, const wl::WorkloadConfig& cfg,
    std::function<void(sys::SystemBuilder&)> patch = {}) {
  sys::WorkloadJob gated{scenario, cfg, patch};
  sys::WorkloadJob naive = gated;
  naive.builder_patch = [patch](sys::SystemBuilder& b) {
    if (patch) patch(b);
    b.naive_kernel(true);
  };
  auto results = sys::run_workloads({naive, gated}, /*threads=*/1);
  return {std::move(results[0]), std::move(results[1])};
}

/// Value of word `i` of chain link `link` of DMA master `id`.
std::uint32_t chain_word(sys::MasterId id, std::uint64_t link,
                         std::uint64_t i) {
  return (id << 20) + static_cast<std::uint32_t>(((link + 1) << 12) + i);
}

/// Drives one scenario to completion under the requested kernel mode:
/// processor masters run a small gemv, DMA masters move a strided stream
/// and then walk a 3-link in-memory descriptor chain.
Outcome drive_scenario(const std::string& name, bool naive) {
  sys::SystemBuilder builder =
      sys::ScenarioRegistry::instance().builder(name);
  builder.naive_kernel(naive);
  std::unique_ptr<sys::System> system = builder.build();

  // Seed each DMA master with a deterministic strided->contiguous move
  // (register-programmed) and a chain of contiguous copies behind it.
  std::vector<std::uint64_t> dma_dsts;
  std::vector<std::uint64_t> chain_dsts;
  constexpr std::uint64_t kDmaElems = 192;
  constexpr std::uint64_t kChainLinks = 3;
  constexpr std::uint64_t kChainElems = 48;
  for (sys::MasterId id = 0; id < system->num_masters(); ++id) {
    if (!system->is_dma(id)) continue;
    mem::BackingStore& store = system->store();
    const std::int64_t stride = 36 + 8 * static_cast<std::int64_t>(id);
    const std::uint64_t src =
        store.alloc(kDmaElems * static_cast<std::uint64_t>(stride) + 64, 64);
    const std::uint64_t dst = store.alloc(kDmaElems * 4, 64);
    for (std::uint64_t i = 0; i < kDmaElems; ++i) {
      store.write_u32(src + i * static_cast<std::uint64_t>(stride),
                      (id << 20) + static_cast<std::uint32_t>(i));
    }
    dma::Descriptor d;
    d.src = dma::Pattern::strided(src, stride);
    d.dst = dma::Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = kDmaElems;
    system->dma(id).push(d);
    dma_dsts.push_back(dst);

    std::vector<dma::Descriptor> chain;
    for (std::uint64_t k = 0; k < kChainLinks; ++k) {
      const std::uint64_t csrc = store.alloc(kChainElems * 4, 64);
      const std::uint64_t cdst = store.alloc(kChainElems * 4, 64);
      for (std::uint64_t i = 0; i < kChainElems; ++i) {
        store.write_u32(csrc + 4 * i, chain_word(id, k, i));
      }
      dma::Descriptor c;
      c.src = dma::Pattern::contiguous(csrc);
      c.dst = dma::Pattern::contiguous(cdst);
      c.elem_bytes = 4;
      c.num_elems = kChainElems;
      chain.push_back(c);
      chain_dsts.push_back(cdst);
    }
    system->dma(id).start_chain(dma::build_chain(store, chain));
  }

  Outcome out;
  bool has_proc = false;
  for (sys::MasterId id = 0; id < system->num_masters(); ++id) {
    has_proc = has_proc || system->is_processor(id);
  }
  if (has_proc) {
    auto cfg = sys::plan_workload(wl::KernelKind::gemv, name);
    cfg.n = 96;  // small but multi-op: issue, chaining, loads and stores
    const wl::WorkloadInstance instance =
        wl::build_workload(system->store(), cfg);
    out.run = system->run(instance);
  } else {
    const sim::RunStatus status = system->run_until_drained(5'000'000);
    EXPECT_TRUE(status.completed) << name;
    out.run.cycles = status.cycles;
    out.run.correct = true;
  }
  // Fold in DMA outcomes (and verify the moved data).
  for (sys::MasterId id = 0, d = 0; id < system->num_masters(); ++id) {
    if (!system->is_dma(id)) continue;
    out.dma_bytes_moved += system->dma(id).stats().bytes_moved;
    out.dma_busy_cycles += system->dma(id).stats().busy_cycles;
    out.dma_desc_fetch_bytes += system->dma(id).stats().desc_fetch_bytes;
    EXPECT_EQ(system->dma(id).stats().descriptors_done, 1 + kChainLinks)
        << name << " dma " << id;
    for (std::uint64_t i = 0; i < kDmaElems; ++i) {
      EXPECT_EQ(system->store().read_u32(dma_dsts[d] + 4 * i),
                (id << 20) + i)
          << name << " dma " << id << " elem " << i;
    }
    for (std::uint64_t k = 0; k < kChainLinks; ++k) {
      for (std::uint64_t i = 0; i < kChainElems; ++i) {
        EXPECT_EQ(
            system->store().read_u32(chain_dsts[d * kChainLinks + k] + 4 * i),
            chain_word(id, k, i))
            << name << " dma " << id << " link " << k << " elem " << i;
      }
    }
    ++d;
  }
  return out;
}

TEST(KernelEquivalence, EveryRegisteredScenario) {
  for (const std::string& name : sys::ScenarioRegistry::instance().names()) {
    expect_identical(drive_scenario(name, /*naive=*/true),
                     drive_scenario(name, /*naive=*/false), name);
  }
}

TEST(KernelEquivalence, ParametricFamilyMembers) {
  // Parsed (not pre-registered) family points, covering the narrow buses
  // and the DRAM backend (base-dram/pack-dram themselves are registered and
  // already covered by EveryRegisteredScenario).
  for (const std::string name :
       {"base-64-9b", "pack-64-9b", "pack-128-31b", "ideal-128",
        "pack-64-dram", "base-128-dram",
        // Row-batching scheduler family: head-only, small window with a
        // tight cap, full window with the veto disabled, and an explicit
        // memory-FIFO depth — the gated kernel must stay cycle-identical
        // at every sched-window setting.
        "pack-256-dram-w1", "pack-64-dram-w8-c16", "pack-128-dram-w32-c0",
        "base-64-dram-w16-q48",
        // Index-coalescer family: small and large pending tables, head-only
        // and deep grouping windows, and a knob mix on a narrow bus — the
        // gated kernel must stay cycle-identical with the coalescer's
        // merge/fan-out/reorder machinery in the loop (and the coalescer
        // stats themselves must be bit-identical).
        "pack-256-dram-x16", "pack-64-dram-x8-g4",
        "pack-128-dram-x32-g16-w8",
        // Multi-channel family: the channel router's eager response
        // reordering holds internal state the gating sleep logic must
        // account for, so cycle identity here guards the whole
        // fan-out/reassembly machine, alone and composed with the other
        // knobs (scheduler window, coalescer, extra masters).
        "pack-256-dram-ch2", "base-128-dram-ch2", "pack-64-dram-ch4-w8",
        "pack-256-dram-ch8-x16", "pack-256-dram-ch4-m6"}) {
    expect_identical(drive_scenario(name, /*naive=*/true),
                     drive_scenario(name, /*naive=*/false), name);
  }
}

TEST(KernelEquivalence, CoalescedIndirectKernels) {
  // The parametric sweep above drives gemv, which never enters the
  // indirect path — run real gather kernels through coalesced scenarios so
  // the pending table, fan-out and grouping window are actually in the
  // loop, and require the coalescer to have merged something (non-vacuous).
  for (const std::string& scenario :
       {std::string("pack-dram-coalesce"), std::string("pack-64-dram-x8-g4")}) {
    for (const auto kernel : {wl::KernelKind::spmv, wl::KernelKind::sssp}) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 96;
      cfg.nnz_per_row = 24;
      const auto [naive, gated] = run_both(scenario, cfg);
      expect_identical({naive}, {gated},
                       scenario + " " + wl::kernel_name(kernel));
      EXPECT_GT(gated.coalesce_unique, 0u) << scenario;
      EXPECT_GT(gated.coalesce_merged, 0u) << scenario;
    }
  }
}

TEST(KernelEquivalence, FaultInjectionStaysCycleIdentical) {
  // Fault decisions are a pure hash of per-site event ordinals, so the
  // gated and naive kernels (identical traffic) must see identical faults,
  // identical retries and identical cycles. Rates high enough that the run
  // is non-vacuous: faults actually fire and are recovered.
  for (const std::string& scenario :
       {std::string("pack-256-dram-f50-r4"),
        std::string("pack-64-dram-f50-r4"),
        // Faults on a multi-channel fabric: per-link injection plus the
        // router's truncation-poison path must stay deterministic.
        std::string("pack-256-dram-ch4-f50-r4")}) {
    for (const auto kernel : {wl::KernelKind::spmv, wl::KernelKind::gemv}) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 64;
      if (wl::kernel_is_indirect(kernel)) cfg.nnz_per_row = 16;
      const auto [naive, gated] = run_both(scenario, cfg);
      expect_identical({naive}, {gated},
                       scenario + " " + wl::kernel_name(kernel));
      EXPECT_GT(gated.faults_injected, 0u)
          << scenario << " " << wl::kernel_name(kernel);
      EXPECT_TRUE(gated.correct) << scenario << " " << gated.error;
    }
  }
}

TEST(KernelEquivalence, RefreshEpochMultiSkipStress) {
  // Tiny refresh interval: epochs are ~18x more frequent than the default,
  // so every idle fast-forward in the gated run (converter stalls, drain
  // tails) spans several tREFI boundaries, and the DRAM model's lazy
  // multi-epoch refresh catch-up plus bulk stall settlement must stay bit-
  // and cycle-identical to per-cycle naive ticking. (The timing set keeps
  // the ctor liveness rule tRFC + tRP + tRCD < tREFI.)
  mem::DramTimingConfig t;
  t.tREFI = 256;
  t.tRFC = 48;
  for (const auto kernel : {wl::KernelKind::gemv, wl::KernelKind::spmv}) {
    for (const std::string& scenario :
         {std::string("pack-dram"), std::string("base-dram")}) {
      auto cfg = sys::plan_workload(kernel, scenario);
      cfg.n = 64;
      if (wl::kernel_is_indirect(kernel)) cfg.nnz_per_row = 16;
      const auto [naive, gated] = run_both(
          scenario, cfg, [&t](sys::SystemBuilder& b) { b.dram_timing(t); });
      expect_identical({naive}, {gated}, scenario + " small-tREFI " +
                                             wl::kernel_name(kernel));
      EXPECT_TRUE(gated.correct) << scenario << " " << gated.error;
      // Non-vacuous: the run must actually have crossed many epochs.
      EXPECT_GT(gated.refresh_stall_cycles, 0u) << scenario;
      EXPECT_GT(gated.cycles, 4u * t.tREFI) << scenario;
    }
  }
}

TEST(KernelEquivalence, DramRowStatsAreExercised) {
  // Guard against the dram equivalence checks passing vacuously: the gated
  // run of a dram scenario must actually accumulate row-buffer activity.
  const sys::RunResult gated =
      drive_scenario("pack-dram", /*naive=*/false).run;
  EXPECT_GT(gated.row_hits + gated.row_misses, 0u);
  EXPECT_EQ(gated.row_hits + gated.row_misses, gated.bank_grants);
}

TEST(KernelEquivalence, EveryHeadlineWorkloadKind) {
  // All six paper kernels on the PACK SoC (the richest converter mix).
  const wl::KernelKind kernels[] = {wl::KernelKind::ismt, wl::KernelKind::gemv,
                                    wl::KernelKind::trmv, wl::KernelKind::spmv,
                                    wl::KernelKind::prank,
                                    wl::KernelKind::sssp};
  for (const auto kernel : kernels) {
    auto cfg = sys::plan_workload(kernel, sys::scenario_name(sys::SystemKind::pack));
    if (wl::kernel_is_indirect(kernel)) {
      cfg.n = 128;
      cfg.nnz_per_row = 48;
    } else {
      cfg.n = 96;
    }
    const auto [naive, gated] =
        run_both(sys::scenario_name(sys::SystemKind::pack), cfg);
    expect_identical({naive}, {gated}, wl::kernel_name(kernel));
  }
}

TEST(KernelEquivalence, OpenLoopTrafficStaysCycleIdentical) {
  // The open-loop subsystem sleeps between arrivals via wake_hint, so it is
  // exactly the kind of component that could desynchronize the gated
  // kernel. Latency percentiles, rates and queue peaks — not just cycle
  // counts — must match the naive kernel on every arrival shape: smooth
  // Poisson, bursty, multi-channel, coalesced and fault-injected.
  for (const std::string& name :
       {std::string("base-256-dram-p80"), std::string("pack-256-dram-p160"),
        std::string("pack-256-dram-p80-b16"),
        std::string("pack-256-dram-x512-g16-ch2-p160"),
        std::string("pack-256-dram-f50-r4-p80")}) {
    sys::RunResult res[2];
    for (const bool naive : {false, true}) {
      auto b = sys::ScenarioRegistry::instance().builder(name);
      b.naive_kernel(naive);
      res[naive] = b.build()->run_open_loop(60'000, 10'000'000);
      ASSERT_TRUE(res[naive].correct) << name << ": " << res[naive].error;
    }
    expect_identical({res[1]}, {res[0]}, name);
  }
}

TEST(KernelEquivalence, SensitivityHarness) {
  for (const bool indirect : {false, true}) {
    sys::SensitivityConfig cfg;
    cfg.indirect = indirect;
    cfg.stride_elems = indirect ? 1 : 7;
    cfg.num_bursts = 2;
    cfg.burst_beats = 64;
    sys::SensitivityConfig naive_cfg = cfg;
    naive_cfg.naive_kernel = true;
    const auto naive = sys::measure_read_utilization(naive_cfg);
    const auto gated = sys::measure_read_utilization(cfg);
    EXPECT_EQ(naive.cycles, gated.cycles) << "indirect=" << indirect;
    EXPECT_EQ(naive.payload_bytes, gated.payload_bytes);
    EXPECT_EQ(naive.r_util, gated.r_util);
    EXPECT_EQ(naive.bank_conflict_losses, gated.bank_conflict_losses);
  }
}

// ---------------------------------------------------------- DMA clock

constexpr std::uint64_t kRigBase = 0x8000'0000ull;

/// Pushes a register descriptor into the engine from inside its own tick
/// when armed for the current step (a component that programs the DMA).
class DescriptorPusher final : public sim::Component {
 public:
  explicit DescriptorPusher(sim::Kernel& k) { k.add(*this); }
  void arm(dma::DmaEngine& engine, const dma::Descriptor& d) {
    engine_ = &engine;
    desc_ = d;
    armed_ = true;
  }
  void tick() override {
    if (!armed_) return;
    engine_->push(desc_);
    armed_ = false;
  }

 private:
  dma::DmaEngine* engine_ = nullptr;
  dma::Descriptor desc_;
  bool armed_ = false;
};

/// DMA engine -> AXI-Pack adapter -> DRAM, with one descriptor-pushing
/// component registered before the engine and one after it. DRAM round
/// trips are long enough that the engine sleeps with reads in flight.
struct DmaClockRig {
  explicit DmaClockRig(bool naive) {
    kernel.set_gating(!naive);
    early = std::make_unique<DescriptorPusher>(kernel);
    mem::MemoryConfig mc;
    mc.name = "dram";
    mc.num_ports = 8;
    mc.req_depth = 32;
    memory = mem::make_memory(kernel, store, mc);
    port = std::make_unique<axi::AxiPort>(kernel, 2, "dma");
    pack::AdapterConfig ac;
    ac.queue_depth = 16;
    ac.pack_max_bursts = 4;
    adapter =
        std::make_unique<pack::AxiPackAdapter>(kernel, *port, *memory, ac);
    engine = std::make_unique<dma::DmaEngine>(kernel, *port, dma::DmaConfig{});
    late = std::make_unique<DescriptorPusher>(kernel);
  }

  /// A strided gather of `n` words into fresh memory, seeded by `salt`.
  dma::Descriptor gather(std::uint64_t n, std::uint32_t salt) {
    constexpr std::int64_t kStride = 68;
    const std::uint64_t src = store.alloc(n * kStride + 64, 64);
    const std::uint64_t dst = store.alloc(n * 4, 64);
    for (std::uint64_t i = 0; i < n; ++i) {
      store.write_u32(src + i * kStride,
                      (salt << 16) + static_cast<std::uint32_t>(i));
    }
    dma::Descriptor d;
    d.src = dma::Pattern::strided(src, kStride);
    d.dst = dma::Pattern::contiguous(dst);
    d.elem_bytes = 4;
    d.num_elems = n;
    return d;
  }

  bool drained() const { return engine->idle() && adapter->idle(); }

  sim::Kernel kernel;
  mem::BackingStore store{kRigBase, 4 << 20};
  std::unique_ptr<DescriptorPusher> early;
  std::unique_ptr<mem::WordMemory> memory;
  std::unique_ptr<axi::AxiPort> port;
  std::unique_ptr<pack::AxiPackAdapter> adapter;
  std::unique_ptr<dma::DmaEngine> engine;
  std::unique_ptr<DescriptorPusher> late;
};

/// Who pushes a descriptor before a step: test code between steps, or the
/// pusher registered before / after the engine during the step.
enum class Pusher { test, early, late };

TEST(KernelEquivalence, DmaClockExactWhilePushingIntoASleepingBusyEngine) {
  // The engine sleeps with reads in flight and counts time on
  // Kernel::tick_clock, so latency stamps taken by push() and the slept
  // busy cycles must come out exactly as the naive kernel's. The gated run
  // pushes whenever it sees the engine asleep with work in flight and logs
  // each push; the naive run replays the log step for step.
  constexpr int kPushesPerSource = 3;
  struct Push {
    sim::Cycle cycle;
    Pusher who;
  };
  std::vector<Push> log;
  struct Outcome {
    util::Histogram latency;
    dma::DmaStats stats;
    sim::Cycle cycles = 0;
  };
  const auto drive = [&](bool naive) {
    DmaClockRig rig(naive);
    std::uint32_t salt = 0;
    rig.engine->push(rig.gather(96, ++salt));
    const auto push = [&](Pusher who) {
      const dma::Descriptor d = rig.gather(48, ++salt);
      if (who == Pusher::test) rig.engine->push(d);
      if (who == Pusher::early) rig.early->arm(*rig.engine, d);
      if (who == Pusher::late) rig.late->arm(*rig.engine, d);
    };
    std::size_t replay = 0;
    int pushed[3] = {0, 0, 0};
    std::uint64_t ticks_before = 0;
    while (naive ? replay < log.size() : log.size() < 3 * kPushesPerSource) {
      const sim::Cycle now = rig.kernel.now();
      if (naive) {
        for (; replay < log.size() && log[replay].cycle == now; ++replay) {
          push(log[replay].who);
        }
      } else {
        // Asleep: no tick during the last step. Busy: work in flight.
        const std::uint64_t ticks = rig.kernel.activity(*rig.engine).ticks;
        const bool sleeping_busy =
            now > 0 && ticks == ticks_before && !rig.engine->idle();
        ticks_before = ticks;
        if (sleeping_busy) {
          const auto who = static_cast<Pusher>(log.size() % 3);
          if (pushed[static_cast<int>(who)] < kPushesPerSource) {
            ++pushed[static_cast<int>(who)];
            log.push_back({now, who});
            push(who);
          }
        }
        if (now > 2'000'000) break;  // never saw the engine sleep busy
      }
      rig.kernel.run(1);
    }
    const sim::RunStatus done = rig.kernel.run_until(
        [&] { return rig.drained(); }, 2'000'000, sim::Kernel::PredKind::pure);
    EXPECT_TRUE(done.completed) << (naive ? "naive" : "gated");
    Outcome out;
    out.latency = rig.engine->latency_hist();
    out.stats = rig.engine->stats();
    out.cycles = rig.kernel.now();
    if (!naive) {
      // Non-vacuous: the engine slept through busy cycles.
      EXPECT_LT(rig.kernel.activity(*rig.engine).ticks,
                out.stats.busy_cycles);
    }
    return out;
  };
  const Outcome gated = drive(false);
  ASSERT_EQ(log.size(), 3u * kPushesPerSource);
  const Outcome naive = drive(true);
  EXPECT_EQ(gated.cycles, naive.cycles);
  EXPECT_EQ(gated.stats.busy_cycles, naive.stats.busy_cycles);
  EXPECT_EQ(gated.stats.descriptors_done, 1u + 3 * kPushesPerSource);
  EXPECT_EQ(gated.stats.descriptors_done, naive.stats.descriptors_done);
  EXPECT_EQ(gated.stats.bytes_moved, naive.stats.bytes_moved);
  EXPECT_EQ(gated.latency.count(), naive.latency.count());
  EXPECT_EQ(gated.latency.sum(), naive.latency.sum());
  EXPECT_EQ(gated.latency.min(), naive.latency.min());
  EXPECT_EQ(gated.latency.max(), naive.latency.max());
  for (unsigned b = 0; b < util::Histogram::kBuckets; ++b) {
    EXPECT_EQ(gated.latency.bucket_count(b), naive.latency.bucket_count(b))
        << "bucket " << b;
  }
}

TEST(KernelEquivalence, OutputFullProducersStayAwake) {
  // Depth-1 converter outputs (lane request FIFOs, r_out) and coalescer
  // upstream FIFOs: producers spend much of the run blocked on a full
  // output, which nobody wakes them from, so they must stay awake through
  // it. The ring gather must still drain, cycle-identical to naive.
  const std::string name = "pack-256-dram-x512-g16-ch2-p480";
  sys::RunResult res[2];
  for (const bool naive : {false, true}) {
    auto b = sys::ScenarioRegistry::instance().builder(name);
    pack::AdapterConfig ac;
    ac.queue_depth = 16;
    ac.idx_window_lines = 16;
    ac.pack_max_bursts = 4;
    ac.lane_fifo_depth = 1;  // also the coalescers' upstream request FIFOs
    ac.r_out_depth = 1;
    b.adapter(ac);
    b.naive_kernel(naive);
    res[naive] = b.build()->run_open_loop(40'000, 10'000'000);
    ASSERT_TRUE(res[naive].correct) << name << ": " << res[naive].error;
  }
  EXPECT_GT(res[0].coalesce_unique, 0u);
  expect_identical({res[1]}, {res[0]}, name + " depth-1 outputs");
}

// ------------------------------------------------ waiting components sleep

TEST(KernelActivity, WaitingComponentsSleepOnTheRingGather) {
  // The 2-channel coalescing gather fed by the ring DMA at an overload
  // rate: converters, coalescers and the engine spend most cycles waiting
  // on DRAM responses with requests in flight. Each class's ticks, summed
  // over its instances, per simulated cycle must stay under its limit.
  // (When in-flight requests kept them awake these were 1.00, 1.07, 0.84
  // and 1.52.)
  auto b = sys::ScenarioRegistry::instance().builder(
      "pack-256-dram-x512-g16-ch2-p480");
  const std::unique_ptr<sys::System> system = b.build();
  const sys::RunResult r = system->run_open_loop(150'000);
  ASSERT_TRUE(r.correct) << r.error;
  const sys::LayerActivity activity = system->layer_activity();
  ASSERT_TRUE(activity.cycles > 0);
  const struct {
    const char* cls;
    double limit;
  } limits[] = {{"DmaEngine", 0.25},
                {"BaseConverter", 0.25},
                {"IndirectReadConverter", 0.5},
                {"Coalescer", 1.0}};
  for (const auto& [cls, limit] : limits) {
    const auto it = activity.classes.find(cls);
    ASSERT_TRUE(it != activity.classes.end()) << cls;
    const double per_cycle = static_cast<double>(it->second.ticks) /
                             static_cast<double>(activity.cycles);
    EXPECT_LT(per_cycle, limit) << cls;
    EXPECT_GT(it->second.sleeps, 0u) << cls;
  }
}

TEST(KernelActivity, NaiveTicksEveryComponentEveryCycle) {
  auto b = sys::ScenarioRegistry::instance().builder("pack-256-dram-p160");
  b.naive_kernel(true);
  const std::unique_ptr<sys::System> system = b.build();
  system->run_open_loop(20'000);
  const sys::LayerActivity activity = system->layer_activity();
  for (const auto& [cls, a] : activity.classes) {
    EXPECT_EQ(a.ticks, a.instances * activity.cycles) << cls;
    EXPECT_EQ(a.sleeps, 0u) << cls;
  }
}

}  // namespace
}  // namespace axipack
