// Golden-cycle regression: exact cycle counts and scheduler counters of a
// few small runs, pinned as constants. Gated==naive equivalence cannot see
// a change that moves both kernels alike (an arbitration rewrite, a
// scheduler "cleanup"); this suite can. A deliberate timing change must
// update the constants here together with the reason in its commit.
#include "test_common.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dma/descriptor.hpp"
#include "dma/engine.hpp"
#include "sim/fault.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

/// Counters pinned per closed-loop run: the cycle count, every memory
/// stat a run reports and the coalescer's merge counters.
struct Golden {
  std::uint64_t cycles;
  std::uint64_t bank_grants;
  std::uint64_t bank_conflict_losses;
  std::uint64_t row_hits;
  std::uint64_t row_misses;
  std::uint64_t refresh_stall_cycles;
  std::uint64_t row_batch_defer_cycles;
  std::uint64_t row_starved_grants;
  std::uint64_t coalesce_merged;
  std::uint64_t coalesce_unique;
};

struct ClosedCase {
  const char* scenario;
  wl::KernelKind kernel;
  Golden want;
  unsigned n = 64;
  unsigned nnz_per_row = 24;  ///< indirect kernels only
};

void expect_golden(const sys::RunResult& r, const Golden& want,
                   const std::string& what) {
  EXPECT_TRUE(r.correct) << what << ": " << r.error;
  EXPECT_EQ(r.cycles, want.cycles) << what;
  EXPECT_EQ(r.bank_grants, want.bank_grants) << what;
  EXPECT_EQ(r.bank_conflict_losses, want.bank_conflict_losses) << what;
  EXPECT_EQ(r.row_hits, want.row_hits) << what;
  EXPECT_EQ(r.row_misses, want.row_misses) << what;
  EXPECT_EQ(r.refresh_stall_cycles, want.refresh_stall_cycles) << what;
  EXPECT_EQ(r.row_batch_defer_cycles, want.row_batch_defer_cycles) << what;
  EXPECT_EQ(r.row_starved_grants, want.row_starved_grants) << what;
  EXPECT_EQ(r.coalesce_merged, want.coalesce_merged) << what;
  EXPECT_EQ(r.coalesce_unique, want.coalesce_unique) << what;
}

TEST(GoldenCycles, ClosedLoopKernels) {
  // Small inputs: DRAM base vs coalescing pack on a gather kernel, a
  // refresh-stalled DRAM base on PageRank, a larger gather whose short
  // starvation cap exercises row batching (every memory stat nonzero), the
  // paper's 256-bit 17-bank SRAM SoCs on a strided transpose, and the
  // conflict-free ideal memory, which reports no memory stats.
  const ClosedCase cases[] = {
      {"base-dram",
       wl::KernelKind::spmv,
       {3443, 5509, 32, 5493, 16, 0, 0, 0, 0, 0}},
      {"pack-dram-coalesce",
       wl::KernelKind::spmv,
       {3524, 3117, 0, 3101, 16, 0, 0, 0, 1925, 3117}},
      {"base-dram",
       wl::KernelKind::prank,
       {8512, 13872, 26, 13840, 32, 2417, 0, 0, 0, 0}},
      {"pack-256-dram-c4",
       wl::KernelKind::spmv,
       {18233, 38500, 37809, 32338, 6162, 9302, 140, 40, 0, 0},
       192,
       64},
      {"base-256-17b",
       wl::KernelKind::ismt,
       {7813, 8512, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"pack-256-17b",
       wl::KernelKind::ismt,
       {2332, 8512, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"pack-256-idealmem",
       wl::KernelKind::ismt,
       {2332, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  std::vector<sys::WorkloadJob> jobs;
  for (const ClosedCase& c : cases) {
    sys::WorkloadJob job;
    job.scenario = c.scenario;
    job.cfg = sys::plan_workload(c.kernel, c.scenario);
    job.cfg.n = c.n;
    if (wl::kernel_is_indirect(c.kernel)) job.cfg.nnz_per_row = c.nnz_per_row;
    jobs.push_back(job);
  }
  const auto results = sys::run_workloads(jobs, /*threads=*/1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_golden(results[i], cases[i].want,
                  std::string(cases[i].scenario) + " " +
                      wl::kernel_name(cases[i].kernel));
  }
}

TEST(GoldenCycles, OpenLoopGatherWindow) {
  // One short measurement window of seeded Poisson gathers on the
  // two-channel coalescing DRAM SoC, below the knee and in overload.
  struct OpenCase {
    const char* scenario;
    std::uint64_t cycles;
    std::uint64_t completed;
    double p50;
    double p99;
  };
  const OpenCase cases[] = {
      {"pack-256-dram-x512-g16-ch2-p160", 60225, 59, 479.23529411764707,
       1441.0466666666671},
      {"pack-256-dram-x512-g16-ch2-p480", 96038, 205, 22794.739130434784,
       36243.200000000004},
  };
  for (const OpenCase& c : cases) {
    const sys::RunResult r = sys::ScenarioRegistry::instance()
                                 .builder(c.scenario)
                                 .build()
                                 ->run_open_loop(60'000, 10'000'000);
    ASSERT_TRUE(r.correct) << c.scenario << ": " << r.error;
    EXPECT_EQ(r.cycles, c.cycles) << c.scenario;
    EXPECT_EQ(r.latency.count(), c.completed) << c.scenario;
    EXPECT_EQ(r.latency.percentile(50), c.p50) << c.scenario;
    EXPECT_EQ(r.latency.percentile(99), c.p99) << c.scenario;
  }
}

// -------------------------------------------------------------- DMA engine

/// One descriptor completion: its ordinal (ring slot ordinal, or position
/// in execution order for register and chain descriptors), the cycle it
/// completed at (relative to the run's start) and its outcome.
struct Completion {
  std::uint64_t ordinal;
  std::uint64_t cycle;
  bool ok;
};

/// Counters pinned per DMA run.
struct DmaGolden {
  std::uint64_t cycles;
  std::uint64_t desc_fetch_bytes;
  std::uint64_t error_descriptors;
  std::vector<Completion> completions;  ///< in completion order
};

/// Runs `system` until drained and logs DMA master 0's completions. Ring
/// completions come from the engine's completion event; register and
/// chain completions are read off the engine's counters after every step.
DmaGolden run_dma(sys::System& system) {
  dma::DmaEngine& engine = system.dma(0);
  sim::Kernel& kernel = system.kernel();
  const std::uint64_t start = kernel.now();
  DmaGolden got{};
  engine.set_completion([&](std::uint64_t ordinal, bool ok) {
    got.completions.push_back({ordinal, kernel.now() - start, ok});
  });
  std::uint64_t done = engine.stats().descriptors_done;
  std::uint64_t errors = engine.stats().error_descriptors;
  const sim::RunStatus status = kernel.run_until(
      [&] {
        if (!engine.ring_active()) {
          const dma::DmaStats& s = engine.stats();
          for (; done < s.descriptors_done; ++done) {
            got.completions.push_back(
                {got.completions.size(), kernel.now() - start, true});
          }
          for (; errors < s.error_descriptors; ++errors) {
            got.completions.push_back(
                {got.completions.size(), kernel.now() - start, false});
          }
        }
        return system.drained();
      },
      1'000'000, sim::Kernel::PredKind::pure);
  EXPECT_TRUE(status.completed);
  engine.set_completion(nullptr);  // the callback refers to `got`
  got.cycles = status.cycles;
  got.desc_fetch_bytes = engine.stats().desc_fetch_bytes;
  got.error_descriptors = engine.stats().error_descriptors;
  return got;
}

void expect_dma_golden(const DmaGolden& got, const DmaGolden& want,
                       const std::string& what) {
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.desc_fetch_bytes, want.desc_fetch_bytes) << what;
  EXPECT_EQ(got.error_descriptors, want.error_descriptors) << what;
  bool same = got.completions.size() == want.completions.size();
  for (std::size_t i = 0; same && i < got.completions.size(); ++i) {
    const Completion& g = got.completions[i];
    const Completion& w = want.completions[i];
    same = g.ordinal == w.ordinal && g.cycle == w.cycle && g.ok == w.ok;
  }
  EXPECT_TRUE(same) << what << ": completion log differs";
  if (!same) {
    std::printf("  %s completions:", what.c_str());
    for (const Completion& c : got.completions) {
      std::printf(" {%llu, %llu, %s},",
                  static_cast<unsigned long long>(c.ordinal),
                  static_cast<unsigned long long>(c.cycle),
                  c.ok ? "true" : "false");
    }
    std::printf("\n");
  }
}

/// The dma_transform example's matrix: n x n FP32, row-major.
std::uint64_t alloc_matrix(mem::BackingStore& store, std::uint64_t n) {
  const std::uint64_t mat = store.alloc(n * n * 4, 64);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    store.write_f32(mat + 4 * i, static_cast<float>(i % 1000));
  }
  return mat;
}

/// Gather of column `col` of the n x n matrix at `mat`.
dma::Descriptor column_gather(mem::BackingStore& store, std::uint64_t mat,
                              std::uint64_t n, std::uint64_t col) {
  dma::Descriptor d;
  d.src =
      dma::Pattern::strided(mat + 4 * col, static_cast<std::int64_t>(n) * 4);
  d.dst = dma::Pattern::contiguous(store.alloc(n * 4, 64));
  d.elem_bytes = 4;
  d.num_elems = n;
  return d;
}

/// Writes a descriptor whose flags word is invalid (never parses).
std::uint64_t write_malformed(mem::BackingStore& store, std::uint64_t addr) {
  for (std::uint64_t i = 0; i < dma::kDescriptorBytes; i += 4) {
    store.write_u32(addr + i, 0xDEADBEEFu);
  }
  return addr;
}

/// Writes `descs` into consecutive ring slots at `base`, slot i linking to
/// slot (i + 1) mod n; slot `bad` (if < n) is malformed instead.
std::uint64_t write_ring(mem::BackingStore& store,
                         std::vector<dma::Descriptor> descs,
                         std::size_t bad = ~std::size_t{0}) {
  const std::uint64_t base =
      store.alloc(descs.size() * dma::kDescriptorBytes, 64);
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const std::uint64_t slot = base + i * dma::kDescriptorBytes;
    if (i == bad) {
      write_malformed(store, slot);
      continue;
    }
    descs[i].next = base + ((i + 1) % descs.size()) * dma::kDescriptorBytes;
    dma::write_descriptor(store, slot, descs[i]);
  }
  return base;
}

TEST(GoldenCycles, DmaTransformColumnGather) {
  // The dma_transform example's single-descriptor column gather of a
  // 256 x 256 matrix, narrow per-element bursts vs one AXI-Pack stream.
  const DmaGolden narrow{367, 0, 0, {{0, 367, true}}};
  const DmaGolden pack{74, 0, 0, {{0, 74, true}}};
  for (const bool use_pack : {false, true}) {
    auto system = sys::ScenarioRegistry::instance().build(
        use_pack ? "single-dma-pack" : "single-dma-narrow");
    const std::uint64_t mat = alloc_matrix(system->store(), 256);
    system->dma(0).push(column_gather(system->store(), mat, 256, 7));
    expect_dma_golden(run_dma(*system), use_pack ? pack : narrow,
                      use_pack ? "pack" : "narrow");
  }
}

TEST(GoldenCycles, DmaIndirectGatherScatter) {
  // Index arrays on both sides: narrow mode stages the source indices,
  // then the destination indices, through the engine before moving data.
  const DmaGolden narrow{98, 0, 0, {{0, 98, true}}};
  const DmaGolden pack{34, 0, 0, {{0, 34, true}}};
  for (const bool use_pack : {false, true}) {
    auto system = sys::ScenarioRegistry::instance().build(
        use_pack ? "single-dma-pack" : "single-dma-narrow");
    mem::BackingStore& store = system->store();
    const std::uint64_t n = 48;
    const std::uint64_t table = alloc_matrix(store, 32);
    const std::uint64_t src_idx = store.alloc(n * 4, 64);
    const std::uint64_t dst_idx = store.alloc(n * 4, 64);
    const std::uint64_t out = store.alloc(4 * n * 4, 64);
    for (std::uint64_t i = 0; i < n; ++i) {
      store.write_u32(src_idx + 4 * i,
                      static_cast<std::uint32_t>(i * 37 % 1024));
      store.write_u32(dst_idx + 4 * i, static_cast<std::uint32_t>(i * 3));
    }
    dma::Descriptor d;
    d.src = dma::Pattern::indirect(table, src_idx);
    d.dst = dma::Pattern::indirect(out, dst_idx);
    d.elem_bytes = 4;
    d.num_elems = n;
    system->dma(0).push(d);
    expect_dma_golden(run_dma(*system), use_pack ? pack : narrow,
                      use_pack ? "pack" : "narrow");
  }
}

TEST(GoldenCycles, DmaEightLinkChain) {
  // The dma_transform example's chain: eight column gathers linked in
  // memory, fetched one 64-byte descriptor at a time.
  auto system = sys::ScenarioRegistry::instance().build("single-dma-pack");
  mem::BackingStore& store = system->store();
  const std::uint64_t mat = alloc_matrix(store, 256);
  std::vector<dma::Descriptor> chain;
  for (std::uint64_t c = 0; c < 8; ++c) {
    chain.push_back(column_gather(store, mat, 256, c));
  }
  system->dma(0).start_chain(dma::build_chain(store, chain));
  const DmaGolden want{672,
                       512,
                       0,
                       {{0, 84, true},
                        {1, 168, true},
                        {2, 252, true},
                        {3, 336, true},
                        {4, 420, true},
                        {5, 504, true},
                        {6, 588, true},
                        {7, 672, true}}};
  expect_dma_golden(run_dma(*system), want, "8-link chain");
}

TEST(GoldenCycles, DmaRegisterDescriptorContinuesIntoMemory) {
  auto system = sys::ScenarioRegistry::instance().build("single-dma-pack");
  mem::BackingStore& store = system->store();
  const std::uint64_t mat = alloc_matrix(store, 64);
  dma::Descriptor head = column_gather(store, mat, 64, 1);
  head.next = dma::build_chain(store, {column_gather(store, mat, 64, 2),
                                       column_gather(store, mat, 64, 3)});
  system->dma(0).push(head);
  const DmaGolden want{98, 128, 0,
                       {{0, 26, true}, {1, 62, true}, {2, 98, true}}};
  expect_dma_golden(run_dma(*system), want, "register + 2 links");
}

TEST(GoldenCycles, DmaChainWithMalformedSecondLink) {
  // The malformed link is an error completion that ends the chain: the
  // third link is never fetched, and the register descriptor queued
  // behind the chain still runs.
  auto system = sys::ScenarioRegistry::instance().build("single-dma-pack");
  mem::BackingStore& store = system->store();
  const std::uint64_t mat = alloc_matrix(store, 64);
  const std::uint64_t head =
      dma::build_chain(store, {column_gather(store, mat, 64, 1),
                               column_gather(store, mat, 64, 2),
                               column_gather(store, mat, 64, 3)});
  std::uint8_t raw[dma::kDescriptorBytes];
  store.read(head, raw, sizeof raw);
  write_malformed(store, dma::parse_descriptor(raw)->next);
  system->dma(0).start_chain(head);
  system->dma(0).push(column_gather(store, mat, 64, 4));
  const DmaGolden want{72, 128, 1,
                       {{0, 36, true}, {1, 46, false}, {2, 72, true}}};
  expect_dma_golden(run_dma(*system), want, "malformed second link");
}

TEST(GoldenCycles, DmaRingWithMalformedSlot) {
  // Slot 3 of six is malformed: it fails, the walk breaks, and the two
  // published slots behind it are failed so the producer never hangs. The
  // bad slot is parsed as a prefetch while slot 2 still drains, so its
  // error completion precedes slot 2's.
  const DmaGolden pack{98, 256, 3,
                       {{0, 38, true}, {1, 67, true}, {3, 96, false},
                        {2, 96, true}, {4, 97, false}, {5, 97, false}}};
  const DmaGolden narrow{327, 256, 3,
                         {{0, 115, true}, {1, 220, true}, {3, 325, false},
                          {2, 325, true}, {4, 326, false}, {5, 326, false}}};
  for (const bool use_pack : {true, false}) {
    auto system = sys::ScenarioRegistry::instance().build(
        use_pack ? "single-dma-pack" : "single-dma-narrow");
    mem::BackingStore& store = system->store();
    const std::uint64_t mat = alloc_matrix(store, 64);
    std::vector<dma::Descriptor> slots;
    for (std::uint64_t c = 0; c < 6; ++c) {
      slots.push_back(column_gather(store, mat, 64, c));
    }
    system->dma(0).start_ring(write_ring(store, slots, 3));
    system->dma(0).publish(6);
    expect_dma_golden(run_dma(*system), use_pack ? pack : narrow,
                      use_pack ? "pack ring" : "narrow ring");
  }
}

TEST(GoldenCycles, DmaRingRetriesAfterDramFault) {
  // A forced DRAM fault in a four-slot ring: the faulted activity drains,
  // backs off and replays, and the ring carries on. The faults land in a
  // slot's data reads, in the first slot's descriptor fetch, and in a
  // write response that arrives while the next slot is being prefetched.
  struct FaultCase {
    const char* what;
    sim::FaultSite site;
    std::uint64_t nth;
    int kind;
    DmaGolden want;
  };
  const FaultCase cases[] = {
      {"data read",
       sim::FaultSite::dram_read,
       40,
       2,
       {303, 256, 0,
        {{0, 149, true}, {1, 201, true}, {2, 253, true}, {3, 302, true}}}},
      {"descriptor fetch",
       sim::FaultSite::dram_read,
       0,
       2,
       {277, 320, 0,
        {{0, 123, true}, {1, 175, true}, {2, 227, true}, {3, 276, true}}}},
      {"write response",
       sim::FaultSite::dram_write,
       60,
       1,
       {306, 320, 0,
        {{0, 152, true}, {1, 204, true}, {2, 256, true}, {3, 305, true}}}},
  };
  for (const FaultCase& c : cases) {
    sys::SystemBuilder b;
    dma::DmaConfig dc;
    dc.retry.max_attempts = 4;
    dc.retry.timeout_cycles = 50'000;
    dc.retry.backoff = 16;
    b.bus_bits(256).mem_region(0x8000'0000ull, 16 << 20).queue_depth(4);
    b.memory("dram");
    b.faults(sim::FaultConfig{});
    b.attach_dma(dc);
    auto system = b.build();
    system->fault_plan()->force(c.site, c.nth, c.kind);
    mem::BackingStore& store = system->store();
    const std::uint64_t mat = alloc_matrix(store, 64);
    std::vector<dma::Descriptor> slots;
    for (std::uint64_t col = 0; col < 4; ++col) {
      slots.push_back(column_gather(store, mat, 64, col));
    }
    system->dma(0).start_ring(write_ring(store, slots));
    system->dma(0).publish(4);
    expect_dma_golden(run_dma(*system), c.want, c.what);
    EXPECT_EQ(system->dma(0).retry_stats().retries, 1u) << c.what;
    EXPECT_EQ(system->dma(0).retry_stats().failed_ops, 0u) << c.what;
  }
}

}  // namespace
}  // namespace axipack
