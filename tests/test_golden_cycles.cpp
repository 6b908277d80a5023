// Golden-cycle regression: exact cycle counts and scheduler counters of a
// few small runs, pinned as constants. Gated==naive equivalence cannot see
// a change that moves both kernels alike (an arbitration rewrite, a
// scheduler "cleanup"); this suite can. A deliberate timing change must
// update the constants here together with the reason in its commit.
#include "test_common.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "workloads/workloads.hpp"

namespace axipack {
namespace {

/// Counters pinned per closed-loop run.
struct Golden {
  std::uint64_t cycles;
  std::uint64_t bank_grants;
  std::uint64_t row_hits;
  std::uint64_t coalesce_merged;
  std::uint64_t coalesce_unique;
};

struct ClosedCase {
  const char* scenario;
  wl::KernelKind kernel;
  Golden want;
};

void expect_golden(const sys::RunResult& r, const Golden& want,
                   const std::string& what) {
  EXPECT_TRUE(r.correct) << what << ": " << r.error;
  EXPECT_EQ(r.cycles, want.cycles) << what;
  EXPECT_EQ(r.bank_grants, want.bank_grants) << what;
  EXPECT_EQ(r.row_hits, want.row_hits) << what;
  EXPECT_EQ(r.coalesce_merged, want.coalesce_merged) << what;
  EXPECT_EQ(r.coalesce_unique, want.coalesce_unique) << what;
}

TEST(GoldenCycles, ClosedLoopKernels) {
  // Small inputs: DRAM base vs coalescing pack on a gather kernel, and the
  // paper's 256-bit 17-bank SRAM SoCs on a strided transpose.
  const ClosedCase cases[] = {
      {"base-dram", wl::KernelKind::spmv, {3443, 5509, 5493, 0, 0}},
      {"pack-dram-coalesce",
       wl::KernelKind::spmv,
       {3524, 3117, 3101, 1925, 3117}},
      {"base-256-17b", wl::KernelKind::ismt, {7813, 8512, 0, 0, 0}},
      {"pack-256-17b", wl::KernelKind::ismt, {2332, 8512, 0, 0, 0}},
  };
  std::vector<sys::WorkloadJob> jobs;
  for (const ClosedCase& c : cases) {
    sys::WorkloadJob job;
    job.scenario = c.scenario;
    job.cfg = sys::plan_workload(c.kernel, c.scenario);
    job.cfg.n = 64;
    if (wl::kernel_is_indirect(c.kernel)) job.cfg.nnz_per_row = 24;
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

}  // namespace
}  // namespace axipack
