// Wall-clock perf harness and CI gate for the simulation kernel
// (BENCH_kernel.json).
//
// Every measured set is an ExperimentSpec over the paper's kernels at the
// fixed seed below, joined against its base partner where it has one:
//
//   headline         base/pack/ideal 256-bit SRAM SoCs x six kernels
//   dram             base-dram/pack-dram x six kernels
//   dram-ch4         the same over four interleaved DRAM channels
//   dram_batched     ismt/gemv/trmv on pack-dram, column walk pinned
//   dram_coalesced   spmv/prank/sssp on pack-dram-coalesce vs base-dram
//   channel_scaling  8 streaming masters over 1/2/4/8 DRAM channels
//   open_loop        SLO-knee rate sweep of the three open-loop systems
//
// headline, dram and dram-ch4 also run on the naive kernel (gating off:
// every component ticks every cycle), selected by a builder patch. Each
// row's full RunResult must match its gated twin, so the wall-clock ratios
// isolate the engine, not the model. One open-loop point also reports the
// kernel's per-class tick and sleep counts, gated and naive (the `layers`
// block): deterministic work counters, so they can gate where wall-clock
// cannot. Every CI gate is one
// {name, value, floor, pass} predicate over the returned ResultSets and the
// exit code is non-zero when any gate fails. Wall-clock numbers (fastest of
// --repeats passes) are recorded but gate nothing: they measure the host as
// much as the engine.
//
// Usage: perf_kernel [--out=PATH] [--repeats=N]
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "systems/experiment.hpp"
#include "systems/sweep.hpp"
#include "util/json.hpp"

namespace {

using namespace axipack;
using wl::KernelKind;
using Clock = std::chrono::steady_clock;

/// All workload RNG derives from this constant (recorded in the JSON).
constexpr std::uint64_t kSeed = 42;

const std::vector<KernelKind> kKernels = {
    KernelKind::ismt, KernelKind::gemv,  KernelKind::trmv,
    KernelKind::spmv, KernelKind::prank, KernelKind::sssp};

/// pack-dram strided row-hit floor with the column walk pinned (as in
/// fig7): the row-batching scheduler's canary, since the planner's
/// row-wise gemv/trmv would mask a broken scheduler with free open-row
/// hits. Measured at seed 42: ismt 0.71, gemv 0.51, trmv 0.66; head-only
/// scheduling bottomed out at 0.29 on trmv.
constexpr double kStridedHitFloor = 0.45;
/// Planned (row-wise) pack-dram gemv/trmv must keep BASE parity and
/// open-row hits: measured 1.00x at 99.7%/99.4%, where the column-wise
/// plan ran 0.27x/0.61x at ~51%/66%.
constexpr double kPlannedSpeedupFloor = 0.95;
constexpr double kPlannedHitFloor = 0.95;
/// Coalesced indirect kernels keep the open-row hit rate at the base-dram
/// level (~0.95 at seed 42): the DRAM scheduler mostly sees the
/// sequential index stream once the element stream is folded.
constexpr double kCoalescedHitFloor = 0.90;
/// 2-channel aggregate R-util scaling of 8 streaming masters: ideal
/// doubling is 2.0x; anything that re-serializes the channels falls
/// under the floor.
constexpr double kChannelScalingFloor = 1.7;
/// Open-loop SLO knee: the highest swept rate whose p99 sojourn latency
/// meets the SLO. The coalesced PACK system must sustain >= 1.5x the
/// narrow baseline's knee (seed 42: base 80, coalesce 160 req/100k).
constexpr double kOpenLoopSloP99 = 5000.0;
constexpr double kOpenLoopKneeFloor = 1.5;
constexpr sim::Cycle kOpenLoopWindow = 120'000;
/// Naive ticks / gated ticks on the open-loop identity point. Components
/// that sleep while their requests are in flight measured 11.4x at seed
/// 42; when in-flight work pinned them awake it was 5.4x.
constexpr double kTickReductionFloor = 8.0;

/// A closed-loop set: `kernels` x `scenarios` at kSeed, joined against the
/// first scenario when there are several.
sys::ExperimentSpec closed_loop(std::string name,
                                std::vector<std::string> scenarios,
                                std::vector<KernelKind> kernels) {
  const std::string base = scenarios.front();
  const bool joined = scenarios.size() > 1;
  sys::ExperimentSpec spec(std::move(name));
  spec.kernels_axis(std::move(kernels))
      .scenarios_axis("system", std::move(scenarios))
      .configure([](wl::WorkloadConfig& c) { c.seed = kSeed; });
  if (joined) spec.baseline("system", base);
  return spec;
}

/// An open-loop rate sweep: each point is a kOpenLoopWindow-cycle measured
/// window of Poisson-arriving 64-word gathers through the ring DMA. A
/// non-null `activity` receives the (single) point's per-class work.
sys::ExperimentSpec open_loop(std::string name, std::vector<double> rates,
                              std::vector<std::string> systems,
                              sys::LayerActivity* activity = nullptr) {
  sys::ExperimentSpec spec(std::move(name));
  spec.param_axis("rate", "rate", std::move(rates))
      .scenarios_axis("system", std::move(systems))
      .runner([activity](const sys::GridPoint& p) {
        return sys::open_loop_point(p, kOpenLoopWindow, activity);
      });
  return spec;
}

/// `spec` on the naive kernel: a trailing one-value axis whose builder
/// patch turns gating off.
sys::ExperimentSpec naive(sys::ExperimentSpec spec) {
  spec.axis("engine", {sys::AxisValue::shaped("naive", [](sys::PointDraft& d) {
              d.builder_patches.push_back(
                  [](sys::SystemBuilder& b) { b.naive_kernel(true); });
            })});
  return spec;
}

struct Timed {
  sys::ResultSet set;
  double wall_ms = 0.0;

  std::uint64_t cycles() const {
    std::uint64_t total = 0;
    for (const sys::ResultRow& row : set.rows()) total += row.run.cycles;
    return total;
  }
};

/// Runs `spec` `repeats` times on `threads` workers; keeps the fastest pass.
Timed run_timed(sys::ExperimentSpec spec, unsigned threads, unsigned repeats) {
  spec.threads(threads);
  Timed best;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    sys::ResultSet set = spec.run();
    const double wall =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (rep == 0 || wall < best.wall_ms) best = {std::move(set), wall};
  }
  return best;
}

/// One CI gate: passes when value >= floor.
struct Gate {
  std::string name;
  double value;
  double floor;
  bool pass() const { return value >= floor; }
};

using RowPred = std::function<bool(const sys::ResultRow&)>;

/// Share of `set`'s rows that simulated and verified (0 for an empty set).
double verified(const sys::ResultSet& set) {
  if (set.empty()) return 0.0;
  const auto n =
      std::count_if(set.rows().begin(), set.rows().end(),
                    [](const sys::ResultRow& r) { return r.run.correct; });
  return static_cast<double>(n) / static_cast<double>(set.size());
}

/// Share of rows whose full RunResult JSON matches the same row of `twin`.
double identical(const sys::ResultSet& set, const sys::ResultSet& twin) {
  if (set.empty() || set.size() != twin.size()) return 0.0;
  std::size_t same = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    same += set.rows()[i].run.to_json() == twin.rows()[i].run.to_json();
  }
  return static_cast<double>(same) / static_cast<double>(set.size());
}

/// Smallest `metric` over the rows `keep` selects (0 when none does).
double min_of(const sys::ResultSet& set,
              const std::function<double(const sys::ResultRow&)>& metric,
              const RowPred& keep) {
  std::optional<double> lo;
  for (const sys::ResultRow& row : set.rows()) {
    if (keep(row)) lo = std::min(lo.value_or(metric(row)), metric(row));
  }
  return lo.value_or(0.0);
}

/// A --repeats value: a positive decimal integer and nothing else.
std::optional<unsigned> parse_repeats(const char* text) {
  if (*text < '0' || *text > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long n = std::strtoul(text, &end, 10);
  if (*end != '\0' || errno != 0 || n == 0 || n > UINT_MAX) {
    return std::nullopt;
  }
  return static_cast<unsigned>(n);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  unsigned repeats = 2;
  for (int i = 1; i < argc; ++i) {
    std::optional<unsigned> n;
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0 &&
               (n = parse_repeats(argv[i] + 10))) {
      repeats = *n;
    } else {
      std::fprintf(stderr, "%s: bad argument \"%s\"\nusage: %s [--out=PATH] "
                   "[--repeats=N]  (N a positive integer)\n",
                   argv[0], argv[i], argv[0]);
      return 2;
    }
  }

  const unsigned hw = sys::SweepRunner::default_threads();
  std::printf("perf_kernel: seed=%llu, repeats=%u, %u worker thread(s) "
              "available\n",
              static_cast<unsigned long long>(kSeed), repeats, hw);

  // 1) The naive-vs-gated sets, serial, fastest of `repeats`.
  const sys::ExperimentSpec headline = closed_loop(
      "headline",
      {sys::scenario_name(sys::SystemKind::base),
       sys::scenario_name(sys::SystemKind::pack),
       sys::scenario_name(sys::SystemKind::ideal)},
      kKernels);
  const sys::ExperimentSpec dram =
      closed_loop("dram", {"base-dram", "pack-dram"}, kKernels);
  const sys::ExperimentSpec dram_ch4 = closed_loop(
      "dram-ch4", {"base-256-dram-ch4", "pack-256-dram-ch4"}, kKernels);
  struct Pair {
    Timed naive, gated;  // run in this order (braced-init is sequenced)
  };
  std::vector<Pair> pairs;
  for (const sys::ExperimentSpec* spec : {&headline, &dram, &dram_ch4}) {
    pairs.push_back({run_timed(naive(*spec), 1, repeats),
                     run_timed(*spec, 1, repeats)});
    const Pair& p = pairs.back();
    std::printf("  %-9s naive %8.1f ms, gated %8.1f ms  (%llu sim cycles, "
                "%.0f gated cycles/s)\n",
                spec->name().c_str(), p.naive.wall_ms, p.gated.wall_ms,
                static_cast<unsigned long long>(p.gated.cycles()),
                p.gated.cycles() / (p.gated.wall_ms / 1000.0));
  }
  const Pair& hl = pairs[0];
  const Pair& dr = pairs[1];

  // 2) Thread scaling of the headline and dram sets at fixed 2/4/8
  // threads, so the series is comparable across machines. SweepRunner
  // oversubscribes when the host has fewer cores; those points are still
  // recorded (the flattening is a datapoint) but flagged `oversubscribed`
  // and kept out of gated_parallel_ms — an oversubscribed wall-clock
  // measures the host, not the engine. The host width is run too when it
  // extends the series.
  struct ScalePoint {
    unsigned requested;   // worker threads asked of SweepRunner
    unsigned effective;   // min(requested, hardware) — real parallelism
    bool oversubscribed;  // requested > hardware: timing not meaningful
    double wall_ms;
    double dram_wall_ms;
  };
  std::vector<ScalePoint> scaling = {
      {1, 1, false, hl.gated.wall_ms, dr.gated.wall_ms}};
  double parallel_ms = hl.gated.wall_ms;
  std::vector<unsigned> widths = {2, 4, 8};
  if (hw > 8) widths.push_back(hw);
  for (const unsigned t : widths) {
    const ScalePoint point{t, std::min(t, hw), t > hw,
                           run_timed(headline, t, repeats).wall_ms,
                           run_timed(dram, t, repeats).wall_ms};
    scaling.push_back(point);
    if (!point.oversubscribed) parallel_ms = std::min(parallel_ms, point.wall_ms);
    std::printf("  gated %2u threads: %8.1f ms  (dram %8.1f ms)%s\n", t,
                point.wall_ms, point.dram_wall_ms,
                point.oversubscribed ? "  [oversubscribed]" : "");
  }
  const double speedup_serial = hl.naive.wall_ms / hl.gated.wall_ms;
  const double speedup_parallel = hl.naive.wall_ms / parallel_ms;
  std::printf("  speedup gated/naive: %.2fx (serial), %.2fx (parallel)\n",
              speedup_serial, speedup_parallel);

  // 3) The gated-only sets.
  const sys::ResultSet batched =
      closed_loop("dram_batched", {"pack-dram"},
                  {KernelKind::ismt, KernelKind::gemv, KernelKind::trmv})
          .axis("dataflow", {sys::AxisValue::dataflow(wl::Dataflow::colwise)})
          .run();
  const sys::ResultSet coalesced =
      closed_loop("dram_coalesced", {"base-dram", "pack-dram-coalesce"},
                  {KernelKind::spmv, KernelKind::prank, KernelKind::sssp})
          .run();
  sys::ResultSet channels =
      sys::ExperimentSpec("channel_scaling")
          .param_axis("channels", "channels", {1, 2, 4, 8})
          .param_axis("masters", "masters", {8})
          .runner([](const sys::GridPoint& p) {
            return sys::channel_scaling_point(p, 128 * 1024);
          })
          .run();
  sys::stamp_channel_scaling(channels);
  sys::ResultSet ol =
      open_loop("open_loop", {10, 20, 40, 80, 160, 320, 640},
                {"base-256-dram", "pack-256-dram", "pack-256-dram-x512-g16"})
          .run();
  sys::stamp_open_loop_knees(ol, kOpenLoopSloP99);
  // The open-loop driver sleeps between arrivals, so it exercises the wake
  // scheduler in a way no closed-loop set does: one gated-vs-naive point,
  // which also reports the per-class scheduler work of both runs.
  constexpr double kLayersRate = 160;
  const char* const kLayersSystem = "pack-256-dram";
  sys::LayerActivity layers_gated;
  sys::LayerActivity layers_naive;
  const sys::ResultSet ol_gated =
      open_loop("open_loop_identity", {kLayersRate}, {kLayersSystem},
                &layers_gated)
          .run();
  const sys::ResultSet ol_naive =
      naive(open_loop("open_loop_identity", {kLayersRate}, {kLayersSystem},
                      &layers_naive))
          .run();

  // 4) Gates.
  std::vector<Gate> gates;
  for (const Pair& p : pairs) {
    const std::string name = p.gated.set.name();
    gates.push_back({name + ".identical",
                     identical(p.gated.set, p.naive.set), 1.0});
    gates.push_back({name + ".verified",
                     std::min(verified(p.gated.set), verified(p.naive.set)),
                     1.0});
  }
  const auto system_is = [](const char* label) {
    return [label](const sys::ResultRow& r) {
      return r.coord("system") == label;
    };
  };
  const auto hit = [](const sys::ResultRow& r) {
    return r.run.row_hit_ratio();
  };
  const auto planned = [](const sys::ResultRow& r) {
    return r.coord("system") == "pack-dram" &&
           (r.coord("kernel") == "gemv" || r.coord("kernel") == "trmv");
  };
  const auto any = [](const sys::ResultRow&) { return true; };
  gates.push_back({"dram_batched.min_row_hit", min_of(batched, hit, any),
                   kStridedHitFloor});
  gates.push_back({"dram_batched.verified", verified(batched), 1.0});
  gates.push_back(
      {"dram.min_planned_speedup",
       min_of(dr.gated.set,
              [](const sys::ResultRow& r) { return r.speedup.value_or(0.0); },
              planned),
       kPlannedSpeedupFloor});
  gates.push_back({"dram.min_planned_row_hit",
                   min_of(dr.gated.set, hit, planned), kPlannedHitFloor});
  gates.push_back({"dram_coalesced.min_row_hit",
                   min_of(coalesced, hit, system_is("pack-dram-coalesce")),
                   kCoalescedHitFloor});
  gates.push_back(
      {"dram_coalesced.min_coalesce_unique",
       min_of(coalesced,
              [](const sys::ResultRow& r) {
                return static_cast<double>(r.run.coalesce_unique);
              },
              system_is("pack-dram-coalesce")),
       1.0});
  gates.push_back({"dram_coalesced.verified", verified(coalesced), 1.0});
  gates.push_back({"channel_scaling.scaling_2ch",
                   min_of(channels,
                          [](const sys::ResultRow& r) {
                            return r.metrics.at("scaling_vs_1ch");
                          },
                          [](const sys::ResultRow& r) {
                            return r.coord("channels") == "2";
                          }),
                   kChannelScalingFloor});
  // Every row of a curve carries the same stamped knee.
  const auto knee = [](const sys::ResultRow& r) {
    return r.metrics.at("knee_rate");
  };
  const double base_knee = min_of(ol, knee, system_is("base-256-dram"));
  gates.push_back(
      {"open_loop.knee_ratio",
       base_knee > 0
           ? min_of(ol, knee, system_is("pack-256-dram-x512-g16")) / base_knee
           : 0.0,
       kOpenLoopKneeFloor});
  gates.push_back({"open_loop.verified",
                   std::min(verified(ol), verified(ol_naive)), 1.0});
  gates.push_back({"open_loop.identical", identical(ol_gated, ol_naive), 1.0});
  gates.push_back({"open_loop.tick_reduction",
                   layers_gated.ticks() == 0
                       ? 0.0
                       : static_cast<double>(layers_naive.ticks()) /
                             static_cast<double>(layers_gated.ticks()),
                   kTickReductionFloor});

  bool all_pass = true;
  std::printf("gates:\n");
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass();
    std::printf("  %-36s %12.6g  (floor %.4g)  %s\n", g.name.c_str(), g.value,
                g.floor, g.pass() ? "ok" : "FAIL");
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("kernel");
  w.key("quick").value(false);
  w.key("seed").value(kSeed);
  w.key("repeats").value(repeats);
  w.key("hardware_threads").value(hw);
  w.key("timing").begin_object();
  w.key("sets").begin_array();
  for (const Pair& p : pairs) {
    for (const Timed* t : {&p.naive, &p.gated}) {
      w.begin_object();
      w.key("set").value(p.gated.set.name());
      w.key("engine").value(t == &p.naive ? "naive" : "gated");
      w.key("wall_ms").value(t->wall_ms);
      w.key("sim_cycles").value(t->cycles());
      w.key("sim_cycles_per_sec").value(t->cycles() / (t->wall_ms / 1000.0));
      w.end_object();
    }
  }
  w.end_array();
  w.key("gated_parallel_ms").value(parallel_ms);
  w.key("speedup_gated_serial_vs_naive").value(speedup_serial);
  w.key("speedup_gated_parallel_vs_naive").value(speedup_parallel);
  w.end_object();
  w.key("thread_scaling").begin_array();
  for (const ScalePoint& point : scaling) {
    w.begin_object();
    w.key("threads_requested").value(point.requested);
    w.key("threads_effective").value(point.effective);
    w.key("oversubscribed").value(point.oversubscribed);
    w.key("wall_ms").value(point.wall_ms);
    w.key("dram_wall_ms").value(point.dram_wall_ms);
    w.end_object();
  }
  w.end_array();
  w.key("gates").begin_array();
  for (const Gate& g : gates) {
    w.begin_object();
    w.key("name").value(g.name);
    w.key("value").value(g.value);
    w.key("floor").value(g.floor);
    w.key("pass").value(g.pass());
    w.end_object();
  }
  w.end_array();
  // Ticks (and gated sleeps) per simulated cycle, per component class,
  // summed over the class's instances.
  w.key("layers").begin_object();
  w.key("set").value("open_loop_identity");
  w.key("system").value(kLayersSystem);
  w.key("rate").value(kLayersRate);
  w.key("cycles").value(layers_gated.cycles);
  w.key("classes").begin_array();
  const auto per_cycle = [](std::uint64_t n, sim::Cycle cycles) {
    return cycles == 0 ? 0.0
                       : static_cast<double>(n) / static_cast<double>(cycles);
  };
  for (const auto& [name, gated] : layers_gated.classes) {
    const sys::ClassActivity& naive_class = layers_naive.classes[name];
    w.begin_object();
    w.key("class").value(name);
    w.key("instances").value(gated.instances);
    w.key("gated_ticks_per_cycle")
        .value(per_cycle(gated.ticks, layers_gated.cycles));
    w.key("naive_ticks_per_cycle")
        .value(per_cycle(naive_class.ticks, layers_naive.cycles));
    w.key("gated_sleeps_per_cycle")
        .value(per_cycle(gated.sleeps, layers_gated.cycles));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("experiments").begin_array();
  const std::vector<const sys::ResultSet*> experiments = {
      &pairs[0].gated.set, &pairs[1].gated.set, &pairs[2].gated.set,
      &batched,            &coalesced,          &channels,
      &ol};
  for (const sys::ResultSet* set : experiments) set->write_json(w);
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string doc = w.str();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return all_pass ? 0 : 1;
}
