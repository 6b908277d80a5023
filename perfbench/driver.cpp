// Benchmark driver: runs one named workload's grid of simulations over and
// over for a host-time budget and prints one JSON document holding the
// deterministic per-run measurements, the per-pass host timings, timings
// of a fixed reference loop that tell how fast the host ran, and the
// outcome of the repeat-identity check. perfbench/run.py turns that
// document into the benchmark's metrics; see perfbench/WORKLOADS.md.
//
// The driver reaches the simulator only through its public entry points:
// SystemBuilder::build, wl::build_workload, System::run and
// System::run_open_loop, plus the read-only stats accessors. Every call
// into a layer is wrapped in a span (build, gen, run, verify); spans are
// kept in memory and, with --spans, written out as JSON lines at exit.
//
// Usage: perfbench_driver --workload NAME [--seed N] [--seconds S]
//                         [--spans PATH]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

// Named (not anonymous) so the profiled run can tell the benchmark's own
// code from the simulator's.
namespace perfbench {

using namespace axipack;
using Clock = std::chrono::steady_clock;

/// Open-loop measurement window per run, in simulated cycles.
constexpr sim::Cycle kOpenLoopWindow = 1'200'000;
/// Set-up is sampled at least this many times per invocation (setup-only
/// rounds make up for passes that are too long to repeat often).
constexpr unsigned kMinSetupSamples = 5;

/// One simulation of a workload's grid. Closed-loop runs execute `kernel`
/// on `system`; open-loop runs drive `system` at `rate` requests per 100k
/// cycles. Runs sharing a `pair` key are one base/AXI-Pack comparison.
struct RunSpec {
  std::string system;
  wl::KernelKind kernel = wl::KernelKind::gemv;
  unsigned rate = 0;  ///< 0 = closed loop
  bool base = false;
  std::string pair;

  std::string label() const {
    return system + "/" +
           (rate == 0 ? std::string(wl::kernel_name(kernel))
                      : "p" + std::to_string(rate));
  }
};

struct Workload {
  std::string name;
  std::vector<RunSpec> runs;
};

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  const auto closed = [](std::string name, const char* base_system,
                         const char* pack_system,
                         std::initializer_list<wl::KernelKind> kernels) {
    Workload w{std::move(name), {}};
    for (const wl::KernelKind k : kernels) {
      w.runs.push_back({base_system, k, 0, true, wl::kernel_name(k)});
      w.runs.push_back({pack_system, k, 0, false, wl::kernel_name(k)});
    }
    return w;
  };
  all.push_back(closed("strided-sram", "base-256-17b", "pack-256-17b",
                       {wl::KernelKind::ismt, wl::KernelKind::gemv,
                        wl::KernelKind::trmv}));
  all.push_back(closed("indirect-dram", "base-dram", "pack-dram-coalesce",
                       {wl::KernelKind::spmv, wl::KernelKind::prank,
                        wl::KernelKind::sssp}));
  // Sub-knee rate (latency), overload rate (saturation), and the base SoC
  // at the overload rate as the AXI-Pack system's partner.
  Workload open{"gather-open-loop", {}};
  open.runs.push_back({"pack-256-dram-x512-g16-ch2", {}, 160, false, ""});
  open.runs.push_back(
      {"pack-256-dram-x512-g16-ch2", {}, 480, false, "overload"});
  open.runs.push_back({"base-256-dram-ch2", {}, 480, true, "overload"});
  all.push_back(std::move(open));
  return all;
}

/// In-memory span log: one span per call the benchmark makes into a layer.
/// Spans of one run share an id, an index into `ids` (the workload's runs,
/// "<workload>/<system>/<kernel or rate>").
class Spans {
 public:
  Spans(Clock::time_point origin, std::vector<std::string> ids)
      : origin_(origin), ids_(std::move(ids)) {}

  int open(const char* name, std::size_t id, unsigned pass, int parent) {
    spans_.push_back({name, id, pass, parent, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int span) {
    spans_[span].end_s = now();
    return spans_[span].end_s - spans_[span].start_s;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      util::JsonWriter w;
      w.begin_object();
      w.key("span").value(static_cast<std::uint64_t>(i));
      w.key("parent").value(s.parent);
      w.key("name").value(s.name);
      w.key("id").value(ids_[s.id]);
      w.key("pass").value(s.pass);
      w.key("start_s").value(s.start_s);
      w.key("end_s").value(s.end_s);
      w.end_object();
      out << w.str() << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::size_t id;
    unsigned pass;
    int parent;          ///< -1 = root
    double start_s;
    double end_s;
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<std::string> ids_;
  std::vector<Span> spans_;
};

/// Host time of one pass (or one setup-only round), split by layer call.
struct PassTimes {
  double build_s = 0.0;
  double gen_s = 0.0;
  double run_s = 0.0;
  double verify_s = 0.0;
  std::uint64_t sim_cycles = 0;
  /// Reference-loop samples taken between this pass's runs: their total
  /// time and count.
  double reference_s = 0.0;
  unsigned reference_n = 0;
};

/// A fixed stretch of host work that does not use the simulator: branchy
/// integer hashing plus churn of a small ordered map and a deque, the kind
/// of work the simulator's hot loops do. Timed between the runs of a pass,
/// it tells how fast the (shared) host is running this process at the
/// moment, so run.py can scale host times to a host of fixed speed.
class Reference {
 public:
  /// Runs the fixed work once; returns its wall time in seconds.
  double time() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t h = 7;
    for (unsigned i = 0; i < 3'000'000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      if (h & 1) {
        sink_ += h >> 3;
      } else if (h & 2) {
        sink_ ^= h;
      } else {
        sink_ -= i;
      }
    }
    std::map<std::uint32_t, std::uint64_t> map;
    std::deque<std::uint32_t> recent;
    for (unsigned i = 0; i < 150'000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      map[static_cast<std::uint32_t>(h % 20000)] += i;
      recent.push_back(static_cast<std::uint32_t>(h % 20000));
      if (recent.size() > 64) {
        map.erase(recent.front());
        recent.pop_front();
      }
    }
    sink_ += map.size();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }
  /// Whether kEvery seconds have gone by since the last sample.
  bool due() const {
    return std::chrono::duration<double>(Clock::now() - last_).count() >=
           kEvery;
  }
  /// Times the reference and keeps the sample.
  double sample() {
    samples_.push_back(time());
    last_ = Clock::now();
    return samples_.back();
  }
  const std::vector<double>& samples() const { return samples_; }
  /// Keeps the work observable so the optimizer cannot drop it.
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr double kEvery = 0.5;
  Clock::time_point last_ = Clock::now();
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

/// The deterministic measurements of one run, rendered as a JSON object.
std::string render_run(const RunSpec& spec, const sys::RunResult& r,
                       sys::System& system) {
  util::JsonWriter w;
  w.begin_object();
  w.key("label").value(spec.label());
  w.key("system").value(spec.system);
  w.key("kernel").value(spec.rate == 0 ? wl::kernel_name(spec.kernel) : "");
  w.key("rate").value(spec.rate);
  w.key("base").value(spec.base);
  w.key("pair").value(spec.pair);
  w.key("cycles").value(r.cycles);
  w.key("correct").value(r.correct);
  w.key("error").value(r.error);
  w.key("protocol_violations").value(r.protocol_violations);
  w.key("retries").value(r.retries);
  w.key("retry_timeouts").value(r.retry_timeouts);
  w.key("failed_ops").value(r.failed_ops);
  w.key("bus_bytes").value(r.bus_bits / 8);
  w.key("r_util").value(r.r_util);
  w.key("lat_count").value(r.latency.count());
  w.key("lat_p50").value(r.latency.percentile(50));
  w.key("lat_p99").value(r.latency.percentile(99));
  w.key("offered_rate").value(r.offered_rate);
  w.key("achieved_rate").value(r.achieved_rate);
  w.key("ar_handshakes").value(r.bus.ar_handshakes);
  w.key("r_beats").value(r.bus.r_beats);
  w.key("r_payload_bytes").value(r.bus.r_payload_bytes);
  w.key("r_index_bytes").value(r.bus.r_index_bytes);
  w.key("w_beats").value(r.bus.w_beats);
  w.key("channel_r_beats").begin_array();
  for (const sys::ChannelRunStats& c : r.per_channel) {
    w.value(c.bus.r_beats);
  }
  w.end_array();
  w.key("grants").value(r.bank_grants);
  w.key("conflict_losses").value(r.bank_conflict_losses);
  w.key("row_hits").value(r.row_hits);
  w.key("row_misses").value(r.row_misses);
  w.key("refresh_stall_cycles").value(r.refresh_stall_cycles);
  w.key("row_batch_defer_cycles").value(r.row_batch_defer_cycles);
  w.key("row_starved_grants").value(r.row_starved_grants);
  w.key("coalesce_merged").value(r.coalesce_merged);
  w.key("coalesce_unique").value(r.coalesce_unique);
  w.key("coalesce_peak_pending").value(r.coalesce_peak_pending);
  w.key("indirect_idx_words").value(r.indirect_idx_words);
  w.key("indirect_elem_words").value(r.indirect_elem_words);
  for (const char* c : {"proc.dispatches", "vlsu.ar", "vlsu.beats_rx",
                        "vlsu.bytes_rx", "vfu.elems"}) {
    w.key(c).value(r.activity.get(c));
  }

  pack::AdapterStats bursts;
  for (unsigned c = 0; system.has_fabric() && c < system.num_channels();
       ++c) {
    const pack::AdapterStats& s = system.adapter(c).stats();
    bursts.base_reads += s.base_reads;
    bursts.base_writes += s.base_writes;
    bursts.strided_reads += s.strided_reads;
    bursts.strided_writes += s.strided_writes;
    bursts.indirect_reads += s.indirect_reads;
    bursts.indirect_writes += s.indirect_writes;
  }
  w.key("bursts.base_reads").value(bursts.base_reads);
  w.key("bursts.base_writes").value(bursts.base_writes);
  w.key("bursts.strided_reads").value(bursts.strided_reads);
  w.key("bursts.strided_writes").value(bursts.strided_writes);
  w.key("bursts.indirect_reads").value(bursts.indirect_reads);
  w.key("bursts.indirect_writes").value(bursts.indirect_writes);

  dma::DmaStats dma;
  for (sys::MasterId id = 0; id < system.num_masters(); ++id) {
    if (!system.is_dma(id)) continue;
    const dma::DmaStats& s = system.dma(id).stats();
    dma.descriptors_done += s.descriptors_done;
    dma.bytes_moved += s.bytes_moved;
    dma.busy_cycles += s.busy_cycles;
    dma.desc_fetch_bytes += s.desc_fetch_bytes;
    dma.error_descriptors += s.error_descriptors;
    dma.queue_peak = std::max(dma.queue_peak, s.queue_peak);
  }
  w.key("dma.descriptors_done").value(dma.descriptors_done);
  w.key("dma.bytes_moved").value(dma.bytes_moved);
  w.key("dma.busy_cycles").value(dma.busy_cycles);
  w.key("dma.desc_fetch_bytes").value(dma.desc_fetch_bytes);
  w.key("dma.error_descriptors").value(dma.error_descriptors);
  w.key("dma.queue_peak").value(dma.queue_peak);

  traffic::OpenLoopDriver::Stats traffic;
  if (const traffic::OpenLoopDriver* d = system.traffic_driver()) {
    traffic = d->stats();
  }
  w.key("traffic.arrivals").value(traffic.arrivals);
  w.key("traffic.completed").value(traffic.completed);
  w.key("traffic.failed").value(traffic.failed);
  w.key("traffic.queue_peak").value(traffic.queue_peak);

  const energy::PowerEstimate power = energy::estimate(r);
  w.key("power_mw").value(power.power_mw);
  w.key("energy_uj").value(power.energy_uj);
  w.end_object();
  return w.str();
}

/// The latency the workload reports: the AXI-Pack runs' per-request
/// latency merged (closed loop), or the sub-knee run's sojourn (open loop).
std::string render_latency(const util::Histogram& h) {
  util::JsonWriter w;
  w.begin_object();
  w.key("count").value(h.count());
  w.key("p50").value(h.percentile(50));
  w.key("p99").value(h.percentile(99));
  w.end_object();
  return w.str();
}

struct PassOutput {
  PassTimes times;
  std::vector<std::string> runs;  ///< render_run per run, grid order
  std::string latency;
  bool correct = true;
  /// Closed-loop runs count one attempt each; open-loop runs count their
  /// requests. A failed closed-loop run, or a failed open-loop run's whole
  /// request stream, counts as failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Span ids: the workload itself, then each of its runs.
std::vector<std::string> span_ids(const Workload& w) {
  std::vector<std::string> ids{w.name};
  for (const RunSpec& spec : w.runs) ids.push_back(w.name + "/" + spec.label());
  return ids;
}

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, Clock::time_point origin,
        Reference& reference)
      : w_(w), seed_(seed), spans_(origin, span_ids(w)),
        reference_(reference) {}

  /// One pass over the grid. `simulate` = false builds every system and
  /// workload but runs nothing (a setup-only round).
  PassOutput pass(unsigned index, bool simulate) {
    PassOutput out;
    util::Histogram latency;
    const int root = spans_.open(simulate ? "pass" : "setup", 0, index, -1);
    for (std::size_t id = 1; id <= w_.runs.size(); ++id) {
      const RunSpec& spec = w_.runs[id - 1];
      sys::SystemBuilder builder =
          sys::ScenarioRegistry::instance().builder(spec.system);
      if (spec.rate != 0) {
        traffic::TrafficConfig tc;
        tc.arrival.kind = traffic::ArrivalKind::poisson;
        tc.arrival.rate_per_100k = spec.rate;
        tc.arrival.seed = seed_;
        tc.dma.use_pack = !spec.base;
        builder.traffic(tc);
      }
      int span = spans_.open("build", id, index, root);
      const std::unique_ptr<sys::System> system = builder.build();
      out.times.build_s += spans_.close(span);

      sys::RunResult r;
      if (spec.rate == 0) {
        wl::WorkloadConfig cfg = sys::plan_workload(spec.kernel, builder);
        cfg.seed = seed_;
        span = spans_.open("gen", id, index, root);
        wl::WorkloadInstance inst = wl::build_workload(system->store(), cfg);
        out.times.gen_s += spans_.close(span);
        if (!simulate) continue;
        // The golden check runs inside System::run; wrap it so it is timed
        // as its own call, a child of the run span.
        int run_span = -1;
        auto check = std::move(inst.check);
        inst.check = [&](const mem::BackingStore& store, std::string& msg) {
          const int v = spans_.open("verify", id, index, run_span);
          const bool ok = check(store, msg);
          out.times.verify_s += spans_.close(v);
          return ok;
        };
        run_span = spans_.open("run", id, index, root);
        r = system->run(inst);
        out.times.run_s += spans_.close(run_span);
        if (!spec.base) latency.merge(r.latency);
      } else {
        if (!simulate) continue;
        span = spans_.open("run", id, index, root);
        r = system->run_open_loop(kOpenLoopWindow);
        out.times.run_s += spans_.close(span);
        // run_open_loop already verified; the repeat is the timed call.
        span = spans_.open("verify", id, index, root);
        std::string msg;
        const bool verified = system->traffic_driver()->verify(msg);
        out.times.verify_s += spans_.close(span);
        if (!verified && r.correct) {
          r.correct = false;
          r.error = msg;
        }
        if (spec.pair.empty()) latency = r.latency;  // the sub-knee run
      }
      out.times.sim_cycles += r.cycles;
      const bool ok = r.correct && r.protocol_violations == 0;
      out.correct = out.correct && ok;
      if (spec.rate == 0) {
        out.attempted += 1;
        out.failed += ok ? 0 : 1;
      } else {
        const traffic::OpenLoopDriver::Stats& st =
            system->traffic_driver()->stats();
        out.attempted += std::max<std::uint64_t>(st.arrivals, 1);
        out.failed += ok ? st.failed : std::max<std::uint64_t>(st.arrivals, 1);
      }
      out.runs.push_back(render_run(spec, r, *system));
      if (reference_.due()) {
        span = spans_.open("reference", 0, index, root);
        out.times.reference_s += reference_.sample();
        out.times.reference_n += 1;
        spans_.close(span);
      }
    }
    spans_.close(root);
    out.latency = render_latency(latency);
    return out;
  }

  const Spans& spans() const { return spans_; }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  Spans spans_;
  Reference& reference_;
};

std::string compiler() {
#if defined(__clang__)
  return std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

void write_times(util::JsonWriter& w, const PassTimes& t) {
  w.begin_object();
  w.key("build_s").value(t.build_s);
  w.key("gen_s").value(t.gen_s);
  w.key("run_s").value(t.run_s);
  w.key("verify_s").value(t.verify_s);
  w.key("sim_cycles").value(t.sim_cycles);
  w.key("reference_s").value(t.reference_s);
  w.key("reference_n").value(t.reference_n);
  w.end_object();
}

/// Peak resident set of this process. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the parent's peak across fork/exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point origin = Clock::now();
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  const std::vector<Workload> all = workloads();
  const Workload* workload = nullptr;
  for (const Workload& w : all) {
    if (w.name == workload_name) workload = &w;
  }
  if (workload == nullptr || !(seconds > 0.0)) return usage(argv[0]);

  Reference reference;
  Bench bench(*workload, seed, origin, reference);
  std::vector<PassTimes> setups;
  // Two setup-only rounds first: set-up samples, and a warm allocator for
  // the timed passes.
  for (unsigned i = 0; i < 2; ++i) setups.push_back(bench.pass(i, false).times);

  std::vector<PassTimes> passes;
  PassOutput first;
  std::string mismatch;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  const Clock::time_point t0 = Clock::now();
  for (unsigned i = 0;; ++i) {
    PassOutput p = bench.pass(i, true);
    passes.push_back(p.times);
    setups.push_back(p.times);
    correct = correct && p.correct;
    attempted += p.attempted;
    failed += p.failed;
    if (i == 0 || !p.correct) {
      // A failing pass is the one reported.
      first = std::move(p);
    } else if (p.runs != first.runs || p.latency != first.latency) {
      // Sim measurements must repeat exactly for one seed.
      for (std::size_t r = 0; r < p.runs.size() && mismatch.empty(); ++r) {
        if (p.runs[r] != first.runs[r]) mismatch = workload->runs[r].label();
      }
      if (mismatch.empty()) mismatch = "latency";
    }
    if (!correct || !mismatch.empty()) break;
    if (std::chrono::duration<double>(Clock::now() - t0).count() >= seconds) {
      break;
    }
  }
  for (unsigned i = 2; correct && setups.size() < kMinSetupSamples; ++i) {
    setups.push_back(bench.pass(i, false).times);
  }
  if (reference.samples().empty()) reference.sample();

  util::JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload->name);
  w.key("seed").value(seed);
  w.key("meta").begin_object();
  w.key("compiler").value(compiler());
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("cxx_flags").value(PERFBENCH_CXX_FLAGS);
  w.key("nproc").value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.end_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("identical").value(mismatch.empty());
  w.key("mismatch").value(mismatch);
  w.key("runs").begin_array();
  for (const std::string& r : first.runs) w.raw(r);
  w.end_array();
  w.key("latency").raw(first.latency);
  w.key("passes").begin_array();
  for (const PassTimes& t : passes) write_times(w, t);
  w.end_array();
  w.key("setups").begin_array();
  for (const PassTimes& t : setups) write_times(w, t);
  w.end_array();
  w.key("references").begin_array();
  for (const double t : reference.samples()) w.value(t);
  w.end_array();
  w.key("reference_sink").value(reference.sink());
  w.key("peak_rss_mib").value(peak_rss_mib());
  w.end_object();
  std::printf("%s\n", w.str().c_str());

  if (!spans_path.empty() && !bench.spans().write(spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  return correct && mismatch.empty() ? 0 : 1;
}
