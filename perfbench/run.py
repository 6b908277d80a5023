#!/usr/bin/env python3
"""The repository benchmark: simulator speed and modelled-design metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds the simulator from ../src (perfbench/CMakeLists.txt, build tree in
$CARGO_TARGET_DIR or .bench_build), runs one workload's grid for --seconds
of host time in one serial process, checks every run, and prints a table
followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Host times are scaled to a host of fixed speed by a reference loop the
driver times between runs (see NOMINAL_REFERENCE_S).

--trace 0 reports the end-to-end metrics; --trace 1 makes the separate
traced run and reports the per-layer metrics (deterministic counts, span
timings, and host-time shares per module from a -pg build). Workloads and
metrics are described in perfbench/WORKLOADS.md.
"""
import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("strided-sram", "indirect-dram", "gather-open-loop")
DEFAULT_SEED = 42
# Every invocation must end within this many seconds of host time once the
# build is done.
RUN_DEADLINE_S = 170.0

# The paper's peak figures on FP32 kernels (Table/Fig. 3-4): speedup over
# the base SoC, read-bus utilization, energy-efficiency gain.
PAPER_PEAKS = {
    "strided-sram": ("strided", {"speedup_vs_base": 5.4, "r_util": 0.87,
                                 "energy_gain_vs_base": 5.3}),
    "indirect-dram": ("indirect", {"speedup_vs_base": 2.4, "r_util": 0.39,
                                   "energy_gain_vs_base": 2.1}),
}

HOST_METRICS = ("sim_wall_s", "sim_cycles_per_s", "setup_s", "peak_rss_mib")

# Host times are scaled to a host on which the driver's reference loop (a
# fixed stretch of work that does not use the simulator, timed between runs
# every 0.5 s) takes this long: time x NOMINAL_REFERENCE_S / reference time
# (see host_samples). On a shared host the speed this process gets drifts
# by up to 1.8x over minutes; the reference drifts with it, so the scaled
# times follow the simulator's own cost rather than its neighbours'.
NOMINAL_REFERENCE_S = 0.06

# Profiled modules are the C++ namespaces under axipack::, with wl and sys
# spelled as the layers they are; the hot classes are ROADMAP item 1's.
MODULES = ("sim", "vproc", "dma", "axi", "pack", "mem", "traffic",
           "workloads", "systems", "util")
NAMESPACE_MODULE = {"wl": "workloads", "sys": "systems"}
HOT_CLASSES = ("mem.DramMemory", "mem.BankXbar", "pack.PortMux",
               "pack.BaseConverter", "pack.IndirectReadConverter",
               "pack.Coalescer", "sim.Kernel", "axi.AxiXbar")
UNATTRIBUTED = ("unattributed", None)
MIN_BLOCK_S = 1.0
MIN_PROFILE_COVERAGE = 0.95


class BenchError(Exception):
    """A failure that must make the benchmark exit non-zero."""


def declared_metrics(trace):
    """[(name, unit)] of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


# ------------------------------------------------------------------ build

def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def result_stem(workload, seed, trace):
    """Path, without extension, of a run's result (.json) and spans."""
    return os.path.join(build_root(), "results",
                        f"{workload}-seed{seed}-trace{trace}")


def build(variant):
    """Configures (once) and builds one variant; returns the driver path.

    "plain" is the timed build; "pg" is the same sources with -pg given as
    cache flags, for the traced run's profile.
    """
    bdir = os.path.join(build_root(), variant)
    os.makedirs(bdir, exist_ok=True)
    build_log = os.path.join(bdir, "build.log")
    with open(build_log, "a") as out:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if variant == "pg":
                cmd += ["-DCMAKE_CXX_FLAGS=-pg",
                        "-DCMAKE_EXE_LINKER_FLAGS=-pg"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                raise BenchError(f"cmake configure failed, see {build_log}")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=out, stderr=out).returncode:
            raise BenchError(f"build failed, see {build_log}")
    return os.path.join(bdir, "perfbench_driver")


def drive(binary, workload, seed, seconds, deadline, spans=None, cwd=None):
    """Runs the driver once and returns its JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the driver run")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver timed out after {remaining:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"driver printed nothing (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


# -------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(q3 - q1) / median, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values) if median(values) else 0.0


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pairs(runs):
    """(base, AXI-Pack) run pairs of a workload grid."""
    base = {r["pair"]: r for r in runs if r["base"]}
    return [(base[r["pair"]], r) for r in runs
            if not r["base"] and r["pair"] in base]


def sim_metrics(data):
    """The modelled-design metrics; they repeat exactly for a seed."""
    runs = data["runs"]
    pack = [r for r in runs if not r["base"]]
    cycles = sum(r["cycles"] for r in pack)
    open_loop = any(r["rate"] for r in runs)
    if open_loop:
        # The overload run's achieved rate is the saturation throughput.
        saturation = next(r for r in pack if r["pair"])["achieved_rate"]
    else:
        # A closed loop always offers more than the system serves: its
        # completed requests per 100k cycles are the saturation rate.
        saturation = data["latency"]["count"] * 1e5 / cycles
    return {
        "sim_cycles": cycles,
        "speedup_vs_base": geomean([b["cycles"] / p["cycles"]
                                    for b, p in pairs(runs)]),
        "r_util": sum(r["r_util"] * r["cycles"] for r in pack) / cycles,
        "energy_gain_vs_base": geomean([b["energy_uj"] / p["energy_uj"]
                                        for b, p in pairs(runs)]),
        "latency_p50_cycles": data["latency"]["p50"],
        "latency_p99_cycles": data["latency"]["p99"],
        "saturation_rate": saturation,
    }


def blocks(passes):
    """(grid runs, host seconds, sim cycles, reference seconds) per block.

    Passes shorter than MIN_BLOCK_S are pooled with their successors, so a
    sample spans enough host time to average out short host-speed swings.
    The reference seconds are the mean of the reference-loop samples taken
    during the block, or None if it has none.
    """
    out, runs, secs, cycles, ref_s, ref_n = [], 0, 0.0, 0, 0.0, 0

    def close():
        out.append((runs, secs, cycles, ref_s / ref_n if ref_n else None))

    for p in passes:
        runs, secs, cycles = runs + 1, secs + p["run_s"], cycles + p["sim_cycles"]
        ref_s, ref_n = ref_s + p["reference_s"], ref_n + p["reference_n"]
        if secs >= MIN_BLOCK_S:
            close()
            runs, secs, cycles, ref_s, ref_n = 0, 0.0, 0, 0.0, 0
    if not out:
        close()
    return out


def host_scale(data):
    """Factor that scales a run's host times to the nominal host."""
    return NOMINAL_REFERENCE_S / median(data["references"])


def unscaled_wall(data):
    """Median pass time of a run as measured, before scaling."""
    return median(secs / runs for runs, secs, _, _ in blocks(data["passes"]))


def host_samples(data):
    """Samples of each host-time metric, scaled to the nominal host.

    Pass times are scaled per block by the reference samples taken during
    that block (the run's median if it has none); set-up times, sampled
    mostly outside the timed passes, by the run's median reference.
    """
    scale = host_scale(data)
    wall = []
    for runs, secs, cycles, ref in blocks(data["passes"]):
        block_scale = NOMINAL_REFERENCE_S / ref if ref else scale
        wall.append((block_scale * secs / runs, cycles / (block_scale * secs)))
    return {
        "sim_wall_s": [w for w, _ in wall],
        "sim_cycles_per_s": [c for _, c in wall],
        "setup_s": [scale * (s["build_s"] + s["gen_s"])
                    for s in data["setups"]],
        "peak_rss_mib": [data["peak_rss_mib"]],
    }


def ratio(num, den):
    return num / den if den else 0.0


def layer_counts(data):
    """Deterministic per-layer counts, summed over the workload's runs."""
    runs = data["runs"]

    def total(key):
        return sum(r[key] for r in runs)

    channel_beats = [sum(col) for col in
                     zip(*[r["channel_r_beats"] for r in runs])]
    dma_cycles = sum(r["cycles"] for r in runs if r["dma.descriptors_done"])
    m = {
        "sim.retries": total("retries"),
        "vproc.dispatches": total("proc.dispatches"),
        "vproc.vlsu.ar": total("vlsu.ar"),
        "vproc.vlsu.beats_rx": total("vlsu.beats_rx"),
        "vproc.vlsu.bytes_rx": total("vlsu.bytes_rx"),
        "vproc.vfu.elems": total("vfu.elems"),
        "axi.r_beats": total("r_beats"),
        "axi.r_payload_bytes": total("r_payload_bytes"),
        "axi.r_index_bytes": total("r_index_bytes"),
        "axi.w_beats": total("w_beats"),
        "axi.ar_handshakes": total("ar_handshakes"),
        "axi.beat_fill": ratio(total("r_payload_bytes"),
                               sum(r["r_beats"] * r["bus_bytes"]
                                   for r in runs)),
        "axi.protocol_violations": total("protocol_violations"),
        "axi.channel_balance": ratio(min(channel_beats, default=0),
                                     max(channel_beats, default=0)),
    }
    for kind in ("base", "strided", "indirect"):
        for op in ("reads", "writes"):
            m[f"pack.bursts.{kind}_{op}"] = total(f"bursts.{kind}_{op}")
    merged, unique = total("coalesce_merged"), total("coalesce_unique")
    grants, losses = total("grants"), total("conflict_losses")
    hits, misses = total("row_hits"), total("row_misses")
    m.update({
        "pack.indirect.idx_words": total("indirect_idx_words"),
        "pack.indirect.elem_words": total("indirect_elem_words"),
        "pack.coalesce.merged": merged,
        "pack.coalesce.unique": unique,
        "pack.coalesce.merge_ratio": ratio(merged, merged + unique),
        "pack.coalesce.peak_pending": max(r["coalesce_peak_pending"]
                                          for r in runs),
        "mem.grants": grants,
        "mem.conflict_losses": losses,
        "mem.conflict_ratio": ratio(losses, grants + losses),
        "mem.row_hit_ratio": ratio(hits, hits + misses),
        "mem.row_misses": misses,
        "mem.refresh_stall_cycles": total("refresh_stall_cycles"),
        "mem.row_batch_defer_cycles": total("row_batch_defer_cycles"),
        "mem.row_starved_grants": total("row_starved_grants"),
        "dma.descriptors_done": total("dma.descriptors_done"),
        "dma.bytes_moved": total("dma.bytes_moved"),
        "dma.busy_ratio": ratio(total("dma.busy_cycles"), dma_cycles),
        "dma.desc_fetch_bytes": total("dma.desc_fetch_bytes"),
        "dma.error_descriptors": total("dma.error_descriptors"),
        "dma.queue_peak": max(r["dma.queue_peak"] for r in runs),
        "traffic.arrivals": total("traffic.arrivals"),
        "traffic.completed": total("traffic.completed"),
        "traffic.failed": total("traffic.failed"),
        "traffic.queue_peak": max(r["traffic.queue_peak"] for r in runs),
    })
    for side, is_base in (("base", True), ("pack", False)):
        # Cycle-weighted mean power = total energy over total time.
        side_runs = [r for r in runs if r["base"] == is_base]
        m[f"energy.power_mw_{side}"] = ratio(
            sum(r["power_mw"] * r["cycles"] for r in side_runs),
            sum(r["cycles"] for r in side_runs))
    return m


# ------------------------------------------------------------- profile

def read_gmon(path):
    """Histogram and call arcs of a gmon.out file (glibc format)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"gmon":
        raise BenchError(f"{path} is not a gmon.out file")
    hist, arcs, off = [], [], 20
    while off < len(blob):
        tag = blob[off]
        off += 1
        if tag == 0:  # time histogram
            lo, hi, n, rate = struct.unpack_from("<QQII", blob, off)
            off += 40
            bins = struct.unpack_from(f"<{n}H", blob, off)
            off += 2 * n
            hist.append((lo, hi, rate, bins))
        elif tag == 1:  # call-graph arc
            arcs.append(struct.unpack_from("<QQI", blob, off))
            off += 20
        else:
            raise BenchError(f"{path}: unsupported gmon record tag {tag}")
    return hist, arcs


def read_symbols(binary):
    """Sorted (address, demangled name) of every code symbol.

    Local clones (.isra, .part, .cold) are listed too: gprof drops them and
    files their samples under the preceding global symbol, which can sit in
    another module (std::sort's clone inside util::Rng landing on
    traffic::ArrivalProcess).
    """
    out = subprocess.run(["nm", "-n", "-C", "--defined-only", binary],
                         capture_output=True, text=True, check=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwWiI":
            addr = int(parts[0], 16)
            if addrs and addrs[-1] == addr:
                continue  # alias of the previous symbol
            addrs.append(addr)
            names.append(parts[2])
    return addrs, names


def owner(name):
    """(module, class) a symbol belongs to, or None if its name does not say.

    Only the qualified name outside template arguments counts, so
    std::deque<axipack::vproc::...>::push_back is not vproc's: its callers
    decide (see attribute()).
    """
    depth, head = 0, []
    for ch in name.replace("(anonymous namespace)", "{anon}"):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            break
        elif depth == 0:
            head.append(ch)
    parts = "".join(head).split(" ")[-1].split("::")
    if parts[0] == "perfbench" or parts == ["main"]:
        return ("bench", None)
    if parts[0] != "axipack" or len(parts) < 3:
        return None
    module = NAMESPACE_MODULE.get(parts[1], parts[1])
    return (module, parts[2] if len(parts) >= 4 else None)


def attribute(samples, arcs, names):
    """Host time per (module, class) owner.

    A symbol whose name names no module (std:: templates, clones of them)
    inherits its callers' owners, weighted by the recorded call counts;
    a symbol without callers, or reached only through a cycle of such
    symbols, is unattributed.
    """
    callers = {}
    for caller, callee, count in arcs:
        if caller != callee:
            by = callers.setdefault(callee, {})
            by[caller] = by.get(caller, 0) + count
    memo = {}

    def share(sym, visiting):
        own = owner(names[sym])
        if own is not None:
            return {own: 1.0}
        if sym in memo:
            return memo[sym]
        by = callers.get(sym, {})
        if sym in visiting or not by:
            return {UNATTRIBUTED: 1.0}
        total = sum(by.values())
        result = {}
        for caller, count in by.items():
            for key, frac in share(caller, visiting | {sym}).items():
                result[key] = result.get(key, 0.0) + frac * count / total
        memo[sym] = result
        return result

    owners = {}
    for sym, seconds in samples.items():
        for key, frac in share(sym, frozenset()).items():
            owners[key] = owners.get(key, 0.0) + seconds * frac
    return owners


def profile_shares(binary, gmon):
    """host_share.* metrics and the top symbols of a profiled run."""
    hist, raw_arcs = read_gmon(gmon)
    addrs, names = read_symbols(binary)

    def symbol(pc):
        i = bisect.bisect_right(addrs, pc) - 1
        return i if i >= 0 else None

    samples, unplaced = {}, 0.0
    for lo, hi, rate, bins in hist:
        width = (hi - lo) / len(bins)
        for i, count in enumerate(bins):
            if count:
                sym = symbol(int(lo + i * width))
                if sym is None:
                    unplaced += count / rate
                else:
                    samples[sym] = samples.get(sym, 0.0) + count / rate
    arcs = [(symbol(a), symbol(b), n) for a, b, n in raw_arcs]
    arcs = [(a, b, n) for a, b, n in arcs if a is not None and b is not None]
    owners = attribute(samples, arcs, names)
    owners[UNATTRIBUTED] = owners.get(UNATTRIBUTED, 0.0) + unplaced
    # The benchmark's own code (the driver and its reference loop) is not a
    # layer of the simulator: shares are of the rest.
    total = sum(t for (m, _), t in owners.items() if m != "bench")
    if total <= 0:
        raise BenchError("the profiled run recorded no samples")

    def module_time(module):
        return sum(t for (m, _), t in owners.items() if m == module)

    shares = {f"host_share.{m}": module_time(m) / total for m in MODULES}
    shares["host_share.unattributed"] = module_time("unattributed") / total
    for qualified in HOT_CLASSES:
        module, cls = qualified.split(".")
        shares[f"host_share.{qualified}"] = owners.get((module, cls),
                                                       0.0) / total
    coverage = sum(shares[f"host_share.{m}"]
                   for m in MODULES + ("unattributed",))
    top = sorted(samples.items(), key=lambda kv: -kv[1])[:12]
    return shares, coverage, total, [(names[s], t / total) for s, t in top]


# --------------------------------------------------------------- report

def meta(data, seed, trace):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    return dict(data["meta"], seed=seed, trace=bool(trace),
                git_commit=commit)


def paper_rows(workload, data):
    """Max over kernels of the paper-comparable metrics, beside the peaks."""
    if workload not in PAPER_PEAKS:
        return []
    kind, peaks = PAPER_PEAKS[workload]
    runs = pairs(data["runs"])
    ours = {
        "speedup_vs_base": max(b["cycles"] / p["cycles"] for b, p in runs),
        "r_util": max(p["r_util"] for _, p in runs),
        "energy_gain_vs_base": max(b["energy_uj"] / p["energy_uj"]
                                   for b, p in runs),
    }
    return [(name, ours[name], peaks[name], kind) for name in peaks]


def print_report(workload, data, metrics, spreads, info, declared):
    print(f"perfbench {workload}: seed={info['seed']} trace={info['trace']} "
          f"nproc={info['nproc']} compiler={info['compiler']} "
          f"build={info['build_type']} commit={info['git_commit']}")
    for r in data["runs"]:
        tag = "base" if r["base"] else "pack"
        print(f"  run {r['label']:<40} {tag} cycles={r['cycles']:>9} "
              f"r_util={r['r_util']:.3f} correct={r['correct']}")
    print(f"  {'metric':<22} {'value':>16}  unit")
    for name, unit in declared:
        kind = "host" if name in HOST_METRICS else "sim"
        extra = ""
        if name in spreads:
            extra = f"  (median, IQR {spreads[name][0]:.1%}, " \
                    f"n={spreads[name][1]})"
        print(f"  {name:<22} {metrics[name]:>16.6g}  {unit} [{kind}]{extra}")
    host = info["host"]
    print(f"  host speed: reference loop median "
          f"{host['reference_median_s']:.4f} s over "
          f"{len(data['references'])} samples (nominal "
          f"{NOMINAL_REFERENCE_S} s), host times scaled by "
          f"{host['scale']:.4f}; unscaled sim_wall_s "
          f"{host['unscaled_sim_wall_s']:.6g} s")
    rows = paper_rows(workload, data)
    if rows:
        print("  paper reference (max over kernels vs the paper's peak):")
        for name, ours, peak, kind in rows:
            print(f"    {name:<20} {ours:8.3f}  paper {kind} {peak:6.3f}  "
                  f"gap {ours - peak:+.3f}")
    else:
        print("  paper reference: unvalidated: no reference "
              "(open-loop metrics)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no simulator sources under {ROOT}/src")
    declared = declared_metrics(args.trace)
    plain = build("plain")
    profiled = build("pg")
    deadline = time.monotonic() + RUN_DEADLINE_S
    stem = result_stem(args.workload, args.seed, args.trace)
    os.makedirs(os.path.dirname(stem), exist_ok=True)

    timed_seconds = args.seconds / 3 if args.trace else args.seconds
    data = drive(plain, args.workload, args.seed, timed_seconds, deadline,
                 spans=stem + ".spans.jsonl" if args.trace else None)
    info = meta(data, args.seed, args.trace)
    result = {"meta": info, "workload": args.workload,
              "runs": [{k: r[k] for k in ("label", "pair", "base", "cycles",
                                          "correct", "error", "rate")}
                       for r in data["runs"]]}
    failures = []
    if not data["correct"]:
        failures += [f"{r['label']}: {r['error'] or 'protocol violation'}"
                     for r in data["runs"]
                     if not r["correct"] or r["protocol_violations"]]
        failures = failures or ["a run failed"]
    if not data["identical"]:
        failures.append("sim measurements differ between repeats of "
                        f"{data['mismatch']}")

    metrics, spreads = {}, {}
    if not failures and not args.trace:
        samples = host_samples(data)
        metrics = {name: median(samples[name]) for name in HOST_METRICS}
        spreads = {name: (quartile_spread(samples[name]),
                          len(samples[name])) for name in HOST_METRICS}
        metrics.update(sim_metrics(data))
        result["host"] = {
            "scale": host_scale(data),
            "reference_median_s": median(data["references"]),
            "unscaled_sim_wall_s": unscaled_wall(data),
        }
    elif not failures:
        trace_dir = os.path.join(build_root(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        gmon = os.path.join(trace_dir, "gmon.out")
        if os.path.exists(gmon):
            os.remove(gmon)
        traced = drive(profiled, args.workload, args.seed,
                       args.seconds - timed_seconds, deadline, cwd=trace_dir)
        if not traced["correct"]:
            failures.append("the traced run failed its checks")
        elif (traced["runs"], traced["latency"]) != (data["runs"],
                                                     data["latency"]):
            failures.append("traced and untraced runs differ in sim "
                            "measurements or per-layer counts")
        else:
            shares, coverage, total, top = profile_shares(profiled, gmon)
            counts = layer_counts(data)
            if coverage < MIN_PROFILE_COVERAGE:
                failures.append(f"module shares cover {coverage:.1%} of "
                                "traced self time")
            if counts["traffic.arrivals"] == 0 and \
                    shares["host_share.traffic"] > 0.005:
                failures.append("traffic-layer time in a run without "
                                "traffic: "
                                f"{shares['host_share.traffic']:.2%}")
            samples = host_samples(data)
            traced_wall = median(host_samples(traced)["sim_wall_s"])
            scale = host_scale(data)
            metrics = {
                "systems.build_s": scale * median(s["build_s"]
                                                  for s in data["setups"]),
                "workloads.gen_s": scale * median(s["gen_s"]
                                                  for s in data["setups"]),
                "workloads.verify_s": scale * median(p["verify_s"]
                                                     for p in data["passes"]),
            }
            metrics.update(counts)
            metrics.update(shares)
            metrics["trace_overhead"] = traced_wall / median(
                samples["sim_wall_s"])
            result["profile"] = {"self_seconds": total,
                                 "coverage": coverage, "top": top}
            print(f"perfbench {args.workload}: traced self time "
                  f"{total:.2f} s, module coverage {coverage:.1%}, "
                  f"trace overhead {metrics['trace_overhead']:.2f}x")
            for name, share in top:
                print(f"  {share:6.1%}  {name[:110]}")

    if metrics and set(metrics) != {name for name, _ in declared}:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {n for n, _ in declared})}")
    if not args.trace and metrics:
        print_report(args.workload, data, metrics, spreads,
                     dict(info, host=result["host"]), declared)
    if args.trace and metrics:
        for name, unit in declared:
            print(f"  {name:<40} {metrics[name]:>14.6g}  {unit}")
    attempted = max(1, data["attempted"])
    failed = data["failed"] if data["failed"] or not failures else attempted
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} "
          "runs or requests)")
    for failure in failures:
        print(f"FAILED: {failure}")
    result.update(correct=not failures, attempted=attempted, failed=failed,
                  failures=failures, metrics=metrics,
                  spreads={k: v[0] for k, v in spreads.items()})
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    line = {"correct": not failures, "attempted": attempted,
            "failed": failed,
            "metrics": {} if failures else {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in declared}}
    print(json.dumps(line))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
