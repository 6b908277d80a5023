#!/usr/bin/env python3
"""Validates the JSON artifacts the bench binaries emit with --json.

Checks, per experiment-grid file:
  * the document parses and has the {"bench", "quick", "experiments"} keys;
  * every experiment carries a name, a non-empty axes list and points;
  * every point's coords object has exactly one entry per declared axis,
    and its label is one of the axis's declared values;
  * every point embeds a "run" object with the RunResult core fields.

Files with "bench": "kernel" (perf_kernel's BENCH_kernel.json) carry the
same experiments[] plus a timing block, thread_scaling and gates[]: every
thread-scaling point records requested vs effective threads with an
oversubscription flag, no oversubscribed point leaks into
gated_parallel_ms (oversubscribed wall-clocks measure the host, not the
engine), and every gate is a {name, value, floor, pass} predicate whose
pass flag agrees with value >= floor and is true. Its layers block lists
one {class, instances, gated/naive ticks and gated sleeps per cycle} row
per component class of one open-loop point: naive ticks per cycle equal
the instance count, gated ticks never exceed naive, and the
open_loop.tick_reduction gate equals the block's naive/gated tick ratio.

Usage: check_bench_json.py FILE.json [FILE.json ...]
Exits non-zero on the first malformed artifact.
"""
import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


RUN_FIELDS = {"cycles", "r_util", "correct", "row_hit_ratio",
              "coalesce_merged", "coalesce_unique", "coalesce_peak_pending",
              "coalesce_row_groups",
              "faults_injected", "faults_corrected", "faults_uncorrectable",
              "retries", "retry_timeouts", "failed_ops", "degraded",
              "latency_p50", "latency_p95", "latency_p99", "latency_max",
              "latency_count", "offered_rate", "achieved_rate", "queue_peak"}


KERNEL_FIELDS = {"seed", "hardware_threads", "timing", "thread_scaling",
                 "gates", "layers"}

LAYERS_FIELDS = {"set", "system", "rate", "cycles", "classes"}

LAYER_CLASS_FIELDS = {"class", "instances", "gated_ticks_per_cycle",
                      "naive_ticks_per_cycle", "gated_sleeps_per_cycle"}

SCALE_POINT_FIELDS = {"threads_requested", "threads_effective",
                      "oversubscribed", "wall_ms", "dram_wall_ms"}

GATE_FIELDS = {"name", "value", "floor", "pass"}


def check_kernel_file(path, doc):
    """Validates the perf_kernel-specific parts of BENCH_kernel.json (its
    experiments[] already passed the experiment-file checks) and returns
    a summary for the ok line."""
    missing = KERNEL_FIELDS - set(doc)
    if missing:
        fail(path, f"kernel artifact missing fields {sorted(missing)}")
    hw = doc["hardware_threads"]
    points = doc["thread_scaling"]
    if not points:
        fail(path, "empty thread_scaling series")
    honest_min = None
    for point in points:
        if not SCALE_POINT_FIELDS <= set(point):
            fail(path, f"thread_scaling point {point!r} missing fields")
        req, eff = point["threads_requested"], point["threads_effective"]
        if eff != min(req, hw):
            fail(path, f"threads_effective {eff} != min(requested {req}, "
                       f"hardware {hw})")
        if point["oversubscribed"] != (req > hw):
            fail(path, f"oversubscribed flag wrong for requested={req} "
                       f"on {hw} hardware thread(s)")
        if not point["oversubscribed"]:
            wall = point["wall_ms"]
            honest_min = wall if honest_min is None else min(honest_min, wall)
    if honest_min is None:
        fail(path, "every thread_scaling point is oversubscribed "
                   "(the serial point never is)")
    # Oversubscribed wall-clocks measure the host, not the engine:
    # gated_parallel_ms may only come from non-oversubscribed runs.
    parallel_ms = doc["timing"].get("gated_parallel_ms")
    if parallel_ms is None:
        fail(path, "timing block missing gated_parallel_ms")
    if parallel_ms > honest_min * (1 + 1e-9):
        fail(path, f"gated_parallel_ms {parallel_ms} exceeds best "
                   f"non-oversubscribed point {honest_min}")
    # Every CI gate is a {name, value, floor, pass} predicate: pass must
    # agree with value >= floor, and every gate must pass.
    gates = doc["gates"]
    if not gates:
        fail(path, "no gates recorded")
    names = set()
    for gate in gates:
        if set(gate) != GATE_FIELDS:
            fail(path, f"gate {gate!r} fields != {sorted(GATE_FIELDS)}")
        if gate["name"] in names:
            fail(path, f"gate {gate['name']!r} recorded twice")
        names.add(gate["name"])
        if gate["pass"] != (gate["value"] >= gate["floor"]):
            fail(path, f"gate {gate['name']} pass flag disagrees with "
                       f"{gate['value']} vs floor {gate['floor']}")
        if not gate["pass"]:
            fail(path, f"gate {gate['name']} failed: {gate['value']} < "
                       f"{gate['floor']}")
    n_classes = check_layers(path, doc["layers"], gates)
    return (f"{len(gates)} gate(s), {len(points)} thread-scaling point(s), "
            f"{n_classes} layer class(es)")


def check_layers(path, layers, gates):
    """Validates the per-class scheduler work block; returns its size."""
    if set(layers) != LAYERS_FIELDS:
        fail(path, f"layers fields {sorted(layers)} != "
                   f"{sorted(LAYERS_FIELDS)}")
    if layers["cycles"] <= 0:
        fail(path, "layers block covers no simulated cycles")
    rows = layers["classes"]
    if not rows:
        fail(path, "layers block lists no component classes")
    names = set()
    gated_total = naive_total = 0.0
    for row in rows:
        if set(row) != LAYER_CLASS_FIELDS:
            fail(path, f"layers row {row!r} fields != "
                       f"{sorted(LAYER_CLASS_FIELDS)}")
        name = row["class"]
        if name in names:
            fail(path, f"layers class {name!r} listed twice")
        names.add(name)
        if row["instances"] < 1:
            fail(path, f"layers class {name!r} has no instances")
        gated, naive = row["gated_ticks_per_cycle"], row["naive_ticks_per_cycle"]
        # The naive kernel ticks every instance every cycle.
        if abs(naive - row["instances"]) > 1e-9 * row["instances"]:
            fail(path, f"layers class {name!r}: naive ticks per cycle "
                       f"{naive} != instances {row['instances']}")
        if not 0 <= gated <= naive * (1 + 1e-9):
            fail(path, f"layers class {name!r}: gated ticks per cycle "
                       f"{gated} outside [0, naive {naive}]")
        if row["gated_sleeps_per_cycle"] < 0:
            fail(path, f"layers class {name!r}: negative sleeps")
        gated_total += gated
        naive_total += naive
    reduction = [g for g in gates if g["name"] == "open_loop.tick_reduction"]
    if len(reduction) != 1:
        fail(path, "no open_loop.tick_reduction gate beside the layers block")
    ratio = naive_total / gated_total if gated_total > 0 else 0.0
    if abs(reduction[0]["value"] - ratio) > 1e-6 * max(ratio, 1.0):
        fail(path, f"open_loop.tick_reduction {reduction[0]['value']} != "
                   f"layers naive/gated tick ratio {ratio}")
    return len(rows)


def check_file(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"does not parse: {e}")
    for key in ("bench", "quick", "experiments"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    if not isinstance(doc["experiments"], list):
        fail(path, '"experiments" is not a list')
    for exp in doc["experiments"]:
        name = exp.get("experiment")
        if not name:
            fail(path, "experiment without a name")
        axes = exp.get("axes")
        if not axes:
            fail(path, f"{name}: no axes")
        axis_values = {}
        for axis in axes:
            if not axis.get("name") or not axis.get("values"):
                fail(path, f"{name}: malformed axis {axis!r}")
            axis_values[axis["name"]] = set(axis["values"])
        points = exp.get("points")
        if points is None:
            fail(path, f"{name}: no points list")
        if not points:
            # --filter can legitimately empty a grid, but an unfiltered
            # smoke run must produce points.
            fail(path, f"{name}: empty points list")
        for point in points:
            coords = point.get("coords")
            if coords is None:
                fail(path, f"{name}: point without coords")
            if set(coords) != set(axis_values):
                fail(path,
                     f"{name}: coords keys {sorted(coords)} != axes "
                     f"{sorted(axis_values)}")
            for axis, label in coords.items():
                if label not in axis_values[axis]:
                    fail(path,
                         f"{name}: coord {axis}={label!r} not a declared "
                         f"axis value")
            run = point.get("run")
            if not isinstance(run, dict) or not RUN_FIELDS <= set(run):
                fail(path, f"{name}: point run object missing core fields")
        # The coalescer sweep must actually exercise the unit: every point
        # off the baseline carries coalescer activity, the baseline none.
        if "coalesce" in axis_values:
            for point in points:
                run = point["run"]
                if point["coords"]["coalesce"] == "off":
                    if run["coalesce_unique"] != 0:
                        fail(path, f"{name}: baseline point reports "
                                   f"coalescer activity")
                elif run["coalesce_unique"] == 0:
                    fail(path,
                         f"{name}: coalesced point "
                         f"{point['coords']} saw no coalescer traffic")
        # The channel-scaling sweep must actually scale: every point
        # carries the aggregate and per-channel utilization metrics plus
        # the recorded knee, and along each fixed (masters, mapping)
        # curve the aggregate R-util grows monotonically (2% tolerance)
        # with the channel count up to that knee. (The open-loop latency
        # sweep also crosses channels but sweeps rate — it gets its own
        # shape check below.)
        if "channels" in axis_values and "rate" not in axis_values:
            curves = {}
            for point in points:
                metrics = point.get("metrics") or {}
                for field in ("agg_r_util", "min_ch_r_util",
                              "max_ch_r_util", "knee_channels"):
                    if field not in metrics:
                        fail(path, f"{name}: channel point "
                                   f"{point['coords']} missing metric "
                                   f"{field!r}")
                key = tuple(sorted((a, l)
                                   for a, l in point["coords"].items()
                                   if a != "channels"))
                curves.setdefault(key, []).append(
                    (int(point["coords"]["channels"]),
                     metrics["agg_r_util"], metrics["knee_channels"]))
            for key, series in curves.items():
                series.sort()
                knee = series[0][2]
                prev = None
                for ch, util, _ in series:
                    if ch > knee:
                        break
                    if prev is not None and util < prev * 0.98:
                        fail(path, f"{name}: aggregate R-util not "
                                   f"monotone up to the knee for "
                                   f"{dict(key)}: {util:.3f} at {ch} "
                                   f"channels < {prev:.3f}")
                    prev = util
        # The open-loop latency sweep must be self-consistent: every point
        # carries the latency/rate metrics, achieved never exceeds offered
        # (small slack for window-edge completions), and each fixed
        # (system, channels) curve agrees on one knee_rate — the highest
        # swept rate whose p99 met the SLO — with every above-knee point
        # violating the SLO (the defining property of a maximum).
        if "rate" in axis_values:
            curves = {}
            for point in points:
                metrics = point.get("metrics") or {}
                for field in ("latency_p50", "latency_p95", "latency_p99",
                              "offered_rate", "achieved_rate", "queue_peak",
                              "knee_rate", "slo_p99"):
                    if field not in metrics:
                        fail(path, f"{name}: open-loop point "
                                   f"{point['coords']} missing metric "
                                   f"{field!r}")
                if (metrics["achieved_rate"]
                        > metrics["offered_rate"] * 1.02 + 2):
                    fail(path, f"{name}: point {point['coords']} achieved "
                               f"more than it offered")
                if not (metrics["latency_p50"] <= metrics["latency_p95"]
                        <= metrics["latency_p99"]):
                    fail(path, f"{name}: point {point['coords']} has "
                               f"non-monotone latency percentiles")
                key = tuple(sorted((a, l)
                                   for a, l in point["coords"].items()
                                   if a != "rate"))
                curves.setdefault(key, []).append(
                    (float(point["coords"]["rate"]), metrics))
            for key, series in curves.items():
                knees = {m["knee_rate"] for _, m in series}
                if len(knees) != 1:
                    fail(path, f"{name}: curve {dict(key)} disagrees on "
                               f"knee_rate: {sorted(knees)}")
                knee = knees.pop()
                for rate, m in series:
                    if rate > knee and m["latency_p99"] <= m["slo_p99"]:
                        fail(path, f"{name}: curve {dict(key)} meets the "
                                   f"SLO above its recorded knee {knee}")
        # The fault-tolerance sweep must actually inject: the f0 baseline
        # stays clean, every other rate point records injections, and — in
        # quick mode, where CI validates it — no point with the full retry
        # budget may lose an op below the extreme-rate knee. (Full-size
        # runs inject proportionally more faults per op, which moves the
        # knee leftward, so the recovery assertion only binds quick runs.)
        if "fault" in axis_values:
            for point in points:
                run = point["run"]
                coords = point["coords"]
                if coords["fault"] == "f0":
                    if run["faults_injected"] != 0 or run["failed_ops"] != 0:
                        fail(path, f"{name}: fault-free baseline point "
                                   f"{coords} reports fault activity")
                    if not run["correct"]:
                        fail(path, f"{name}: fault-free baseline point "
                                   f"{coords} is incorrect")
                else:
                    if run["faults_injected"] == 0:
                        fail(path, f"{name}: fault point {coords} "
                                   f"injected nothing")
                    if (doc["quick"]
                            and coords.get("budget") == "r4"
                            and coords["fault"] in ("f20", "f100")
                            and (run["failed_ops"] != 0
                                 or not run["correct"])):
                        fail(path, f"{name}: budgeted point {coords} "
                                   f"failed to recover")
    n_exp = len(doc["experiments"])
    n_pts = sum(len(e["points"]) for e in doc["experiments"])
    summary = f"{n_exp} experiment(s), {n_pts} point(s)"
    if doc["bench"] == "kernel":
        summary += ", " + check_kernel_file(path, doc)
    print(f"{path}: ok ({doc['bench']}, {summary})")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
