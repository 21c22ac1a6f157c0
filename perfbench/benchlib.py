"""Maths and output checks of the repository benchmark.

run.py turns the raw measurements of the perfbench binary into the
reported metrics with these functions; test_benchlib.py checks them.
Everything here is pure Python with no dependencies beyond the standard
library.
"""

import math
import statistics

# Every workload the binary runs. BENCHMARK.json gates paper-sweep and
# fabric-256-sharded; fabric-256 (the same cell on one event queue) stays
# runnable as their control but is too noisy on a shared machine to gate.
WORKLOADS = ("paper-sweep", "fabric-256", "fabric-256-sharded")

# (name, unit, better) of every end-to-end metric, reported by untraced runs.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("deadline_met_pct", "%", "higher"),
    ("combined_c", "score", "lower"),
)

# (name, unit, better) of every per-layer metric, reported by traced runs.
PER_LAYER = (
    ("profile.exec_s", "s", "lower"),
    ("profile.comm_s", "s", "lower"),
    ("regress.fit_s", "s", "lower"),
    ("apps.build_ms", "ms", "lower"),
    ("experiments.episodes", "count", "higher"),
    ("experiments.idle_pct", "%", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_cancelled", "count", "lower"),
    ("sim.peak_heap_depth", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.sharded.rounds", "count", "lower"),
    ("sim.sharded.shard_windows", "count", "lower"),
    ("sim.sharded.windows_skipped", "count", "higher"),
    ("sim.sharded.posts_merged", "count", "lower"),
    ("sim.sharded.events_per_round", "count", "higher"),
    ("sim.sharded.us_per_round", "us", "lower"),
    ("net.frames", "count", "lower"),
    ("net.frames_dropped", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.frames_per_event", "ratio", "higher"),
    ("net.useful_frame_pct", "%", "higher"),
    ("net.msg_delay_ms_p90", "ms", "lower"),
    ("node.samples", "count", "lower"),
    ("node.index_rebuilds", "count", "lower"),
    ("node.cursor_advances", "count", "lower"),
    ("node.util_pct", "%", "lower"),
    ("core.periods", "count", "higher"),
    ("core.missed_pct", "%", "lower"),
    ("core.replicate_calls", "count", "lower"),
    ("core.replicate_us", "us", "lower"),
    ("core.replicate_actions", "count", "lower"),
    ("core.shutdown_actions", "count", "lower"),
    ("core.alloc_failures", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# A percentile is reported only when at least this many samples lie
# strictly beyond it.
MIN_TAIL = 10

# Host seconds of one unit of the binary's reference kernel at the
# reference machine speed: the median unit time over the runs the bounds
# were measured with (0.1007 s; provenance.json). Every host time a run
# reports is scaled by REFERENCE_UNIT_S over the median time of the units
# taken in the same phase (set-up or timed), so runs made while the shared
# machine is faster or slower compare; see speed_factor.
REFERENCE_UNIT_S = 0.1

# Per-layer metrics that are host times, scaled like the end-to-end ones,
# by the phase they are measured in.
PER_LAYER_SETUP_TIMES = ("profile.exec_s", "profile.comm_s", "regress.fit_s")
PER_LAYER_TIMED_TIMES = ("apps.build_ms", "sim.ns_per_event",
                         "sim.sharded.us_per_round", "core.replicate_us")

# Plausible ranges of the per-step outcome fields.
STEP_RANGES = {
    "missed_pct": (0.0, 100.0),
    "combined_c": (0.0, 4.0),  # four terms, each a fraction in [0, 1]
    "cpu_pct": (0.0, 100.0),
    "net_pct": (0.0, 100.0),
}


# ---- units ------------------------------------------------------------------

def kib_to_mb(kib):
    """VmHWM kibibytes to the reported MB (mebibytes, 2**20 bytes)."""
    return kib / 1024.0


def missed_to_met_pct(missed_pct):
    return 100.0 - missed_pct


# ---- percentiles and spreads -----------------------------------------------

def nearest_rank(values, pct):
    """The nearest-rank percentile: the smallest sample with at least pct %
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_count(values, threshold):
    return sum(1 for v in values if v > threshold)


def percentile_with_tail(values, pct, min_tail=MIN_TAIL):
    """(value, samples beyond it) of the nearest-rank percentile, or
    (None, beyond) when fewer than min_tail samples lie beyond it."""
    if not values:
        return None, 0
    value = nearest_rank(values, pct)
    beyond = tail_count(values, value)
    return (value if beyond >= min_tail else None), beyond


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def speed_factor(units_s):
    """REFERENCE_UNIT_S over the median of reference-kernel unit times.
    Below 1 when the machine ran slower than the reference speed: host
    times measured next to those units are then multiplied down to what
    they would have been at the reference speed."""
    if not units_s:
        raise ValueError("a phase without calibration units cannot be scaled")
    return REFERENCE_UNIT_S / statistics.median(units_s)


def worse_by(first_median, second_median, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    change = (second_median - first_median) / first_median
    return change if better == "lower" else -change


# ---- step checks ------------------------------------------------------------

def step_failures(step, reference, replay):
    """Reasons the step fails; empty when it passes.

    `step` is a dict keyed by the binary's step columns. A step fails when
    an outcome field is non-finite or out of range, fabric frame
    conservation (originated == arrived + in fabric) is broken, the
    deterministic engine rejected or clamped a post, its simulated-
    statistics digest differs from the warm-up pass, or the 1-worker replay
    of the same step produced a different digest.
    """
    reasons = []
    for field, (lo, hi) in STEP_RANGES.items():
        v = step[field]
        if not math.isfinite(v) or not lo <= v <= hi:
            reasons.append("%s out of range: %r" % (field, v))
    reps, reps_max = step["replicas"], step["replicas_max"]
    if not math.isfinite(reps) or not 0.0 <= reps <= reps_max:
        reasons.append("replicas out of range: %r" % reps)
    if not math.isfinite(step["host_ms"]) or step["host_ms"] <= 0.0:
        reasons.append("host time not positive: %r" % step["host_ms"])
    originated = step["frames_originated"]
    if originated >= 0:
        held = step["frames_arrived"] + step["frames_in_fabric"]
        if originated != held:
            reasons.append("frame conservation broken: %d originated, %d "
                           "arrived + in fabric" % (originated, held))
    if step["posts_rejected"] or step["posts_clamped"]:
        reasons.append("engine posts rejected %d, clamped %d"
                       % (step["posts_rejected"], step["posts_clamped"]))
    key = step["key"]
    if reference.get(key) != step["digest"]:
        reasons.append("digest %s differs from the warm-up pass's %s"
                       % (step["digest"], reference.get(key)))
    if key in replay and replay[key] != reference.get(key):
        reasons.append("1-worker replay digest %s differs from %s"
                       % (replay[key], reference.get(key)))
    return reasons


def judge_steps(raw):
    """(attempted, failed, first failure reasons) over every step row."""
    columns = raw["steps"]["columns"]
    attempted = failed = 0
    examples = []
    for row in raw["steps"]["rows"]:
        step = dict(zip(columns, row))
        attempted += 1
        reasons = step_failures(step, raw["reference"], raw["replay"])
        if reasons:
            failed += 1
            if len(examples) < 5:
                examples.append("%s (rep %d): %s"
                                % (step["key"], step["rep"], "; ".join(reasons)))
    return attempted, failed, examples


def step_times_ms(raw):
    """Host times of the untraced timed steps."""
    columns = raw["steps"]["columns"]
    traced, host = columns.index("traced"), columns.index("host_ms")
    return [row[host] for row in raw["steps"]["rows"] if not row[traced]]


# ---- metrics ----------------------------------------------------------------

def end_to_end_metrics(raw):
    """(values by name, problems) of the end-to-end metrics. Host times
    are scaled to the reference speed (speed_factor)."""
    problems = []
    units = raw["calibration_s"]
    scale = speed_factor(units["timed"])
    steps = [scale * v for v in step_times_ms(raw)]
    p90, beyond = percentile_with_tail(steps, 90.0)
    if raw["peak_rss_kib"] <= 0:
        problems.append("peak RSS unavailable")
    if p90 is None:
        problems.append("step_ms_p90 rests on %d samples beyond it (< %d)"
                        % (beyond, MIN_TAIL))
    values = {
        "setup_s": (speed_factor(units["setup"])
                    * statistics.median(raw["setup_s"])),
        "run_s": scale * statistics.median(raw["run_s"]),
        "step_ms_p50": nearest_rank(steps, 50.0) if steps else None,
        "step_ms_p90": p90,
        "peak_rss_mb": kib_to_mb(raw["peak_rss_kib"]),
        "deadline_met_pct": missed_to_met_pct(raw["missed_pct"]),
        "combined_c": raw["combined_c"],
    }
    return values, problems


def ratio(numerator, denominator, scale=1.0):
    """scale * numerator / denominator, or 0 when the denominator is 0 (a
    layer the workload does not use)."""
    return scale * numerator / denominator if denominator else 0.0


def per_layer_metrics(raw):
    """(values by name, problems) of the per-layer metrics.

    The binary reports exact counts in raw["layers"] and host-time samples
    in raw["samples"]; host times are reduced to medians and scaled to the
    reference speed here, and the ratios between counts and times are
    formed here.
    """
    counts = raw["layers"]
    samples = raw["samples"]

    def med(name):
        return statistics.median(samples[name]) if samples.get(name) else 0.0

    layers = dict(counts)
    events = counts.get("sim.events", 0.0)
    rounds = counts.get("sim.sharded.rounds", 0.0)
    frames = counts.get("net.frames", 0.0)
    dropped = counts.get("net.frames_dropped", 0.0)
    workers = raw["workers"]
    idle = [ratio(workers * wall - busy, workers * wall, 100.0)
            for wall, busy in zip(raw["run_s"], samples.get("busy_s", []))]
    layers.update({
        "profile.exec_s": med("profile.exec_s"),
        "profile.comm_s": med("profile.comm_s"),
        "regress.fit_s": med("regress.fit_s"),
        "apps.build_ms": med("apps.build_ms"),
        # idle worker time only means something for the episode fan-out
        "experiments.idle_pct": (statistics.median(idle)
                                 if counts.get("experiments.episodes") else 0.0),
        "sim.ns_per_event": ratio(med("busy_s"), events, 1e9),
        "sim.sharded.events_per_round": ratio(events, rounds),
        "sim.sharded.us_per_round": ratio(statistics.median(raw["run_s"]),
                                          rounds, 1e6),
        "net.frames_per_event": ratio(frames, events),
        "net.useful_frame_pct": ratio(frames, frames + dropped, 100.0),
        "core.missed_pct": raw["missed_pct"],
        "core.replicate_us": (statistics.fmean(samples["core.replicate_us"])
                              if samples.get("core.replicate_us") else 0.0),
        "trace.overhead_pct": overhead_pct(raw["run_s"], raw["traced_run_s"]),
    })
    for phase, names in (("setup", PER_LAYER_SETUP_TIMES),
                         ("timed", PER_LAYER_TIMED_TIMES)):
        scale = speed_factor(raw["calibration_s"][phase])
        for name in names:
            layers[name] *= scale
    missing = [name for name, _, _ in PER_LAYER if name not in layers]
    problems = ["per-layer metric %s missing" % n for n in missing]
    return {name: layers.get(name) for name, _, _ in PER_LAYER}, problems


def overhead_pct(untraced, traced):
    """Tracing overhead: median traced pass over median untraced pass."""
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def result_line(correct, attempted, failed, values, table):
    """The final JSON object (as a dict) with each metric's unit."""
    units = {name: unit for name, unit, _ in table}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, _, _ in table if values.get(name) is not None}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
