"""Measurement loop, output checks and metrics of the nhswe benchmark.

End-to-end numbers come from untraced batches; per-layer numbers come from
a separate traced window over the same inputs, plus a short tracemalloc
pass for the step's temporary memory.  Output checks are counted, never
raised, so a wrong result shows as `failed > 0` instead of a crash.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import nhswe
from nhswe import timeloop
from tracer import LAYER_FUNCTIONS, MODULES, STEP_SPAN, Tracer
from workloads import Workload

# Closed walled basin: mass is conserved to round-off, step by step.
MASS_DRIFT_MAX = 1e-12
# Relative L2 depth error against the exact solitary wave at the batch end
# time; the seeded range of inputs stays below 1e-7, so 1e-6 leaves a 10x
# margin while still catching a wrong prediction or correction.
L2_DEPTH_ERROR_MAX = 1e-6
SETUP_REPS = 5
PEAK_TEMP_WARM_STEPS = 1
PEAK_TEMP_STEPS = 3
CHECK_SPAN = "bench.on_step"
# Times `import nhswe` in a fresh interpreter.  numpy and scipy.linalg are
# loaded first, untimed: their start-up is the same for any version of the
# solver and swings with host load more than anything the solver does.
IMPORT_NHSWE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy, scipy.linalg; "
    "t = time.perf_counter(); import nhswe; print(time.perf_counter() - t)"
)


class Checks:
    """Output checks counted into attempted / failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] = self.failures.get(name, 0) + 1


class Recorder:
    """on_step callback: times the step intervals and checks each step.

    The time spent inside the callback (the checks) is accumulated so it
    can be taken out of the batch wall time.
    """

    def __init__(self, scenario: nhswe.Scenario, checks: Checks):
        self.checks = checks
        bc_l, bc_r = scenario.bounds.hyperbolic_at(0.0)
        self.closed = bc_l.kind == "wall" and bc_r.kind == "wall"
        self.mass_prev = nhswe.total_mass(scenario.state0, scenario.mesh)
        self.intervals: list[float] = []
        self.callback_s = 0.0
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def on_step(self, step) -> None:
        entered = time.perf_counter()
        self.intervals.append(entered - self._last)
        report, state = step.report, step.state
        check = self.checks.check
        check("div_residual_within_bound", report.div_residual <= report.div_bound)
        check(
            "fields_finite",
            bool(
                np.isfinite(state.H).all()
                and np.isfinite(state.Hu).all()
                and np.isfinite(state.Hw).all()
            ),
        )
        check("depth_nonnegative", float(state.H.min()) >= 0.0)
        if self.closed:
            drift = abs(report.mass - self.mass_prev) / self.mass_prev
            check("mass_drift_per_step", drift <= MASS_DRIFT_MAX)
            self.mass_prev = report.mass
        self._last = time.perf_counter()
        self.callback_s += self._last - entered


@dataclass
class Batch:
    run_s: float
    steps: int
    step_s: list[float]
    l2_depth_error: float | None = None


@dataclass
class Setup:
    scenario: nhswe.Scenario
    params: nhswe.PhysicalParams
    pair: nhswe.ElementPair


def prepare(wl: Workload, inputs: dict[str, float]) -> Setup:
    sc = wl.build(inputs)
    # run() does not read Scenario.h_eps, so it is passed explicitly
    return Setup(sc, nhswe.PhysicalParams(h_eps=sc.h_eps), wl.element_pair())


def first_steps(s: Setup, integrator: str, count: int):
    """Yield the results of the first `count` steps, called directly."""
    step = timeloop.step_euler if integrator == "euler" else timeloop.step_heun
    sc = s.scenario
    state = sc.state0.copy()
    for _ in range(count):
        res = step(state, sc.mesh, sc.bathy, s.params, sc.bounds, s.pair)
        state = res.state
        yield res


def relative_l2_depth_error(sc: nhswe.Scenario, state: nhswe.FlowState) -> float:
    dx = sc.mesh.dual_widths
    H_exact = sc.exact(sc.mesh.nodes, state.t)[0]
    return float(np.sqrt(np.sum(dx * (state.H - H_exact) ** 2) / np.sum(dx * H_exact**2)))


def run_batch(
    wl: Workload, inputs: dict[str, float], checks: Checks, tracer: Tracer | None = None
) -> tuple[Batch, nhswe.FlowState]:
    """One closed-loop run from t = 0 to wl.t_end, checked as it goes;
    returns its timings and its final state."""
    s = prepare(wl, inputs)
    rec = Recorder(s.scenario, checks)
    on_step = rec.on_step if tracer is None else tracer.wrap(CHECK_SPAN, rec.on_step)
    gc.collect()
    t0 = time.perf_counter()
    rec.start()
    result = nhswe.run(
        s.scenario,
        s.params,
        t_end=wl.t_end,
        output_times=wl.output_times,
        pair=s.pair,
        integrator=wl.integrator,
        on_step=on_step,
    )
    wall = time.perf_counter() - t0

    final = result.final
    steps = len(result.reports)
    check = checks.check
    check("reached_t_end", abs(final.t - wl.t_end) <= 1e-12 * max(1.0, wl.t_end))
    check("every_step_reported", steps == len(rec.intervals) and steps > 0)
    events = sorted({t for t in wl.output_times if 0.0 < t < wl.t_end}) + [wl.t_end]
    check("snapshot_per_output_time", [snap.t for snap in result.snapshots] == events)
    gauges = s.scenario.gauges
    if gauges is not None:
        for rec_g in gauges.records:
            check(
                "gauge_sample_per_output_time",
                rec_g.times == events and bool(np.isfinite(rec_g.eta).all()),
            )
    l2 = None
    if s.scenario.exact is not None:
        l2 = relative_l2_depth_error(s.scenario, final)
        check("l2_depth_error_below_threshold", l2 <= L2_DEPTH_ERROR_MAX)
    return Batch(wall - rec.callback_s, steps, rec.intervals, l2), final


def measure(
    wl: Workload,
    inputs: dict[str, float],
    seconds: float,
    checks: Checks,
    tracer: Tracer | None = None,
    reference: nhswe.FlowState | None = None,
) -> tuple[list[Batch], nhswe.FlowState]:
    """Repeat batches until `seconds` have passed (at least one batch).

    Every batch must end bit-identical to `reference` (by default the first
    batch's final state).  Only that one final state is kept, so memory
    does not grow with the window.  Returns the batches and the reference.
    """
    batches = []
    deadline = time.perf_counter() + seconds
    while True:
        batch, final = run_batch(wl, inputs, checks, tracer)
        if reference is None:
            reference = final
        else:
            checks.check("final_state_bit_identical", same_state(final, reference))
        batches.append(batch)
        if time.perf_counter() >= deadline:
            return batches, reference


def setup_seconds(wl: Workload, inputs: dict[str, float]) -> float:
    """Median over SETUP_REPS of: importing nhswe in a fresh interpreter,
    then building the scenario and running its first step."""
    src = str(Path(nhswe.__file__).resolve().parents[1])
    reps = []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", IMPORT_NHSWE, src],
                               check=True, capture_output=True, text=True)
        import_s = float(child.stdout)
        t0 = time.perf_counter()
        s = prepare(wl, inputs)
        first_dt = nhswe.cfl_dt(s.scenario.state0, s.scenario.mesh, s.params)
        nhswe.run(s.scenario, s.params, t_end=0.5 * first_dt, pair=s.pair,
                  integrator=wl.integrator)
        reps.append(import_s + time.perf_counter() - t0)
    return statistics.median(reps)


def step_ns_per_node(batches: list[Batch], n_nodes: int, percentile: float) -> float:
    """A percentile of the step wall times of all batches, per node, in ns."""
    step_s = np.concatenate([b.step_s for b in batches])
    return float(np.percentile(step_s, percentile)) * 1e9 / n_nodes


def end_to_end_metrics(batches: list[Batch], n_nodes: int, setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, ungated figures and sample counts) of the untraced window.

    The gated step time is the 10th percentile: on a shared host,
    interference slows whole stretches of a run by 20-60 %, which moves the
    median and p90 from run to run far more than it moves the fast tail.
    """
    step_ms = np.concatenate([b.step_s for b in batches]) * 1e3
    metrics = {
        "ns_per_node_step_p10": (step_ns_per_node(batches, n_nodes, 10), "ns/node/step"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = float(np.percentile(step_ms, 90))
    info = {
        "ns_per_node_step_mean": (
            sum(b.run_s for b in batches) / sum(b.steps for b in batches) / n_nodes * 1e9,
            "ns/node/step"),
        "run_s": (statistics.median(b.run_s for b in batches), "s"),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "step_ms_p90": (p90, "ms"),
        "batches": (len(batches), "count"),
        "steps": (int(step_ms.size), "count"),
        "steps_beyond_p90": (int(np.count_nonzero(step_ms > p90)), "count"),
    }
    return metrics, info


def peak_temp_bytes(wl: Workload, inputs: dict[str, float]) -> float:
    """Largest tracemalloc peak over a step, above what was live before it."""
    steps = first_steps(prepare(wl, inputs), wl.integrator,
                        PEAK_TEMP_WARM_STEPS + PEAK_TEMP_STEPS)
    peaks = []
    tracemalloc.start()
    try:
        while True:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = next(steps, None)
            if res is None:
                break
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return float(max(peaks[PEAK_TEMP_WARM_STEPS:]))


def layer_metrics(tracer: Tracer, n_nodes: int, peak_temp: float, overhead_frac: float) -> dict:
    """Per-function calls and self time, per-module self share, the step's
    peak temporary bytes per node and the tracing overhead."""
    summary = tracer.summary()
    steps = summary[STEP_SPAN][0]
    metrics = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name in LAYER_FUNCTIONS:
        calls, self_ns = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls_per_step"] = (calls / steps, "count")
        metrics[f"{name}.self_ns_per_node_step"] = (self_ns / (steps * n_nodes), "ns/node/step")
        module_self[name.split(".")[0]] += self_ns
    total = sum(module_self.values())
    for module, self_ns in module_self.items():
        metrics[f"{module}.self_share"] = (self_ns / total, "frac")
    metrics["timeloop.step.peak_temp_bytes_per_node"] = (peak_temp / n_nodes, "B/node")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics


def same_state(a: nhswe.FlowState, b: nhswe.FlowState) -> bool:
    return (
        a.t == b.t
        and np.array_equal(a.H, b.H)
        and np.array_equal(a.Hu, b.Hu)
        and np.array_equal(a.Hw, b.Hw)
    )


# -- environment record --------------------------------------------------------


def _cache_sizes() -> dict[str, int | None]:
    """Per-core L2 and shared L3 sizes in bytes from sysfs (None if absent)."""
    sizes: dict[str, int | None] = {"l2_bytes": None, "l3_bytes": None}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if level in ("2", "3"):
            sizes[f"l{level}_bytes"] = value
    return sizes


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def computed_working_set(wl: Workload, inputs: dict[str, float]) -> dict[str, int]:
    """Bytes of the arrays held by the scenario and one step's result (state,
    operators, Schur system, BC plan, pressure), computed from array sizes;
    temporaries that die inside the step are not counted."""
    s = prepare(wl, inputs)
    res = next(first_steps(s, wl.integrator, 1))
    holders = [s.scenario.mesh, s.scenario.bathy, s.scenario.state0, res.state,
               res.ops, res.schur, res.schur.plan, res.pressure]
    seen: dict[int, int] = {}
    for obj in holders:
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                seen[id(value)] = value.nbytes
    return {"bytes": sum(seen.values()), "arrays": len(seen)}
