"""Outside-in span tracer for the nhswe benchmark.

Spans are recorded by rebinding, for the duration of a traced run, the
names that call sites actually look up: `timeloop` imports `predict`,
`assemble`, `build_schur`, ... by name, so those are wrapped on
`nhswe.timeloop`; module-internal calls (`max_wave_speed`,
`resolve_projection_bcs`, ...) are wrapped on their defining module; and
methods are wrapped on their class.  Every rebound name is restored when
the traced region ends, so the program's source is never touched.

Spans are kept in memory as parallel lists (name, start, end, parent,
step) and written out once, after measurement.  A span's step id is the
index of the most recent `timeloop.step` span opened, so the spans of one
step share it (spans between steps carry the id of the step before them).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager

import numpy as np

import nhswe

STEP_SPAN = "timeloop.step"

# Per-layer functions reported by the benchmark, in report order.
LAYER_FUNCTIONS = (
    "timeloop.run",
    "timeloop.step",
    "hyperbolic.cfl_dt",
    "hyperbolic.max_wave_speed",
    "hyperbolic.predict",
    "hyperbolic.apply_hyperbolic_bc",
    "hyperbolic.hydrostatic_reconstruct",
    "hyperbolic.kinetic_flux",
    "femops.assemble",
    "femops.apply_divergence",
    "femops.scatter_divergence_t",
    "femops.interpolate_pressure_to_nodes",
    "projection.build_schur",
    "projection.resolve_projection_bcs",
    "projection.solve_pressure",
    "projection.correct_velocity",
    "projection.divergence_residual",
    "core.velocities",
    "core.total_mass",
    "core.total_energy",
    "scenarios.gauge_record",
)

MODULES = ("hyperbolic", "femops", "projection", "core", "timeloop", "scenarios")


def patch_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every name the tracer rebinds."""
    tl = nhswe.timeloop
    hy = nhswe.hyperbolic
    return [
        (nhswe, "run", "timeloop.run"),
        (tl, "step_euler", STEP_SPAN),
        (tl, "step_heun", STEP_SPAN),
        (tl, "cfl_dt", "hyperbolic.cfl_dt"),
        (hy, "max_wave_speed", "hyperbolic.max_wave_speed"),
        (tl, "predict", "hyperbolic.predict"),
        (hy, "apply_hyperbolic_bc", "hyperbolic.apply_hyperbolic_bc"),
        (hy, "hydrostatic_reconstruct", "hyperbolic.hydrostatic_reconstruct"),
        (hy, "kinetic_flux", "hyperbolic.kinetic_flux"),
        (tl, "assemble", "femops.assemble"),
        (nhswe.femops.OperatorSet, "apply_divergence", "femops.apply_divergence"),
        (nhswe.femops.OperatorSet, "scatter_divergence_t", "femops.scatter_divergence_t"),
        (
            nhswe.femops.OperatorSet,
            "interpolate_pressure_to_nodes",
            "femops.interpolate_pressure_to_nodes",
        ),
        (tl, "build_schur", "projection.build_schur"),
        (nhswe.projection, "resolve_projection_bcs", "projection.resolve_projection_bcs"),
        (tl, "solve_pressure", "projection.solve_pressure"),
        (tl, "correct_velocity", "projection.correct_velocity"),
        (tl, "divergence_residual", "projection.divergence_residual"),
        (nhswe.core.FlowState, "velocities", "core.velocities"),
        (tl, "total_mass", "core.total_mass"),
        (tl, "total_energy", "core.total_energy"),
        (nhswe.scenarios.GaugeSet, "record", "scenarios.gauge_record"),
    ]


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self._open: list[int] = []
        self._step_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        i = len(self.names)
        if name == STEP_SPAN:
            self._step_id += 1
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.step.append(self._step_id)
        self.end.append(-1)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(i)

        return traced

    @contextmanager
    def installed(self, targets):
        """Rebind every (owner, attr) to a traced wrapper; restore on exit."""
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Calls are single-threaded and nested, so children never overlap and
        the interval they cover is the sum of their durations.
        """
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered

    def summary(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self time in ns)."""
        own = self.self_ns()
        out: dict[str, tuple[int, float]] = {}
        for name, ns in zip(self.names, own.tolist()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + ns)
        return out

    def write(self, path) -> None:
        """Write all spans as gzipped JSON columns (names interned)."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        doc = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "step": self.step,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
