"""Benchmark workloads: scenario x element pair x integrator x N.

Each workload is a closed-loop batch: one `nhswe.run()` from t = 0 to a
fixed simulated time, repeated for the measurement window.  The seed draws
a few scenario parameters from narrow ranges; the `make_*` factory receives
only those generated values (plus the fixed N).  The ranges are narrow so
that the step count of a batch stays within a few percent across seeds.
Why each workload is in the set is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import nhswe


@dataclass(frozen=True)
class Workload:
    name: str
    maker: str                  # name of the nhswe.make_* factory
    n_nodes: int
    pair: str                   # ElementPair tag
    integrator: str             # "euler" or "heun"
    t_end: float                # simulated time of one batch
    output_times: tuple[float, ...]
    ranges: tuple[tuple[str, float, float], ...]   # (parameter, low, high)

    def inputs(self, seed: int) -> dict[str, float]:
        """Scenario parameters drawn from the seed; same seed, same inputs."""
        rng = np.random.default_rng(seed)
        return {name: float(rng.uniform(lo, hi)) for name, lo, hi in self.ranges}

    def build(self, inputs: dict[str, float]) -> nhswe.Scenario:
        return getattr(nhswe, self.maker)(n_nodes=self.n_nodes, **inputs)

    def element_pair(self) -> nhswe.ElementPair:
        return nhswe.ElementPair.from_tag(self.pair, self.n_nodes)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="solitary_p1p0_euler_n100k",
            maker="make_solitary",
            n_nodes=100001,
            pair="P1P0",
            integrator="euler",
            t_end=0.0019,
            output_times=(),
            ranges=(("x_start", 10.5, 11.5), ("a", 0.38, 0.42)),
        ),
        Workload(
            name="dingemans_p1isop2p1_euler_n10k",
            maker="make_dingemans",
            n_nodes=10001,
            pair="P1isoP2P1",
            integrator="euler",
            t_end=0.25,
            output_times=(0.05, 0.10, 0.15, 0.20),
            ranges=(("amplitude", 0.018, 0.022), ("period", 1.9, 2.1)),
        ),
        Workload(
            name="beach_p1p0_heun_n3k",
            maker="make_beach",
            n_nodes=3000,
            pair="P1P0",
            integrator="heun",
            t_end=0.5,
            output_times=(),
            ranges=(("amplitude", 0.18, 0.22), ("pulse_period", 3.8, 4.2)),
        ),
    )
}
