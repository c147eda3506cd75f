"""One SHA-256 over the outputs of four runs, to check that a change keeps
the solver's results bit for bit.

    PYTHONPATH=src python tests/output_hash.py

The runs are solitary N = 6,495 (P1-iso-P2/P1, Euler), beach (P1/P0,
Heun), Dingemans N = 10,001 (P1-iso-P2/P1, Euler, with gauges) and solitary
N = 100,001 (P1/P0, Heun).  The hash covers every snapshot's time, state
and nodal pressure, every StepReport field and every gauge series, as the
bits of their float64 values.  Equal hashes mean equal outputs; the script
prints only the hash.  pytest does not collect this file.

BLAS runs on one thread, set before numpy is imported, as perfbench/run.py
does.  The hash does not depend on it: the reported divergence residuals
are numpy's pairwise sums, not BLAS dot products, whose bits change with
the thread count at N = 100,001 (test_timeloop.py::
test_step_reports_do_not_depend_on_the_blas_thread_count).  The pin keeps
a BLAS sum added later from making the hash depend on the host.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import struct
from dataclasses import astuple

import numpy as np

import nhswe as nh

# (factory, nodes, pair, integrator, t_end, output times)
RUNS = (
    (nh.make_solitary, 6495, "P1isoP2P1", "euler", 2.0, (0.5, 1.0, 1.5)),
    (nh.make_beach, 3000, "P1P0", "heun", 6.0, (2.0, 4.0)),
    (nh.make_dingemans, 10001, "P1isoP2P1", "euler", 2.0, (0.5, 1.0, 1.5)),
    (nh.make_solitary, 100001, "P1P0", "heun", 0.005, (0.0025,)),
)


def _floats(digest, values):
    digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())


def output_hash() -> str:
    digest = hashlib.sha256()
    for make, n, tag, integrator, t_end, times in RUNS:
        sc = make(n_nodes=n)
        res = nh.run(sc, nh.PhysicalParams(h_eps=sc.h_eps), t_end, times,
                     pair=nh.ElementPair(tag, n), integrator=integrator)
        for snap in res.snapshots:
            _floats(digest, [snap.t, snap.state.t])
            for values in (snap.state.H, snap.state.Hu, snap.state.Hw, snap.p_nodes):
                _floats(digest, values)
        for report in res.reports:
            digest.update(struct.pack("<5d", *astuple(report)))
        for rec in sc.gauges.records if sc.gauges is not None else ():
            _floats(digest, [rec.position, *rec.times, *rec.eta])
    return digest.hexdigest()


if __name__ == "__main__":
    print(output_hash())
