"""Timing of the exact-sinc frequency trace: depth closed form and trapezoid oracle.

Run from the repository root (about 30 s on a 2-vCPU Xeon VM), writing the
run elsewhere and then appending its rows, tagged, to the committed file
(``--benchmark-json BENCH_quadrature.json`` itself would replace its rows):

    python -m pytest benchmarks/test_quadrature_bench.py --benchmark-json /tmp/run.json
    python benchmarks/append_rows.py /tmp/run.json BENCH_quadrature.json --revision "..."

Each case times one call over the detector-momentum grid of an auto-window
y scan of the default config in exact-sinc mode, with a CW pump or a
0.5 nm Gaussian-spectrum pump. The rows of a case are:

- ``depth``: ``spatial_biphoton``, the exact-sinc closed form summed over
  crystal depth. It must match the trapezoid to 1e-8 relative at every
  point of an 8^2 subgrid (every points/8-th row and column).
- ``quadrature``: ``integrate_quadrature``, the trapezoid oracle, one
  rule for both pumps on a tensor grid over the pump's frequency support,
  integrated one point at a time. It must equal
  ``reference_quadrature`` of ``tests/test_trace.py``, a separate
  statement of the rule, bit for bit.

To compare two revisions, run the file in a checkout of each, alternating
between them; on a shared VM, runs made far apart spread more than most
effects worth reporting.

The trapezoid rows of the 64^2 pulsed grid are left out: one run takes
about two minutes. This directory sits outside the tier-1 ``testpaths``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdcsim import (
    DetectionAssignment,
    TransverseWavevector,
    default_config,
    integrate_quadrature,
    resolve,
    spatial_biphoton,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_trace import reference_quadrature, scan_momenta  # noqa: E402

EA = DetectionAssignment.E_AT_A
PULSED = {"spectral_mode": "gaussian", "spectral_fwhm_nm": 0.5}

# case -> (pump settings, grid points per axis, timed rounds, timed rows)
CASES = {
    "cw_32": ({}, 32, 5, ("quadrature", "depth")),
    "cw_64": ({}, 64, 5, ("quadrature", "depth")),
    "pulsed_8": (PULSED, 8, 3, ("quadrature", "depth")),
    "pulsed_64": (PULSED, 64, 5, ("depth",)),
}
ROWS = [(case, path) for case, (*_, paths) in CASES.items() for path in paths]


def _subgrid(q, stride):
    qx, qy = np.broadcast_arrays(q.qx, q.qy)
    return TransverseWavevector(qx=qx[::stride, ::stride], qy=qy[::stride, ::stride])


@pytest.mark.parametrize("case, path", ROWS, ids=[f"{c}-{p}" for c, p in ROWS])
def test_exact_sinc_trace(benchmark, case, path):
    pump, points, rounds, _ = CASES[case]
    config = default_config()
    config = replace(config, mode="exact_sinc", pump=replace(config.pump, **pump))
    system = resolve(config).system
    q_A, q_B = scan_momenta(system, "y", EA, points)
    benchmark.group = f"exact_sinc {case}"
    benchmark.extra_info["points"] = points * points
    if path == "quadrature":
        amplitude = benchmark.pedantic(
            integrate_quadrature, args=(q_A, q_B, system, EA), rounds=rounds, warmup_rounds=1,
        )
        expected, _, _ = reference_quadrature(q_A, q_B, system, EA)
        assert np.array_equal(amplitude, expected)
        return
    amplitude = benchmark.pedantic(
        spatial_biphoton, args=(q_A, q_B, system, EA), rounds=rounds, warmup_rounds=1
    )
    stride = points // 8
    trapezoid = integrate_quadrature(_subgrid(q_A, stride), _subgrid(q_B, stride), system, EA)
    depth = amplitude[::stride, ::stride]
    assert np.all(np.abs(depth - trapezoid) <= 1e-8 * np.abs(trapezoid))
