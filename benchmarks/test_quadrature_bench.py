"""Timing of the exact-sinc quadrature trace against its per-point reference.

Run from the repository root (about 25 s):

    python -m pytest benchmarks/test_quadrature_bench.py --benchmark-json BENCH_quadrature.json

Each case times one ``spatial_biphoton`` call over the detector-momentum
grid of an auto-window y scan of the default config in exact-sinc mode:
a CW pump at 32^2 and a 0.5 nm Gaussian-spectrum pump at 8^2. The
``reference`` rows time the per-point loop kept in ``tests/test_trace.py``
on the same grid, and the batched result must equal it bit for bit. This
directory sits outside the tier-1 ``testpaths``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdcsim import DetectionAssignment, default_config, resolve, spatial_biphoton

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_trace import reference_quadrature, scan_momenta  # noqa: E402

EA = DetectionAssignment.E_AT_A

# case -> (pump settings, grid points per axis, timed rounds)
CASES = {
    "cw_32": ({}, 32, 5),
    "pulsed_8": ({"spectral_mode": "gaussian", "spectral_fwhm_nm": 0.5}, 8, 3),
}


@pytest.mark.parametrize("path", ["batched", "reference"])
@pytest.mark.parametrize("case", list(CASES))
def test_exact_sinc_trace(benchmark, case, path):
    pump, points, rounds = CASES[case]
    config = default_config()
    config = replace(config, mode="exact_sinc", pump=replace(config.pump, **pump))
    system = resolve(config).system
    q_A, q_B = scan_momenta(system, "y", EA, points)
    benchmark.group = f"exact_sinc {case}"
    benchmark.extra_info["points"] = points * points
    if path == "reference":
        benchmark.pedantic(
            reference_quadrature, args=(q_A, q_B, system, EA), rounds=rounds, warmup_rounds=1
        )
        return
    amplitude = benchmark.pedantic(
        spatial_biphoton, args=(q_A, q_B, system, EA), rounds=rounds, warmup_rounds=1
    )
    expected, _, _ = reference_quadrature(q_A, q_B, system, EA)
    assert np.array_equal(amplitude, expected)
