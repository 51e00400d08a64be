"""The closed-form chi-square upper tail against scipy, and its edges."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from canonrep.stats import chi2_sf, chi_square_gof

GRID_DOFS = list(range(1, 60)) + [100, 255, 511, 1000, 4000]


def _grid(dof):
    """Statistics from near 0 far into the upper tail of chi-square(dof)."""
    top = dof + 20 * math.sqrt(2 * dof) + 80
    return np.unique(np.concatenate([
        np.linspace(1e-6, top, 250),
        np.geomspace(1e-8, top, 60),
    ]))


def test_chi2_sf_matches_scipy_on_grid():
    stats = pytest.importorskip("scipy.stats")
    checked = 0
    for dof in GRID_DOFS:
        for x in _grid(dof):
            ref = float(stats.chi2.sf(x, dof))
            if ref > 1e-12:
                assert chi2_sf(float(x), dof) == pytest.approx(ref, rel=1e-11, abs=0), (dof, x)
                checked += 1
    assert checked > 10_000


def test_chi2_sf_large_dof_is_accurate_and_quick():
    stats = pytest.importorskip("scipy.stats")
    for dof in (10**5, 10**6, 2 * 10**6, 2 * 10**6 + 1):
        sd = math.sqrt(2 * dof)
        for x in (dof / 2, dof - 3 * sd, float(dof), dof + 3 * sd, dof + 8 * sd):
            start = time.perf_counter()
            got = chi2_sf(x, dof)
            assert time.perf_counter() - start < 1.0
            assert got == pytest.approx(float(stats.chi2.sf(x, dof)), rel=1e-8, abs=0)


def test_chi2_sf_edges():
    for dof in (1, 2, 7, 4000):
        assert chi2_sf(0.0, dof) == 1.0
        assert chi2_sf(-3.0, dof) == 1.0
        assert chi2_sf(5e-324, dof) == 1.0  # x/2 rounds to 0
        assert chi2_sf(math.inf, dof) == 0.0
        assert chi2_sf(1e308, dof) == 0.0
        with pytest.raises(ValueError, match="nan"):
            chi2_sf(math.nan, dof)
    with pytest.raises(ValueError, match="dof"):
        chi2_sf(1.0, 0)


@pytest.mark.parametrize("x", [1e-9, 0.1, 1.0, 3.84, 7.5, 100.0, 1400.0])
def test_chi2_sf_dof_one_and_two_closed_forms(x):
    assert chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
    assert chi2_sf(x, 2) == math.exp(-x / 2)


def test_chi_square_gof_refuses_nan_counts():
    # pooling would otherwise merge every nan cell into one bucket and pass
    with pytest.raises(ValueError, match="finite"):
        chi_square_gof(np.array([10.0, math.nan, 10.0]), np.full(3, 1 / 3))


def test_cli_import_loads_no_scipy():
    code = ("import sys, canonrep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
