import cmath
import math
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from scipy import integrate

from canonrep import (
    TooCloseToBoundary,
    harmonic_extension,
    harmonic_measure,
    represent_mds,
)
from canonrep.harmonic import TAU, DiskNode, compile_disk
from conftest import leaf, v1



def poisson_quadrature(z: complex, lo: float, hi: float) -> float:
    """Independent oracle: adaptive quadrature of the Poisson kernel."""
    r = abs(z)
    phi = math.atan2(z.imag, z.real)

    def kernel(theta):
        return (1 - r * r) / (
            2 * math.pi * (1 - 2 * r * math.cos(theta - phi) + r * r)
        )

    # split at the kernel's peak when it falls inside the arc
    points = []
    for k in (-1, 0, 1):
        peak = phi + k * TAU
        if lo < peak < hi:
            points.append(peak)
    val, _err = integrate.quad(
        kernel, lo, hi, limit=400, points=points or None, epsabs=1e-13
    )
    return val


# ---------------------------------------------------------------------------
# arc functions

def test_arc_function_fair_coin(fair_coin):
    node = compile_disk(represent_mds(fair_coin))
    assert len(node.values) == 2
    assert node.angles[0] == 0.0
    assert node.angles[1] == pytest.approx(math.pi)
    assert node.values[0][0] == -1.0
    assert node.angles[2] == pytest.approx(TAU)


def test_arc_function_skew(skew_mds):
    node = compile_disk(represent_mds(skew_mds))
    assert node.values[0][0] == -2.0
    assert node.angles[1] == pytest.approx(TAU / 3)


def test_arc_mean_zero_over_circle():
    rng = Random(3)
    from canonrep import random_process

    for _ in range(5):
        p = random_process(2, 4, 2, seed=rng.randrange(10**9), mds=True)
        rep = represent_mds(p)
        node = compile_disk(rep)
        mean = sum(((hi - lo) / TAU) * value
                   for lo, hi, value in zip(node.angles, node.angles[1:], node.values))
        assert np.max(np.abs(mean)) < 1e-12


# ---------------------------------------------------------------------------
# harmonic measure

def test_measure_from_center_exact():
    assert harmonic_measure(0, (0.0, math.pi)) == 0.5
    assert harmonic_measure(0, (0.0, TAU)) == 1.0
    assert harmonic_measure(0, (0.3, 0.3)) == 0.0


def test_measure_against_quadrature_spot():
    om = harmonic_measure(0.5, (-math.pi / 2, math.pi / 2))
    oq = poisson_quadrature(0.5 + 0j, -math.pi / 2, math.pi / 2)
    assert abs(om - oq) < 1e-10


def test_measure_against_quadrature_random():
    rng = Random(12)
    for _ in range(200):
        r = 0.98 * rng.random()
        phi = TAU * rng.random()
        z = r * cmath.exp(1j * phi)
        lo = TAU * (rng.random() - 0.5)
        hi = lo + TAU * rng.random()
        hi = min(hi, lo + TAU)
        om = harmonic_measure(z, (lo, hi))
        oq = poisson_quadrature(z, lo, hi)
        assert abs(om - oq) < 1e-10, (z, lo, hi)


def test_measure_additivity():
    rng = Random(5)
    for _ in range(100):
        z = 0.95 * rng.random() * cmath.exp(1j * TAU * rng.random())
        n_arcs = rng.randint(2, 64)
        cuts = sorted(TAU * rng.random() for _ in range(n_arcs - 1))
        edges = [0.0] + cuts + [TAU]
        total = sum(
            harmonic_measure(z, (a, b)) for a, b in zip(edges[:-1], edges[1:])
        )
        assert abs(total - 1.0) < 1e-12


def test_measure_boundary_guard():
    with pytest.raises(TooCloseToBoundary):
        harmonic_measure(0.9999999, (0.0, 1.0))


# ---------------------------------------------------------------------------
# harmonic extension

def test_extension_zero_at_center_for_mds(skew_mds):
    node = compile_disk(represent_mds(skew_mds))
    assert abs(harmonic_extension(node, 0)[0]) < 1e-12


def test_extension_constant_boundary():
    # two arcs, [0, 2*pi/3) and [2*pi/3, 2*pi), both carrying 3.5
    node = DiskNode(leaf((v1(F(7, 2)), F(1, 3)), (v1(F(7, 2)), F(2, 3))), [None, None])
    assert node.angles == pytest.approx((0.0, TAU / 3, TAU))
    rng = Random(8)
    for _ in range(20):
        z = 0.9 * rng.random() * cmath.exp(1j * TAU * rng.random())
        assert harmonic_extension(node, z)[0] == pytest.approx(3.5, abs=1e-12)


def test_extension_fair_coin_combination(fair_coin):
    node = compile_disk(represent_mds(fair_coin))
    z = 0.5
    omega_low = poisson_quadrature(0.5 + 0j, 0.0, math.pi)
    expect = -1.0 * omega_low + 1.0 * (1 - omega_low)
    assert harmonic_extension(node, z)[0] == pytest.approx(expect, abs=1e-10)
