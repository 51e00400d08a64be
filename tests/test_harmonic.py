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
from canonrep.embedding import BOUNDARY_EPS, _pull_inside
from canonrep.harmonic import TAU, DiskNode, compile_disk
from conftest import leaf, reference_extension, reference_measures, v1



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


# ---------------------------------------------------------------------------
# the array kernel against the scalar cmath formula, byte for byte

EULER_CAP = 1.0 - BOUNDARY_EPS


def _scalar_pull_inside(z: complex, cap: float) -> complex:
    r = abs(z)
    if r >= cap:
        z *= cap * (1.0 - 1e-12) / r
    return z


def _kernel_points(rng: np.random.Generator, node: DiskNode, count: int) -> np.ndarray:
    """``count`` random points of the disk, a quarter of them pulled inside
    the euler cap from outside it, after the zeros of either sign, points
    on both axes and points towards every cell end."""
    special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               0.5, -0.5, 0.5j, -0.5j, complex(0.3, -0.0), complex(-0.0, -0.7),
               complex(-0.9, 0.0), complex(0.0, 0.98)]
    special += [0.6 * cmath.exp(1j * a) for a in node.angles]
    r = 0.9999 * np.sqrt(rng.random(count))
    z = r * np.exp(1j * TAU * rng.random(count))
    outside = (EULER_CAP + 0.3 * rng.random(count // 4)) * np.exp(1j * TAU * rng.random(count // 4))
    z[:count // 4] = [_scalar_pull_inside(p, EULER_CAP) for p in outside.tolist()]
    return np.concatenate([np.array(special, dtype=complex), z])


def _kernel_nodes() -> list[DiskNode]:
    """One-cell nodes and random zero-mean nodes, in dimensions 1 and 2."""
    from canonrep import random_process

    nodes = [DiskNode(leaf((v1(0), F(1))), [None]),
             DiskNode(leaf(((F(0), F(0)), F(1))), [None])]
    for depth, branching, dimension, seed in [(1, 2, 1, 3), (1, 5, 1, 4), (2, 4, 2, 5), (1, 7, 2, 6)]:
        nodes.append(compile_disk(represent_mds(random_process(depth, branching, dimension, seed, mds=True))))
    return nodes


def _first_byte_difference(got: np.ndarray, ref: np.ndarray, z: np.ndarray):
    for point, a, b in zip(z.tolist(), got, ref):
        if a.tobytes() != b.tobytes():
            return point, a, b
    return None


def test_cap_scaling_matches_the_scalar_product():
    rng = np.random.default_rng(41)
    z = 1.3 * np.sqrt(rng.random(4000)) * np.exp(1j * TAU * rng.random(4000))
    z[:6] = [complex(EULER_CAP, 0.0), complex(-0.0, -EULER_CAP), complex(-1.2, -0.0),
             complex(0.0, 1.1), 0j, complex(0.8, -0.8)]
    ref = np.array([_scalar_pull_inside(p, EULER_CAP) for p in z.tolist()])
    got = _pull_inside(z.copy(), EULER_CAP)
    assert got.tobytes() == ref.tobytes()
    assert np.count_nonzero(got != z) > 1000  # the far points moved


def test_extension_matches_the_scalar_formula_bytes():
    rng = np.random.default_rng(29)
    nodes = _kernel_nodes()
    assert {node.values.shape[1] for node in nodes} == {1, 2}
    total = 0
    for node in nodes:
        z = _kernel_points(rng, node, 2000)
        got = harmonic_extension(node, z, 1e-6)
        ref = np.array([reference_extension(node, p) for p in z.tolist()])
        assert got.shape == ref.shape == (z.size, node.values.shape[1])
        assert got.tobytes() == ref.tobytes(), _first_byte_difference(got, ref, z)
        # one point gives one row, with the same bytes
        for p in z[:20].tolist():
            assert harmonic_extension(node, p, 1e-6).tobytes() == reference_extension(node, p).tobytes()
        total += z.size
    assert total >= 10**4


def test_one_cell_node_extends_to_its_value():
    node = DiskNode(leaf(((F(3), F(-1, 2)), F(1))), [None])
    z = np.array([0j, complex(-0.0, -0.0), 0.4 - 0.7j, EULER_CAP * (1.0 - 1e-12)])
    assert harmonic_extension(node, z).tolist() == [[3.0, -0.5]] * 4


def test_measure_matches_the_scalar_formula_bytes():
    rng = np.random.default_rng(31)
    z = _kernel_points(rng, DiskNode(leaf((v1(0), F(1))), [None]), 1000)
    for _ in range(10):
        lo = TAU * (rng.random() - 0.5)
        for hi in (lo, lo + TAU * rng.random(), lo + TAU):
            got = harmonic_measure(z, (lo, hi))
            ref = np.array([reference_measures(p, (lo, hi))[0] for p in z.tolist()])
            assert got.tobytes() == ref.tobytes(), _first_byte_difference(got, ref, z)
            assert harmonic_measure(complex(z[-1]), (lo, hi)) == ref[-1]


def test_batch_with_one_point_too_close_is_refused(fair_coin):
    node = compile_disk(represent_mds(fair_coin))
    z = np.array([0j, 0.5, 0.3j, -0.9999999 + 0j, 0.2 - 0.1j])
    with pytest.raises(TooCloseToBoundary):
        harmonic_extension(node, z)
    with pytest.raises(TooCloseToBoundary):
        harmonic_measure(z, (0.0, 1.0))
    with pytest.raises(TooCloseToBoundary):
        harmonic_extension(node, z[:3], boundary_eps=0.6)
    assert harmonic_extension(node, z[:3], boundary_eps=0.4).shape == (3, 1)


def test_points_must_form_at_most_one_axis(fair_coin):
    node = compile_disk(represent_mds(fair_coin))
    with pytest.raises(ValueError):
        harmonic_extension(node, np.zeros((2, 2)))
