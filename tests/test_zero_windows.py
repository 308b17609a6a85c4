"""Circle means near the zeros of f, where |f|^p is not smooth on the circle.

The oracle is mpmath's tanh-sinh quadrature over one turn of the circle,
broken at the angles of the zeros near it, so each near singularity sits at
an end of a piece.  The series are small enough for np.roots, or carry a
planted zero a: f = (z - a) g with g's zeros far from the circles used.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergweight import TaylorSeries, bergman_norm, parse_series_spec, parse_weight_spec
from bergweight import norms, series
from bergweight.norms import DEFAULT_SETTINGS


def oracle_power_mean(coeffs, r, p, breaks, pieces=8):
    """(1 / 2 pi) int |f(r e^{it})|^p dt by mpmath, broken at ``breaks`` and
    into ``pieces`` equal arcs besides."""
    powers = np.nonzero(coeffs)[0]
    terms = np.asarray(coeffs)[powers]
    cache = {}

    def value(t):
        t = float(t)
        if t not in cache:
            cache[t] = abs(np.dot(terms, (r * cmath.exp(1j * t)) ** powers))
        return cache[t] ** p

    start = float(breaks[0])
    breaks = list(breaks) + [start + 2.0 * math.pi * k / pieces for k in range(1, pieces)]
    points = sorted({start, *(start + (float(b) - start) % (2.0 * math.pi) for b in breaks)})
    return float(mpmath.fp.quad(value, points + [start + 2.0 * math.pi])) / (2.0 * math.pi)


def near_zero_angles(zeros, r, width=0.1):
    # a difference of logs: |z| / r overflows when np.roots returns a huge root
    return [cmath.phase(z) for z in zeros if abs(math.log(abs(z)) - math.log(r)) < width]


def planted_series(degree, zero, seed, shrink=0.9):
    """(z - zero) g(z), g random with coefficients shrinking like shrink^k: its
    zeros lie near |z| = 1 / shrink, far from the circles near |zero|."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    g *= shrink ** np.arange(degree)
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[1:] += g
    coeffs[:-1] -= zero * g
    return coeffs


def lacunary_case():
    coeffs = parse_series_spec("lacunary:2,128").coeffs
    zeros = np.roots(coeffs[1:][::-1])  # f = z h(z), h of degree 127
    return coeffs, zeros, zeros[np.argmin(np.abs(zeros))]  # -0.6586, isolated


def random24_case():
    rng = np.random.default_rng(24)
    coeffs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    zeros = np.roots(coeffs[::-1])
    return coeffs, zeros, zeros[np.argmin(np.abs(zeros))]  # 0.8056, another at 0.8111


def planted_case(degree):
    zero = 0.7 * cmath.exp(1.1j)
    return planted_series(degree, zero, seed=degree), np.array([zero]), zero


CASES = {
    "lacunary:2,128": lacunary_case,
    "random:24": random24_case,
    "planted:256": lambda: planted_case(256),
    "planted:1024": lambda: planted_case(1024),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_means_near_a_zero_modulus_against_mpmath(name):
    coeffs, zeros, zero = CASES[name]()
    degree = len(coeffs) - 1
    radii = abs(zero) - np.array([1e-3, 1e-5, 1e-7, 0.0])
    for p in (0.5, 1.0, 3.0):
        got = norms._power_means(coeffs, radii, p, degree, DEFAULT_SETTINGS)
        for r, value in zip(radii, got):
            want = oracle_power_mean(coeffs, r, p, near_zero_angles(zeros, r))
            assert value == pytest.approx(want, rel=1e-10, abs=0.0), (r, p)


@pytest.mark.parametrize("coeffs", [[1.0, -1.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, -1.0j]])
def test_mean_with_a_zero_on_a_grid_point(coeffs):
    # 1 - z and z^3 (1 - i z^3) vanish at grid points of the unit circle, where
    # an FFT sample and a direct value of |f|^p hold only rounding
    f = TaylorSeries(coeffs)
    for p in (0.5, 1.0, 3.0):
        want = mpmath.quad(lambda t: abs(2 * mpmath.sin(t / 2)) ** p, [0, 2 * mpmath.pi])
        got = norms._power_means(f.coeffs, np.array([1.0]), p, f.degree, DEFAULT_SETTINGS)[0]
        assert got == pytest.approx(float(want / (2 * mpmath.pi)), rel=1e-10, abs=0.0)


def test_zeros_around_the_whole_circle_get_no_windows(monkeypatch):
    # z^63 - 0.9^63 + 1e-9 z has 63 zeros within 2e-8 of |z| = 0.9, one every
    # 4 steps of the 256-point base grid: windows would cover more than half
    # the circle, so the search builds none and the ladder alone resolves it
    coeffs = np.zeros(64, dtype=complex)
    coeffs[[0, 1, 63]] = -(0.9**63), 1e-9, 1.0
    zeros = np.roots(coeffs[::-1])
    assert np.max(np.abs(np.abs(zeros) - 0.9)) < 2e-8
    built, original = [], norms._ZeroWindows

    def spy(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(norms, "_ZeroWindows", spy)
    for p in (0.5, 1.0, 3.0):
        got = norms._power_means(coeffs, np.array([0.9]), p, 63, DEFAULT_SETTINGS)[0]
        want = oracle_power_mean(coeffs, 0.9, p, near_zero_angles(zeros, 0.9))
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), p
    assert len(built) == 3 and not any(len(windows) for windows in built)


def per_circle_windows(h, r, q, samples):
    """(lo, hi) of the windows one circle gets when it is searched alone,
    assembled one circle at a time as the windows were before they were
    built in arrays."""
    edge = norms.WINDOW_EDGE * 2.0 * np.pi / q
    band, reach = norms.ZERO_BAND * edge, norms.WINDOW_REACH * edge
    zeros = norms._near_zeros(h, np.array([r]), samples, q)
    near = np.abs(np.log(np.abs(zeros)) - math.log(r)) < band
    if not np.any(near):
        return [], []
    angles = np.sort(np.mod(np.angle(zeros[near]), 2.0 * np.pi))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    if np.sum(np.minimum(gaps, 4.0 * reach)) > np.pi:
        return [], []
    start = int(np.argmax(gaps)) + 1
    angles = np.concatenate([angles[start:], angles[:start] + 2.0 * np.pi])
    parts = np.diff(angles, prepend=-np.inf) > 4.0 * reach
    return (list(angles[parts] - 2.0 * reach),
            list(angles[np.append(parts[1:], True)] + 2.0 * reach))


def test_cluster_search_finds_the_per_circle_windows():
    # three planted zeros of modulus 0.7: two 2.5 grid steps apart, which share
    # a window, and one far round the circle; 15 circles within the band
    # around them fall in one or two quarter-step clusters
    degree, q, p = 256, DEFAULT_SETTINGS.q_for(256), 0.5
    step = 2.0 * np.pi / q
    planted = 0.7 * np.exp(1j * np.array([1.1, 1.1 + 2.5 * step, 3.0]))
    g = planted_series(degree - 3, 0.0, seed=256)[1:]
    h = np.convolve(np.poly(planted)[::-1], g)
    band = norms.ZERO_BAND * norms.WINDOW_EDGE * step
    radii = 0.7 * np.exp(band * np.linspace(-0.95, 0.95, 15))
    # the first pass keeps the samples in single precision
    [(_, values, rowmax, _, _)] = series._circle_batches(h, radii, q)
    values = values.astype(np.complex64)
    search = np.arange(radii.size)
    zeros = norms._near_zeros(h, radii, values, q)
    together = norms._ZeroWindows(h, radii, p, q, search, rowmax, zeros)
    assert len(together) == 2 * radii.size
    for i, r in enumerate(radii):
        lo, hi = per_circle_windows(h, r, q, values[i:i + 1])
        mine = together.owner == i
        np.testing.assert_allclose(together.lo[mine], lo, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(together.hi[mine], hi, rtol=0.0, atol=1e-12)
        zeros = norms._near_zeros(h, radii[i:i + 1], values[i:i + 1], q)
        alone = norms._ZeroWindows(h, radii, p, q, search[i:i + 1], rowmax[i:i + 1], zeros)
        assert together.integral[i] == pytest.approx(alone.integral[i], rel=1e-10, abs=0.0)


def test_window_erf_against_mpmath():
    # the windows' edges: within 4e-16 of erf on [-8, 8], through both of the
    # rational forms and their seam, and exactly +-1 from |x| = 6 on
    x = np.concatenate([np.linspace(-8.0, 8.0, 16001), [0.0, -0.0, 5e-324, -1e-300],
                        np.nextafter(norms._ERF_SMALL, [0.0, 1.0]),
                        np.nextafter(norms.ERF_ONE_FROM, [0.0, 1.0])])
    got = norms._erf(x)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.erf(mpmath.mpf(float(t)))) for t in x])
    assert np.max(np.abs(got - want)) <= 4e-16
    far = np.abs(x) >= norms.ERF_ONE_FROM
    assert np.count_nonzero(far) > 1000
    assert np.array_equal(got[far], np.sign(x[far]))
    assert norms._erf(np.array([-np.inf, np.inf])).tolist() == [-1.0, 1.0]


def test_window_is_its_two_erf_edges():
    # one erf per angle: the window equals (erf(u) - erf(v)) / 2, u and v the
    # offsets from its two edges, at angles across and beyond it, on a window
    # of two zeros and on one of a single zero
    degree, q = 256, DEFAULT_SETTINGS.q_for(256)
    step = 2.0 * np.pi / q
    planted = 0.7 * np.exp(1j * np.array([1.1, 1.1 + 2.5 * step, 3.0]))
    h = np.convolve(np.poly(planted)[::-1], planted_series(degree - 3, 0.0, seed=256)[1:])
    radii = np.array([0.7])
    [(_, values, rowmax, _, _)] = series._circle_batches(h, radii, q)
    zeros = norms._near_zeros(h, radii, values, q)
    windows = norms._ZeroWindows(h, radii, 0.5, q, np.arange(1), rowmax, zeros)
    assert len(windows) == 2
    k = np.repeat(np.arange(2), 2001)
    span = windows.hi - windows.lo
    theta = windows.lo[k] + span[k] * np.tile(np.linspace(-0.1, 1.1, 2001), 2)
    with mpmath.workdps(30):
        edge = mpmath.mpf(windows.edge)
        reach = norms.WINDOW_REACH * edge
        want = [float((mpmath.erf((t - lo - reach) / edge) - mpmath.erf((t - hi + reach) / edge)) / 2)
                for t, lo, hi in zip(map(mpmath.mpf, theta), windows.lo[k], windows.hi[k])]
    np.testing.assert_allclose(windows._phi(k, theta), want, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# properties of the means that hold whatever the windows do


def random_poly(data):
    degree = data.draw(st.integers(1, 64), label="degree")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_means_invariant_under_rotations(data):
    # e^{i phi} f(e^{i psi} z) has the same |f| on every circle, turned by psi,
    # so the windows fall elsewhere on the grid and must still give the same
    # means; a radius the first pass settles gets no windows and keeps the
    # ladder's 1e-9 (degree 5, seed 0, psi = 1, p = 3 moves r = 1 by 1.9e-10)
    coeffs = random_poly(data)
    phi, psi = data.draw(st.tuples(st.floats(0.0, 6.28), st.floats(0.0, 6.28)), label="angles")
    p = data.draw(st.sampled_from([0.5, 1.0, 3.0]), label="p")
    turned = coeffs * np.exp(1j * (phi + psi * np.arange(coeffs.size)))
    zeros = np.roots(coeffs[::-1])
    # circles through zeros and just off them, where the ladder needs windows
    moduli = np.abs(zeros)
    radii = np.unique(np.clip(np.concatenate([moduli, moduli * (1 - 1e-6)]), 0.05, 1.0))
    degree = coeffs.size - 1
    base = norms._power_means(coeffs, radii, p, degree, DEFAULT_SETTINGS)
    other = norms._power_means(turned, radii, p, degree, DEFAULT_SETTINGS)
    np.testing.assert_allclose(other, base, rtol=norms.CIRCLE_DOUBLING_TOL, atol=0.0)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_means_nondecreasing_in_r(data):
    coeffs = random_poly(data)
    p = data.draw(st.sampled_from([0.5, 1.0, 3.0]), label="p")
    zeros = np.abs(np.roots(coeffs[::-1]))
    radii = np.sort(np.clip(np.concatenate([zeros, zeros * (1 - 1e-7), zeros * (1 + 1e-7),
                                            np.linspace(0.0, 1.0, 9)]), 0.0, 1.0))
    means = norms._power_means(coeffs, radii, p, coeffs.size - 1, DEFAULT_SETTINGS)
    assert np.all(np.diff(means) >= -1e-12 * means[1:])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_coefficient_bracket_holds_around_the_mean(data):
    # |h_0|^p <= M_p^p(r) <= the Parseval mean^(p/2) (p <= 2) or
    # (sum |h_k| r^k)^p (p > 2); the two meet at r = 0
    coeffs = random_poly(data)
    p = data.draw(st.sampled_from([0.5, 1.0, 3.0]), label="p")
    r = data.draw(st.floats(0.0, 1.0), label="r")
    lower, upper = norms._bracket(coeffs, np.array([r]), p)
    angles = near_zero_angles(np.roots(coeffs[::-1]), r) if r > 0.0 else []
    want = oracle_power_mean(coeffs, r, p, [0.0] + angles)
    assert lower[0] * (1.0 - 1e-12) <= want <= upper[0] * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# the ladder stays clear of its cap where it used to reach it


@pytest.mark.parametrize("spec", ["lacunary:2,256", "random:1024"])
def test_norms_against_log_weight_stay_below_half_the_cap(spec, monkeypatch):
    if spec == "random:1024":
        rng = np.random.default_rng(7)
        f = TaylorSeries(rng.standard_normal(1025) + 1j * rng.standard_normal(1025))
    else:
        f = parse_series_spec(spec)
    sizes = []
    original = norms.circle_power_means

    def spy(coeffs, radii, p, q, **kwargs):
        sizes.append(q)
        return original(coeffs, radii, p, q, **kwargs)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    assert bergman_norm(f, parse_weight_spec("log:2"), 0.5) > 0.0
    assert sizes and max(sizes) < norms.CIRCLE_Q_CAP // 2
