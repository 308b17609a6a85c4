"""Integral means on circles, Hardy norms of polynomials, and weighted norms.

Every circle mean first factors f = z^a h(z^g) (a the first nonzero index,
g the gcd of the support's gaps); M_p^p(r, f) = r^(ap) M_p^p(r^g, h) is
exact, so only h is sampled, on grids sized by its degree: a monomial is one
coefficient.  At p = 2 the circle integral is Parseval's sum
M_2^2(r) = sum |c_n|^2 r^(2n), taken from the coefficients without
sampling.  Otherwise it is a trapezoid sum over roots-of-unity samples,
doubling the sample count until the value settles and computing only the
new samples of each doubled grid.  For even integer p, |f|^p is a
trigonometric polynomial and the trapezoid rule is exact once the sample
count beats its bandwidth, so even p start on such a grid and settle at the
first check.

At other exponents |f|^p is analytic on the circle |z| = r only away
from f's zeros, and the trapezoid rule's error decays like e^(-q d), d the
log distance from the circle to the nearest zero (Trefethen and Weideman,
SIAM Review 56 (2014)).  So after the first pass the zeros of h near each
unsettled circle are located (Newton steps from the dips of |h| on the
grid), and each gets a window phi, a few grid steps wide with erf edges:
|h|^p = (1 - sum phi) |h|^p + sum phi |h|^p.  The first part keeps the FFT
trapezoid and its doubling, which no longer sees the zeros; each window's
part is integrated by Gauss panels graded toward its zeros, with h
evaluated directly.  Radii without a near zero keep the plain doubling.

Radial integrals ride on the weight's own quadrature rule, which carries
its unresolved boundary mass as an atom at r = 1 so that polynomials (whose
integral means extend continuously to the boundary) are integrated without
truncation bias; the r = 1 circle is sampled to the same mass-weighted
budget as the nodes.

For 0 < p < 1 the same formulas define quasi-norms; nothing here relies on
a triangle inequality, so the full exponent range is handled uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, gammaln

from .errors import DomainError, QuadratureError
from .series import (
    _abs_power,
    _circle_batches,
    circle_power_means,
    flushed,
    horner,
    parseval_means,
)
from .weights import dcheck_margin
from .quadrature import cell_nodes
from . import cesaro

CIRCLE_DOUBLING_TOL = 1e-9
CIRCLE_Q_CAP = 1 << 20
#: Gauss order of the radial rules behind the Bergman and block-sum integrals.
GL_ORDER = 8
#: erf width e of a zero window's edges, in steps 2 pi / q of the base grid;
#: on a grid of Q points the trapezoid rule misses about e^(-(Q e)^2 / 4) of
#: what a window holds, a ratio of 1e-17 from Q = 16 q on
WINDOW_EDGE = 1.0 / 8.0
#: a window stays within erfc(6) / 2 ~ 1e-17 of 1 out to this many edge widths
#: past its outermost zeros, and ends as many edge widths further out
WINDOW_REACH = 6.0
#: zeros whose log modulus lies within this many edge widths of a radius get a
#: window; the ladder resolves farther ones as it did before windows
ZERO_BAND = 0.5
#: Gauss panels toward each zero widen by this ratio, from the zero's depth
#: (at least 1e-15) up to 4 edge widths
PANEL_RATIO = 4.0
PANEL_ORDER = 16
#: terms of the Taylor expansions that evaluate h inside the windows
TAYLOR_TERMS = 24


@dataclass(frozen=True)
class NormSettings:
    """Circle-sampling profile: ``_power_means`` starts h on ``q_for(deg h)``
    points, and at even p on ``q_for(p deg h / 4)`` where that is at most
    CIRCLE_Q_CAP.

    Every norm passes DEFAULT_SETTINGS; the argument stays because
    ``bench/tracing.py`` reads the base grid from it.
    """

    q_oversample: int = 4

    def __post_init__(self):
        if self.q_oversample < 4:
            raise DomainError(f"q_oversample must be >= 4, got {self.q_oversample}")

    def q_for(self, degree):
        """Smallest power of two >= q_oversample * (degree + 1)."""
        target = self.q_oversample * (max(degree, 0) + 1)
        return 1 << max(0, math.ceil(math.log2(target)))


DEFAULT_SETTINGS = NormSettings()


def _taylor(h, centers):
    """Taylor coefficients of h about each center c, scaled to deg h = n:
    h(c (1 + w)) = sum_j b_j (n w)^j, j < TAYLOR_TERMS, as (j, center) rows.

    b_j = n^-j sum_k C(k, j) h_k c^k.  Within |n w| <= 1 the dropped terms
    are below (n + 1) max_k |h_k c^k| / TAYLOR_TERMS!, so a point costs
    TAYLOR_TERMS steps instead of n.
    """
    n = h.size - 1
    j = np.arange(TAYLOR_TERMS)
    powers = np.arange(n + 1)[:, None]
    with np.errstate(divide="ignore"):
        binom = np.where(powers >= j, np.exp(
            gammaln(powers + 1.0) - gammaln(j + 1.0)
            - gammaln(np.maximum(powers - j, 0) + 1.0) - j * math.log(n)), 0.0)
    out = np.empty((TAYLOR_TERMS, centers.size), dtype=complex)
    # at most 512 rows a block: larger products wake BLAS threads, which
    # cost about 7 ms of CPU a product on the 2-core machine measured
    chunk = max(1, min(512, (1 << 18) // (n + 1)))
    for start in range(0, centers.size, chunk):
        part = slice(start, start + chunk)
        turns = np.empty((centers[part].size, n + 1), dtype=complex)
        turns[:, 0] = 1.0
        turns[:, 1:] = centers[part, None]
        np.cumprod(turns, axis=1, out=turns)
        turns *= h
        # two real products: a complex one has a large fixed cost here
        out[:, part] = (turns.real @ binom + 1j * (turns.imag @ binom)).T
    return out


def _near_zeros(h, rho, q, band):
    """Zeros of h within ``band`` (in log modulus) of some circle of radius
    ``rho``, and the circles' row maxima and dead mask as
    ``_normalised_powers`` gives them.

    At each local minimum of |h| over a circle's size-q grid, the quartic in
    the angle through h at the minimum and two neighbours on each side has a
    root t near the angle of the zero behind the dip, with Im t the zero's
    log distance from the circle; Newton steps on the quartic, started from
    the root of its quadratic part, find it.  Dead circles have no dips.
    The roots that may lie in the band, merged when nearby circles give the
    same one, are polished by Newton steps on h's Taylor expansion about
    them.  Zeros the search misses are left to the doubling ladder.
    """
    step = 2.0 * np.pi / q
    starts = []
    rowmax, dead = np.ones(rho.size), np.zeros(rho.size, dtype=bool)
    for rows, values, batch_max, batch_dead, scratch in _circle_batches(h, rho, q):
        rowmax[rows], dead[rows] = batch_max, batch_dead
        mag = np.abs(values, out=scratch)
        row, j = np.nonzero((mag <= np.roll(mag, 1, axis=1))
                            & (mag < np.roll(mag, -1, axis=1)) & ~batch_dead[:, None])
        f = [values[row, (j + k) % q] for k in (-2, -1, 0, 1, 2)]
        # the quartic a0 + a1 t + ... + a4 t^4 through t = -2..2
        a0 = f[2]
        a1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / 12.0
        a2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / 24.0
        a3 = (-f[0] + 2.0 * f[1] - 2.0 * f[3] + f[4]) / 12.0
        a4 = (f[0] - 4.0 * f[1] + 6.0 * f[2] - 4.0 * f[3] + f[4]) / 24.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # the root of a0 + a1 t + a2 t^2 nearer 0, without cancellation
            disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
            disc = np.where((np.conj(a1) * disc).real < 0.0, -disc, disc)
            t = -2.0 * a0 / (a1 + disc)
            for _ in range(4):
                t = t - (a0 + t * (a1 + t * (a2 + t * (a3 + t * a4)))) / (
                    a1 + t * (2.0 * a2 + t * (3.0 * a3 + t * 4.0 * a4)))
        # the dips overstate depths by up to a quarter step
        keep = (np.isfinite(t) & (np.abs(t) < 2.0)
                & (step * np.abs(t.imag) < band + 0.3 * step))
        starts.append(rho[rows][row[keep]] * np.exp(1j * step * (j[keep] + t[keep])))
    # starts from nearby circles fall in the same quarter-step cell
    cell = 0.25 * step
    z = np.exp(np.unique(np.round(np.log(np.concatenate(starts)) / cell)) * cell)
    if not z.size:
        return z, rowmax, dead
    taylor, v = _taylor(h, z), np.zeros(z.size, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(12):
            value, slope = taylor[-1], np.zeros_like(v)
            for b in taylor[-2::-1]:
                slope = slope * v + value
                value = value * v + b
            move = value / slope
            v = v - move
        # a root of the expansion is one of h where the expansion holds, |n w| <= 1
        found = (np.isfinite(v) & (np.abs(v) <= 1.0)
                 & (np.abs(move) <= 1e-12 * np.abs(h.size - 1 + v)))
    z = z[found] * (1.0 + v[found] / (h.size - 1))
    _, first = np.unique(np.round(np.log(z) * 1e10), return_index=True)
    return z[first], rowmax, dead


class _ZeroWindows:
    """Windows phi around the zeros of h near the circles the ladder has not
    settled, and the integrals of phi |h|^p over them.

    M_p^p(r) = mean (1 - sum phi) |h|^p + sum mean phi |h|^p.  The first part
    has no near zero left: the FFT trapezoid and its ladder keep it, with the
    window samples masked out.  Each window's part is integrated by Gauss
    panels graded toward its zeros, with h evaluated directly.  Windows are
    erf steps of width WINDOW_EDGE steps of the base grid;
    zeros whose windows would overlap share one.  Means are in units of
    rowmax^p, as ``circle_power_means`` computes them before scaling.
    """

    def __init__(self, h, rho, p, q, search):
        """Windows for the circles ``rho[search]``; q is the base grid."""
        self.h, self.rho, self.p = h, rho, p
        self.rowmax = np.ones(rho.size)
        self.integral = np.zeros(rho.size)
        self.edge = WINDOW_EDGE * 2.0 * np.pi / q
        band, reach = ZERO_BAND * self.edge, WINDOW_REACH * self.edge
        zeros, self.rowmax[search], dead = _near_zeros(h, rho[search], q, band)
        search = search[~dead]
        depth = np.abs(np.log(np.abs(zeros))[None, :] - np.log(rho[search])[:, None])
        near = depth < band
        owner, lo, hi, zero_of, angle_of, depth_of = [], [], [], [], [], []
        for i in np.nonzero(np.any(near, axis=1))[0]:
            angles = np.mod(np.angle(zeros[near[i]]), 2.0 * np.pi)
            order = np.argsort(angles)
            angles, depths = angles[order], depth[i, near[i]][order]
            gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
            if np.sum(np.minimum(gaps, 4.0 * reach)) > np.pi:
                continue  # windows would cover half the circle: the ladder is cheaper
            # open the circle at its widest gap, then cut it wherever windows part
            start = int(np.argmax(gaps)) + 1
            angles = np.concatenate([angles[start:], angles[:start] + 2.0 * np.pi])
            depths = np.concatenate([depths[start:], depths[:start]])
            parts = np.diff(angles, prepend=-np.inf) > 4.0 * reach
            zero_of.append(len(owner) + np.cumsum(parts) - 1)
            owner += [search[i]] * int(np.sum(parts))
            lo.append(angles[parts] - 2.0 * reach)
            hi.append(angles[np.append(parts[1:], True)] + 2.0 * reach)
            angle_of.append(angles)
            depth_of.append(depths)
        self.owner = np.array(owner, dtype=int)
        if not owner:
            return
        self.lo, self.hi = np.concatenate(lo), np.concatenate(hi)
        self.scale = np.zeros(rho.size)
        self.scale[self.owner] = self.rowmax[self.owner] ** p
        # a series with fewer terms than an expansion is evaluated as it is
        self.taylor = self._expand() if np.count_nonzero(h) > TAYLOR_TERMS else None
        self.integral = self._integrals(np.concatenate(zero_of), np.concatenate(angle_of),
                                        np.concatenate(depth_of))

    def __len__(self):
        return self.owner.size

    def _phi(self, k, theta):
        """Windows k at the angles theta."""
        reach = WINDOW_REACH * self.edge
        return 0.5 * (erf((theta - self.lo[k] - reach) / self.edge)
                      - erf((theta - self.hi[k] + reach) / self.edge))

    def _expand(self):
        """``_taylor`` of h / rowmax about centers 2 / n apart along each
        window (n = deg h), so every window point has |nt| <= 1 about one."""
        n = self.h.size - 1
        self.spacing = 2.0 / n
        counts = np.ceil((self.hi - self.lo) / self.spacing).astype(int)
        self.first_center = np.cumsum(counts) - counts
        k = np.repeat(np.arange(len(self)), counts)
        angle = self.lo[k] + (np.arange(k.size) - self.first_center[k] + 0.5) * self.spacing
        r = self.owner[k]
        return _taylor(self.h, self.rho[r] * np.exp(1j * angle)) / self.rowmax[r]

    def _values(self, k, theta):
        """h / rowmax at the angles theta of windows k."""
        r = self.owner[k]
        if self.taylor is None:
            return horner(self.h, self.rho[r] * np.exp(1j * theta)) / self.rowmax[r]
        last = np.ceil((self.hi[k] - self.lo[k]) / self.spacing).astype(int) - 1
        m = np.clip(((theta - self.lo[k]) / self.spacing).astype(int), 0, last)
        t = theta - self.lo[k] - (m + 0.5) * self.spacing
        # w = e^{it} - 1 without cancellation, in units of 1 / n
        v = (-2.0 * np.sin(0.5 * t) ** 2 + 1j * np.sin(t)) * (self.h.size - 1)
        center = self.first_center[k] + m
        out = self.taylor[-1][center]
        for b in self.taylor[-2::-1]:
            out *= v
            out += b[center]
        return out

    def _integrals(self, zero_of, angles, depths):
        """Per radius, the sum of its windows' (1 / 2 pi) int phi |h / rowmax|^p.

        Panels are at most 4 edge widths long, which order-16 Gauss resolves
        on the erf steps, and are graded by PANEL_RATIO toward each zero from
        4 edge widths down to the zero's depth: each panel then sees the
        zero at least as far off as its own width.
        """
        width = 4.0 * self.edge
        parts = np.ceil((self.hi - self.lo) / width).astype(int)
        k = np.repeat(np.arange(len(self)), parts + 1)
        m = np.arange(k.size) - np.repeat(np.cumsum(parts + 1) - parts - 1, parts + 1)
        cuts = self.lo[k] + (self.hi[k] - self.lo[k]) * m / parts[k]
        inner = np.maximum(depths, 1e-15)
        levels = np.ceil(np.log(width / inner) / np.log(PANEL_RATIO)).astype(int)
        zk = np.repeat(np.arange(angles.size), levels)
        offsets = inner[zk] * PANEL_RATIO ** (np.arange(zk.size)
                                              - np.repeat(np.cumsum(levels) - levels, levels))
        k = np.concatenate([k, zero_of[zk], zero_of[zk]])
        cuts = np.concatenate([cuts, angles[zk] - offsets, angles[zk] + offsets])
        order = np.lexsort((cuts, k))
        k, cuts = k[order], cuts[order]
        panel = (k[1:] == k[:-1]) & (cuts[1:] > cuts[:-1])
        theta, weights = cell_nodes(cuts[:-1][panel], cuts[1:][panel], PANEL_ORDER)
        k, theta = np.repeat(k[:-1][panel], PANEL_ORDER), theta.ravel()
        terms = weights.ravel() * self._phi(k, theta) * _abs_power(self._values(k, theta), self.p)
        return np.bincount(self.owner[k], weights=terms, minlength=self.rho.size) / (2.0 * np.pi)

    def mask(self, q, rows, half_step=False):
        """The windows of the circles ``rows`` on the size-q grid (or on its
        half-step turn) as a ``circle_power_means`` mask, row i of the mask
        being circle rows[i]."""
        shift = 0.5 if half_step else 0.0
        step = 2.0 * np.pi / q
        windows = np.nonzero(np.isin(self.owner, rows))[0]
        first = np.ceil(self.lo[windows] / step - shift).astype(int)
        count = np.floor(self.hi[windows] / step - shift).astype(int) - first + 1
        k = np.repeat(windows, count)
        j = np.arange(k.size) - np.repeat(np.cumsum(count) - count - first, count)
        position = np.zeros(self.rho.size, dtype=int)
        position[rows] = np.arange(rows.size)
        row = position[self.owner[k]]
        order = np.argsort(row, kind="stable")
        return row[order], (j % q)[order], self._phi(k, (j + shift) * step)[order]


def _check_representable(values, radii, p):
    """Refuse means that overflowed: max |f|^p past the double range."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise DomainError(
            f"M_p^p at p = {p!r} overflows double precision on the circle of radius "
            f"{float(radii[bad][0])!r}; max |f|^p is beyond 1.8e308"
        )


def _power_means(coeffs, radii, p, degree, settings, masses=None):
    """M_p^p at each radius.

    Every path samples h of f = z^a h(z^g) at radii r^g and lifts the means
    by r^(ap): phi = g theta makes h's size-q grid (or its half-step turn)
    f's size-gq grid (or its turn).  The stopping rule and budgets judge the
    lifted means, and a radius flushes to 0 by f's row maximum
    r^a max_k |h_k| r^(gk), as it would unreduced.

    p = 2 is Parseval's sum over the coefficients.  Other exponents double
    the sample count until the value settles.  The first check compares the
    mean over the q samples with the mean over their even-indexed half,
    which is the q/2 grid; each doubling q -> 2q samples only the q new odd
    points and averages them in, so no sample is computed twice.  Other even
    p start, where it fits under the cap, on a grid whose half beats the
    bandwidth (p/2) deg h of |h|^p: both means are then exact and the first
    check settles every radius.  Radii the first check leaves unsettled
    get a ``_ZeroWindows``: their means become the masked trapezoid means
    plus the window integrals, and a radius cannot settle while what the
    grid may still miss of its windows exceeds 1e-2 of its budget.
    Unsettled radii keep doubling up to the cap.  ``masses`` (same shape as
    ``radii``), the quadrature mass each radius carries, adds a per-radius
    absolute budget of 1e-11 of the mass-weighted total over that mass on
    top of the relative rule, letting a radial quadrature spend samples
    where its weights actually look.
    """
    coeffs = np.asarray(coeffs, dtype=complex)[: degree + 1]
    support = np.nonzero(coeffs)[0]
    a = int(support[0])
    g = max(1, int(np.gcd.reduce(support - a)))
    coeffs, degree = coeffs[a::g], (degree - a) // g
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    lead, radii = radii**a, radii**g
    lift = np.where(flushed(coeffs, radii, lead), 0.0, lead**p)
    if p == 2.0:
        return lift * parseval_means(coeffs, radii)
    q = settings.q_for(degree)
    if p % 2 == 0:
        # |h|^p has bandwidth (p/2) deg h, below half of this grid: both means
        # of the first check are exact trapezoid sums (min keeps huge p finite)
        exact_q = settings.q_for(min(0.25 * p * degree, CIRCLE_Q_CAP))
        q = exact_q if exact_q <= CIRCLE_Q_CAP else q
    values, coarse = circle_power_means(coeffs, radii, p, q, even=True)
    values, coarse = lift * values, lift * coarse
    _check_representable(values, radii ** (1.0 / g), p)
    # means this far below the batch maximum cannot move the norm, and their
    # circle values sit in denormal territory where relative error is noise
    floor = max(1e-250, 1e-120 * float(np.max(values)))
    if masses is None:
        abs_tols = np.zeros(radii.size)
    else:
        abs_tols = 1e-11 * float(np.dot(masses, values)) / np.maximum(masses, 1e-300)

    def budget(vals, idx):
        return np.maximum(
            CIRCLE_DOUBLING_TOL * np.maximum(np.abs(vals), floor), abs_tols[idx]
        )

    all_idx = np.arange(radii.size)
    active = all_idx[np.abs(values - coarse) > budget(values, all_idx)]
    windows = _ZeroWindows(coeffs, radii, p, q, active) if active.size and degree else None
    if windows:
        # the masked pass, not direct values, takes the window samples out: near
        # a zero both hold only rounding, which |h|^p for p < 1 magnifies
        held = np.unique(windows.owner)
        values[held] = lift[held] * (
            circle_power_means(coeffs, radii[held], p, q, mask=windows.mask(q, held))
            + windows.scale[held] * windows.integral[held])
        content = lift * windows.scale * windows.integral
    while q < CIRCLE_Q_CAP and active.size:
        mask = windows.mask(q, active, half_step=True) if windows else None
        odd = lift[active] * circle_power_means(coeffs, radii[active], p, q, half_step=True,
                                                mask=mask)
        if windows:
            odd += lift[active] * windows.scale[active] * windows.integral[active]
        q *= 2
        previous = values[active]
        refined = 0.5 * (previous + odd)
        settled = np.abs(refined - previous) <= budget(refined, active)
        if windows:
            # a small step proves nothing while the grid leaves the windows'
            # erf edges unresolved: the trapezoid rule misses up to about
            # e^(-(q e)^2 / 4) of what they hold
            unresolved = content[active] * math.exp(-0.25 * (q * windows.edge) ** 2)
            settled &= unresolved <= 1e-2 * budget(refined, active)
        values[active] = refined
        active = active[~settled]
    return values


def _radial_rule(w, x_scale):
    """The order-GL_ORDER rule of ``w`` for ``x_scale``; raises when all of its
    mass sits below the normal double range, where the rule weights have
    flushed to zero or to subnormals that keep only a few digits."""
    rule = w.radial_rule(x_scale, order=GL_ORDER)
    tiny = np.finfo(float).tiny
    if rule.boundary_mass < tiny and not np.any(rule.weights >= tiny):
        raise QuadratureError(
            f"the radial rule of {w.label} underflows double precision (log tail(0) = "
            f"{w.log_tail(0.0):.1f}); rescale the weight with scaled() first",
            residual=float(np.max(rule.weights, initial=0.0)),
        )
    return rule


def integral_mean(f, r, p):
    """The L^p average of |f| on the circle of radius r."""
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"radius must lie in [0, 1], got {r!r}")
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if f.is_zero:
        return 0.0
    # M_p(r, z^a h) = r^a M_p(r, h), r^a applied after the root so a mean whose
    # p-th power underflows stays representable; f's row maximum decides the flush
    a = int(f.support()[0])
    h, radius, lead = f.coeffs[a:], np.array([r]), np.array([r**a])
    if flushed(h, radius, lead)[0]:
        return 0.0
    return lead[0] * _power_means(h, radius, p, f.degree - a, DEFAULT_SETTINGS)[0] ** (1.0 / p)


def hardy_norm(f, p):
    """Hardy norm of a polynomial: the integral mean at r = 1, where the
    nondecreasing means attain their supremum."""
    return integral_mean(f, 1.0, p)


def bergman_norm(f, w, p):
    """Weighted Bergman norm (2 int r M_p^p(r, f) w(r) dr)^(1/p)."""
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if f.is_zero:
        return 0.0
    degree = f.degree
    rule = _radial_rule(w, p * degree + 2.0)
    # the boundary atom is one more radius, r = 1, weighted by the mass the
    # rule left unresolved; nodes carrying little mass get a looser budget
    radii = np.append(rule.nodes, 1.0)
    masses = np.append(rule.weights * rule.nodes, rule.boundary_mass)
    mpp = _power_means(f.coeffs, radii, p, degree, DEFAULT_SETTINGS, masses=masses)
    total = 2.0 * float(np.dot(masses, mpp))
    if not math.isfinite(total):
        raise DomainError(f"the Bergman integral of |f|^p at p = {p!r} overflows double precision")
    return total ** (1.0 / p)


def block_norm(f, eta, k, p, check=True):
    """Block norm (sum_n eta_{k^n} ||V_{n,k} * f||_{H^p}^p)^(1/p).

    The truncation covers every block that meets deg f; higher blocks vanish
    on polynomials.  ``check`` screens eta for the lower-doubling condition
    at this k (the regime where the block norm is equivalent to the Bergman
    norm); pass check=False to compute it regardless.
    """
    if int(k) != k or k < 2:
        raise DomainError(f"block parameter k must be an integer >= 2, got {k!r}")
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if check:
        verdict, _ = dcheck_margin(eta, int(k))
        if verdict == "out":
            raise DomainError(
                f"weight {eta.label} fails the lower-doubling screen for k={k}; "
                "pass check=False to compute the block norm anyway"
            )
    if f.is_zero:
        return 0.0
    basis = _basis_for(int(k), f.degree)
    total = 0.0
    for n in range(basis.top_index + 1):
        piece = cesaro.block(f, basis, n)
        if piece.is_zero:
            continue
        hn = hardy_norm(piece, p)
        total += eta.moment(float(k) ** n) * hn**p
    return total ** (1.0 / p)


_BASIS_CACHE = {}


def _basis_for(k, degree):
    n_top = max(degree, 1)
    bucket = 1 << max(0, math.ceil(math.log2(n_top)))
    key = (k, bucket)
    try:
        return _BASIS_CACHE[key]
    except KeyError:
        basis = cesaro.build_basis(k, bucket)
        _BASIS_CACHE[key] = basis
        return basis


def block_sum_compare(a, eta, k, p):
    """Both sides of the nonnegative-series block comparison.

    Returns (lhs, rhs) with lhs = int_0^1 (sum a_j s^j)^p eta(s) ds and
    rhs = sum_n eta_{k^n} t_n^p, where t_0 sums a_j below k and t_n sums the
    band k^n <= j < k^(n+1).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("coefficients must form a non-empty 1-d sequence")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise DomainError("block comparison needs nonnegative finite coefficients")
    if int(k) != k or k < 2:
        raise DomainError(f"block parameter k must be an integer >= 2, got {k!r}")
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    k = int(k)
    if not np.any(a > 0.0):
        return 0.0, 0.0
    degree = int(np.nonzero(a)[0][-1])
    rule = _radial_rule(eta, p * degree + 1.0)
    poly_at_nodes = np.polynomial.polynomial.polyval(rule.nodes, a)
    lhs = rule.integrate(poly_at_nodes**p, float(np.sum(a)) ** p)
    rhs = float(eta.moment(1.0)) * float(np.sum(a[:k])) ** p
    n = 1
    while k**n <= degree:
        t_n = float(np.sum(a[k**n : k ** (n + 1)]))
        if t_n > 0.0:
            rhs += eta.moment(float(k) ** n) * t_n**p
        n += 1
    return lhs, rhs
