"""Radial weights on [0, 1): densities, tails, moments, and class diagnostics.

A radial weight is a nonnegative integrable function on [0, 1), extended to
the unit disc by w(z) = w(|z|).  The quantities everything else is built on:

* tail(r)   = integral of w over [r, 1)            (must stay positive)
* moment(x) = integral of s^x * w(s) over [0, 1)

Four families are provided: ``standard``, ``log``, ``exp`` and ``tabulated``,
which wraps an arbitrary sampler.  Each family computes its tails in one
array routine, ``log_tails``, with no quadrature per radius; the scalar
``log_tail`` is that routine at one radius, and no entry depends on the
other radii of its call:

* ``standard``: the incomplete Beta series, summed per radius as a scalar
  loop would, and the full Beta integral less the stretch [0, r] where
  1 - r^2 > 1/2;
* ``log``: a fixed Gauss rule on the axis w = sqrt(log(1/(1-s^2))), built
  once per weight, plus one partial cell per radius and the analytic tail
  past w = 8;
* ``exp``: log-space, since the tails leave double precision long before r
  reaches 1.  tail(r) = amplitude (c^(1/gamma)/gamma) Gamma(-1/gamma, a)
  with a = c/(1-r)^gamma, by Legendre's continued fraction where a >= 8
  (or 1/gamma >= 20), and elsewhere as the fraction at a = 8 plus a fixed
  rule in 1 - r and one partial cell per radius;
* ``tabulated``: the weight's dyadic cell table, summed past the radius's
  own cell, plus one partial cell.

``standard`` moments are closed-form Beta values; other moments integrate
s^x on the weight's own radial rule, whose dyadic cells split by how much
s^x and the density vary across them.

``classify`` samples the upper-doubling, lower-doubling, and moment-doubling
ratio curves on geometric grids and turns them into heuristic verdicts for
membership in the corresponding weight classes.  It asks for every tail its
curves may read in one ``prefetch_tails`` call, and ``dhat_verdict``,
``dcheck_margin`` and ``verify.suma_check`` do the same for theirs; the
curves then read the memo and stop where they always did.  Verdicts are
finite-grid diagnostics, never certificates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .errors import DomainError, QuadratureError

LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0 in doubles
LOG_TINY = math.log(np.finfo(float).tiny)  # below this, exp() is subnormal
LEFT_LEVELS = 16  # cells [2^-l, 2^-l+1], l = LEFT_LEVELS..1, grade [0, 1/2] toward 0
SERIES_TERMS = 401  # most terms a standard tail series sums
_COUNTS = np.arange(1.0, SERIES_TERMS + 1.0)  # m + 1 at term m
STIRLING_FROM = 10.0  # log_beta's Stirling forms take arguments from here on
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Tails.
LOG_TAIL_END = 8.0  # the log tail's rule ends at w = 8, its analytic form beyond
LOG_TAIL_DROP = 8.0  # most log drop of (1+w^2)^-alpha across one cell of that rule
LOG_TAIL_ORDER = 16  # Gauss order of the log tail's cells
EXP_CF_FROM = 8.0  # a = c/u^gamma from which an exp tail is its continued fraction's
EXP_CF_STEEP = 20.0  # 1/gamma from which it is so at every radius
EXP_CF_STEPS = 200  # most steps of that fraction
EXP_TAIL_FLOOR = 2.0**-128  # least u where an exp tail's cells start
EXP_TAIL_ORDER = 16  # Gauss order of those cells
_EPS = np.finfo(float).eps

# Classification grids.
HARD_I_CAP = 30  # deepest dyadic radius 1 - 2^-i of the r-grid
TAIL_FLOOR_RATIO = 1e-14
K_SET = (2, 4, 8, 16)  # the k that classify tests
X_GRID = 10.0 ** (np.arange(33) / 8)  # moment orders 10^(j/8), 1 to 10^4
X_GRID.flags.writeable = False  # reports hold slices of it
LOG_RATIO_CAP = 700.0  # a ratio curve stops before |log ratio| passes this

# Verdict thresholds (documented in ClassReport.thresholds).
SUP_STABLE_TOL = 0.01     # running sup moved < 1% over the last decade of points
SUP_BLOWUP_FACTOR = 10.0  # curve end exceeds 10x its median while still rising
INF_MARGIN_MIN = 1e-3     # running inf must stabilize above 1 + this
INF_COLLAPSE_FACTOR = 0.9  # margin shrank by >10% over the last decade: collapsing


def _check_radius(r):
    if not (0.0 <= r < 1.0) or math.isnan(r):
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")


def _cell_sums(lo, hi, fn, order):
    """Integral of the vectorised ``fn`` over each interval [lo, hi] (arrays),
    one Gauss cell each.  Each entry is summed along its own row, so it does
    not depend on the other intervals of the call."""
    x, gw = quad.cell_nodes(lo, hi, order)
    return (gw * fn(x)).sum(axis=1)


def _map(fn, values):
    """``fn`` (a ``math`` function) at each entry, so that array and scalar
    callers round alike."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def _stirling_sum(z):
    """log Gamma(z) - (z - 1/2) log z + z - log sqrt(2 pi) for z >= STIRLING_FROM:
    sum_k B_2k / (2k (2k - 1) z^(2k - 1)) to k = 8, which leaves less than
    2e-18 from z = 10 on."""
    w = 1.0 / (z * z)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w * (
        1 / 1188 + w * (-691 / 360360 + w * (1 / 156 + w * (-3617 / 122400)))))))) / z


def _log_gamma_step(z, d):
    """log Gamma(z + d) - log Gamma(z) for z >= STIRLING_FROM and d > 0, from
    the two Stirling forms with their large terms cancelled by hand."""
    s = z + d
    return ((z - 0.5) * math.log1p(d / z) + d * (math.log(s) - 1.0)
            + _stirling_sum(s) - _stirling_sum(z))


def _log_beta_large(a, b):
    """log B(a, b) for a, b >= STIRLING_FROM: the Stirling forms of the three
    log Gammas combine into large terms of one sign, so nothing the size of
    log Gamma(a) cancels."""
    return (_LOG_SQRT_2PI - 0.5 * math.log(a + b) - (a - 0.5) * math.log1p(b / a)
            - (b - 0.5) * math.log1p(a / b) + _stirling_sum(a) + _stirling_sum(b)
            - _stirling_sum(a + b))


def log_beta(a, b):
    """log B(a, b) for floats a, b > 0.

    Summing log Gamma(a) + log Gamma(b) - log Gamma(a + b) keeps the
    absolute error of its largest term, about 1e-12 once an argument nears
    1e4; the forms here keep a few units in the last place of log B itself,
    3e-13 relative in B where log B nears -700.  With both arguments below
    STIRLING_FROM it is the Gamma ratio; with one, log Gamma of it less
    ``_log_gamma_step``; else ``_log_beta_large``.
    """
    small, large = (a, b) if a <= b else (b, a)
    if small >= STIRLING_FROM:
        return _log_beta_large(large, small)
    if large >= STIRLING_FROM:
        return math.lgamma(small) - _log_gamma_step(large, small)
    return math.log(math.gamma(small) * math.gamma(large) / math.gamma(small + large))


def _series_totals(z, num, den, total):
    """``total`` plus sum_m t_m, t_m = prod_{i<=m} z num_i / (i + 1) / den_m,
    at each entry of ``z``: a standard tail series, stopped per entry after
    the first m with |t_m| < 1e-18 |sum| or at m = SERIES_TERMS - 1.

    Terms and partial sums run in the scalar loop's order (running products
    and sums along each row), so every entry is that loop's float.  Terms
    come in blocks of columns, the first about SERIES_TERMS terms in all,
    each next one twice as wide; entries leave once stopped.
    """
    out = np.empty(z.size)
    idx = np.arange(z.size)
    start, block = 0, max(16, SERIES_TERMS // max(z.size, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        while idx.size:
            cols = slice(start, min(start + block, SERIES_TERMS))
            ratio = z[:, None] * num[cols] / _COUNTS[cols]
            if start:
                ratio[:, 0] *= powt
            powt = np.multiply.accumulate(ratio, axis=1)
            term = powt / den[cols]
            sums = term.copy()
            sums[:, 0] += total
            np.add.accumulate(sums, axis=1, out=sums)
            stop = np.abs(term) < 1e-18 * np.abs(sums)
            start, block = cols.stop, 2 * block
            stop[:, -1] |= start == SERIES_TERMS
            first = stop.argmax(axis=1)
            done = stop[np.arange(idx.size), first]
            out[idx[done]] = sums[done, first[done]]
            if done.all():
                break
            idx, z = idx[~done], z[~done]
            powt, total = powt[~done, -1], sums[~done, -1]
    return out


@dataclass(frozen=True)
class _CellTable:
    """The unsplit dyadic cells [1 - 2^-j, 1 - 2^-j-1], j = 0, 1, ..., of one
    weight at one Gauss order, each sampled once: the logs of the Gauss nodes
    (one row per cell), the density there, its log and that log's spread
    over the cell's live nodes, and the cell's integral.  Extending returns
    a new table, so a reader never sees one half-grown."""

    log_nodes: np.ndarray
    dens: np.ndarray
    log_dens: np.ndarray
    spread: np.ndarray
    mass: tuple

    @classmethod
    def empty(cls, order):
        rows = np.empty((0, order))
        return cls(rows, rows, rows, np.empty(0), ())

    def __len__(self):
        return len(self.mass)

    def extended(self, x, gw, dens):
        with np.errstate(divide="ignore"):
            ld = np.log(dens)
        live = ld > -np.inf
        spread = np.max(ld, axis=1, where=live, initial=-np.inf) - np.min(
            ld, axis=1, where=live, initial=np.inf)
        return _CellTable(
            np.concatenate([self.log_nodes, np.log(x)]),
            np.concatenate([self.dens, dens]),
            np.concatenate([self.log_dens, ld]),
            np.concatenate([self.spread, np.where(live.any(axis=1), spread, 0.0)]),
            self.mass + tuple(float(np.dot(g, d)) for g, d in zip(gw, dens)),
        )


class RadialWeight:
    """Base class; concrete families implement density/log_tail/moment."""

    label: str
    amplitude: float

    def __init__(self, label, amplitude=1.0):
        if not (amplitude > 0.0 and math.isfinite(amplitude)):
            raise DomainError(f"amplitude must be positive and finite, got {amplitude!r}")
        self.label = label
        self.amplitude = float(amplitude)
        # memo tables: plain dicts, safe for concurrent read/insert under the
        # GIL (a race at worst recomputes the same pure value)
        self._moment_memo = {}
        self._rule_memo = {}
        self._tables = {}  # Gauss order -> _CellTable
        self._classify_memo = None
        self._dhat_memo = None  # dhat_verdict
        self._dcheck_memo = {}  # k -> dcheck curve on the default r-grid
        self._tail_memo = {}  # radius -> log tail

    # -- family hooks -------------------------------------------------------

    def density(self, s):
        raise NotImplementedError

    def _tail_terms(self, rs):
        """(scale, integral) at the radii ``rs`` (a 1-d array in [0, 1)), with
        log tail = scale + log(integral); an integral that is not positive
        leaves its tail unresolved.  Each entry depends on its radius alone."""
        raise NotImplementedError

    def _unresolved(self, r, integral):
        """The error for a radius whose tail integral came out ``integral``:
        0 when it underflowed or its quadrature missed the mass."""
        return QuadratureError(
            f"tail({r!r}) of {self.label} is not resolved: its integral came out {integral!r}",
            residual=integral,
        )

    def _moment_impl(self, x):
        # the order-12 rule that resolves s^x; g(1) = 1 weighs the boundary mass
        rule = self.radial_rule(max(x, 1.0))
        return rule.integrate(rule.nodes**x, 1.0)

    def _build_rule(self, x_scale, order):
        raise NotImplementedError

    def with_amplitude(self, amplitude, label=None):
        raise NotImplementedError

    # -- shared surface ------------------------------------------------------

    def tail(self, r):
        """Mass of the weight beyond radius r; raises if it underflows doubles."""
        lt = self._memo_log_tail(r)
        if lt < LOG_UNDERFLOW:
            raise QuadratureError(
                f"tail({r}) of {self.label} underflows double precision "
                f"(log tail = {lt:.1f}); use log_tail",
                residual=lt,
            )
        return math.exp(lt)

    def log_tail(self, r):
        """log of the mass beyond radius r: ``log_tails`` at one radius.  Each
        family class names it too, so that bench/tracing.py can wrap it there."""
        _check_radius(r)
        return float(self.log_tails(np.array([float(r)]))[0])

    def _resolved_log_tails(self, rs):
        """(log tails, integrals) at the radii ``rs`` (a 1-d array in [0, 1));
        a tail that is not resolved is nan."""
        scale, integral = self._tail_terms(rs)
        ok = integral > 0.0
        out = np.full(rs.shape, np.nan)
        out[ok] = scale[ok] + _map(math.log, integral[ok])
        return out, integral

    def log_tails(self, rs):
        """log tail at every radius of the array ``rs``, in its shape, from one
        array routine of the family; raises for the first radius whose tail
        is not resolved."""
        rs = np.asarray(rs, dtype=float)
        flat = rs.ravel()
        inside = (flat >= 0.0) & (flat < 1.0)
        if not inside.all():
            _check_radius(float(flat[~inside][0]))
        out, integral = self._resolved_log_tails(flat)
        bad = np.isnan(out)
        if bad.any():
            k = int(np.argmax(bad))
            raise self._unresolved(float(flat[k]), float(integral[k]))
        return out.reshape(rs.shape)

    def prefetch_tails(self, rs):
        """Put the log tails at the radii ``rs`` (in [0, 1)) that the memo lacks
        into it, from one array call.  A radius whose tail is not resolved is
        left out, and so is every radius when the call raises: ``tail``
        raises for such a radius only when a caller reaches it."""
        memo = self._tail_memo
        fresh = np.array([r for r in dict.fromkeys(map(float, rs)) if r not in memo])
        if not fresh.size:
            return
        try:
            out, _ = self._resolved_log_tails(fresh)
        except Exception:
            return
        ok = ~np.isnan(out)
        memo.update(zip(fresh[ok].tolist(), out[ok].tolist()))

    def _memo_log_tail(self, r):
        """log_tail(r), memoized per weight instance: ``tail`` callers and the
        classification curves revisit radii (on the dyadic grid, 1 - (1-r)/k
        for k = 2^i is a later grid radius)."""
        r = float(r)
        try:
            return self._tail_memo[r]
        except KeyError:
            lt = self._tail_memo[r] = self.log_tail(r)
            return lt

    def tail_many(self, rs):
        """Tails at every radius in ``rs``; tails below double range flush to 0."""
        return _map(math.exp, self.log_tails(np.atleast_1d(rs)))

    def moment(self, x):
        """Moment of order x >= 0, memoized per weight instance."""
        if not (x >= 0.0) or math.isnan(x):
            raise DomainError(f"moment order must be >= 0, got {x!r}")
        x = float(x)
        memo = self._moment_memo
        try:
            return memo[x]
        except KeyError:
            pass
        value = self._moment_impl(x)
        if not (value > 0.0) or not math.isfinite(value):
            raise QuadratureError(
                f"moment({x}) of {self.label} evaluated to {value!r}", residual=value
            )
        memo[x] = value  # atomic under the GIL; worst case recomputed
        return value

    def moments(self, xs):
        return np.array([self.moment(float(x)) for x in np.atleast_1d(xs)], dtype=float)

    def radial_rule(self, x_scale=1.0, order=12):
        """Quadrature rule for integrals of g(s) * density(s) over [0, 1).

        ``x_scale`` is the largest effective monomial exponent of g the rule
        must resolve; it is bucketed to the next power of two so the memo
        stays small.
        """
        if not x_scale <= 2.0**1023:
            raise DomainError(
                f"rule scale {x_scale!r} is not representable: the rule for it would "
                "resolve monomials past s^(2^1023)"
            )
        bucket = 1 << max(0, math.ceil(math.log2(max(2.0, x_scale))))
        key = (bucket, order)
        try:
            return self._rule_memo[key]
        except KeyError:
            pass
        rule = self._build_rule(float(bucket), order)
        self._rule_memo[key] = rule
        return rule

    def _cells(self, order, depth):
        """The weight's cell table at ``order``, sampled through cell depth - 1.

        It grows in blocks with one density call each.  When a block's call
        raises, the cells up to the one asked for are sampled one at a time,
        so the error is that of the first bad cell a caller reaches.
        """
        table = self._tables.get(order) or _CellTable.empty(order)
        start = len(table)
        if start >= depth:
            return table
        j = np.arange(start, min(quad.MAX_MESH_DEPTH, max(depth, 2 * start, 16)))
        x, gw = quad.cell_nodes(1.0 - np.ldexp(1.0, -j), 1.0 - np.ldexp(1.0, -j - 1), order)
        try:
            table = table.extended(x, gw, self._cell_density(x))
        except Exception:
            for k in range(depth - start):
                table = table.extended(x[k:k + 1], gw[k:k + 1], self._cell_density(x[k:k + 1]))
                self._tables[order] = table  # keep the good cells if the next one raises
        self._tables[order] = table
        return table

    def _cell_density(self, x):
        return self.density(x.ravel()).reshape(x.shape)

    def _dyadic_rule(self, depth, x_scale, order, boundary, x_left=None):
        """Rule for g(s) * density(s), g up to s^x_scale, ``boundary`` the mass
        beyond it: [0, 1/2] graded toward 0 and split where ``x_left``
        (default x_scale) * log s varies, then each cell [1 - 2^-j, 1 - 2^-j-1],
        j < depth, on its own Gauss nodes or cut into ceil(max(v, D) / THETA)
        equal parts, at most SPLIT_CAP.  v = x_scale 2^-j-1 is how much
        x_scale * log s varies across the cell (0 past 45: s^x_scale is dead)
        and D the spread of log density over its nodes.  Cells past the peak
        of s^x_scale * density whose nodes fall PEAK_MARGIN below it stay
        whole: any g growing no faster than s^x_scale is as negligible there.

        The cells, their densities and spreads come from the weight's cell
        table, shared by every x_scale; the rule is one ``subdivided_nodes``
        pass over all cells and parts and one density call at the nodes of
        the left half and of the split cells.
        """
        x_left = x_scale if x_left is None else x_left
        hi = np.ldexp(1.0, -np.arange(LEFT_LEVELS, 0, -1))
        lo = np.concatenate([[0.0], hi[:-1]])
        with np.errstate(divide="ignore"):
            graded = np.clip(np.ceil(x_left * np.log(hi / lo) / quad.THETA), 1, 16)
        left_parts = np.where((lo == 0.0) | (x_left * -np.log(hi) > 45.0), 1, graded)

        table = self._cells(order, depth)
        j = np.arange(1, depth)
        tops = np.max(x_scale * table.log_nodes[1:depth] + table.log_dens[1:depth], axis=1)
        peak = tops.max(initial=-np.inf)
        peak_j = 1 + int(np.argmax(tops)) if tops.size else depth
        v = x_scale * np.ldexp(1.0, -j - 1)
        v = np.where(v <= 45.0, v, 0.0)
        spread = table.spread[1:depth]
        n = np.minimum(quad.SPLIT_CAP, np.ceil(np.where(spread > v, spread, v) / quad.THETA))
        split = (n > 1) & ~((j > peak_j) & (tops < peak - quad.PEAK_MARGIN))

        parts = np.concatenate([left_parts, np.where(split, n, 1)]).astype(int)
        x, gw = quad.subdivided_nodes(np.concatenate([lo, 1.0 - np.ldexp(1.0, -j)]),
                                      np.concatenate([hi, 1.0 - np.ldexp(1.0, -j - 1)]),
                                      parts, order)
        fresh = np.repeat(np.concatenate([np.ones(LEFT_LEVELS, dtype=bool), split]), parts * order)
        dens = np.empty(x.size)
        dens[fresh] = self.density(x[fresh])
        dens[~fresh] = table.dens[1:depth][~split].ravel()
        return quad.RadialRule(x, gw * dens, boundary)

    def scaled(self, factor):
        """Same weight multiplied by a positive constant (exactly)."""
        if not (factor > 0 and math.isfinite(factor)):
            raise DomainError(f"scale factor must be positive and finite, got {factor!r}")
        return self.with_amplitude(self.amplitude * factor, label=f"{factor}*{self.label}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class StandardWeight(RadialWeight):
    """w(s) = amplitude * (alpha + 1) * (1 - s^2)^alpha with alpha > -1."""

    def __init__(self, alpha, amplitude=1.0, label=None):
        if not (alpha > -1.0) or not math.isfinite(alpha):
            raise DomainError(f"standard family needs alpha > -1, got {alpha!r}")
        self.alpha = float(alpha)
        super().__init__(label or f"standard:{alpha:g}", amplitude)
        a, m = self.alpha + 1.0, _COUNTS - 1.0
        # the tail series' coefficients, near the boundary and inside it
        self._near = (m + 0.5, a + m + 1.0, 1.0 / a)
        self._inner = (m + 1.0 - a, m + 1.5, 2.0)

    def with_amplitude(self, amplitude, label=None):
        return StandardWeight(self.alpha, amplitude, label or self.label)

    def density(self, s):
        s = np.asarray(s, dtype=float)
        return self.amplitude * (self.alpha + 1.0) * (1.0 - s * s) ** self.alpha

    log_tail = RadialWeight.log_tail

    def _tail_terms(self, rs):
        # tail(r) = amplitude * (a/2) * B(1 - r^2; a, 1/2), a = alpha + 1.
        u = 1.0 - rs
        x = u * (2.0 - u)
        a = self.alpha + 1.0
        scale = np.full(rs.shape, math.log(self.amplitude * a / 2.0))
        integral = np.empty(rs.shape)
        near = x <= 0.5
        # series for the incomplete Beta integral, all terms positive
        xn = x[near]
        scale[near] += a * _map(math.log, xn)
        integral[near] = _series_totals(xn, *self._near)
        if not near.all():
            # complement: full Beta minus the stretch [0, r]
            y = 1.0 - x[~near]  # = r^2 <= 1/2
            integral[~near] = math.exp(log_beta(a, 0.5)) - np.sqrt(y) * _series_totals(y, *self._inner)
        return scale, integral

    def _unresolved(self, r, integral):
        full = math.exp(log_beta(self.alpha + 1.0, 0.5))
        return QuadratureError(f"tail({r}) of {self.label} (alpha = {self.alpha:g}) cancels: "
                               f"the full Beta integral {full:.6e} minus the stretch [0, r] "
                               f"leaves {integral:.3e}", residual=integral)

    @functools.cached_property
    def _edge_log_tails(self):
        """log tails at the dyadic cell edges 1 - 2^-j, j = 0..MAX_MESH_DEPTH."""
        return self.log_tails(1.0 - np.ldexp(1.0, -np.arange(quad.MAX_MESH_DEPTH + 1)))

    def _moment_impl(self, x):
        a = self.alpha + 1.0
        return self.amplitude * (a / 2.0) * math.exp(log_beta((x + 1.0) / 2.0, a))

    def _build_rule(self, x_scale, order):
        # dyadic cells until the closed-form tail drops below 1e-13 of the
        # total AND the mesh reaches past where s^x_scale still moves
        depths = np.arange(quad.MAX_MESH_DEPTH + 1)
        lts = self._edge_log_tails  # lts[0] is the total
        peak_depth = int(math.ceil(math.log2(max(x_scale, 2.0)))) + 12
        done = (lts - lts[0] < math.log(1e-13)) & (depths >= min(peak_depth, quad.MAX_MESH_DEPTH - 1))
        done[-1] = True
        depth = int(np.argmax(done[1:])) + 1
        return self._dyadic_rule(depth, x_scale, order, math.exp(lts[depth]))


class LogWeight(RadialWeight):
    """w(s) = amplitude * (1 - s^2)^-1 * (log(e / (1 - s^2)))^-alpha, alpha > 1.

    These weights grow at the boundary and their tails decay only like a
    power of log(1/(1-r)), so integrals are computed on the transformed
    axis w = sqrt(log(e/(1-s^2)) - 1), where the substitution

        integral s^x w(s) ds = integral s(w)^(x-1) (1+w^2)^-alpha w dw

    has an analytic tail (1+W^2)^(1-alpha) / (2(alpha-1)) beyond any cutoff W
    with only an exponentially small remainder.
    """

    def __init__(self, alpha, amplitude=1.0, label=None):
        if not (alpha > 1.0) or not math.isfinite(alpha):
            raise DomainError(f"log family needs alpha > 1, got {alpha!r}")
        self.alpha = float(alpha)
        super().__init__(label or f"log:{alpha:g}", amplitude)

    def with_amplitude(self, amplitude, label=None):
        return LogWeight(self.alpha, amplitude, label or self.label)

    def density(self, s):
        s = np.asarray(s, dtype=float)
        one_minus_sq = (1.0 - s) * (1.0 + s)
        return self.amplitude / one_minus_sq * (1.0 - np.log(one_minus_sq)) ** (-self.alpha)

    @staticmethod
    def _s_of_w(w):
        # s = sqrt(1 - e^(1-v)) with v = 1 + w^2
        w = np.asarray(w, dtype=float)
        return np.sqrt(-np.expm1(-(w * w)))

    def _tail_integrand(self, w):
        """s(w)^-1 (1+w^2)^-alpha w, the tail's integrand on the w axis."""
        return np.exp(np.log(w) - self.alpha * np.log1p(w * w) - np.log(self._s_of_w(w)))

    @functools.cached_property
    def _tail_rule(self):
        """The tail's fixed rule on the w axis: cell edges and the integral
        beyond each edge.

        The cells are those of a 0.5 grid on [0, LOG_TAIL_END], cut further
        where alpha log(1+w^2) crosses multiples of LOG_TAIL_DROP, so that
        (1+w^2)^-alpha falls by at most e^LOG_TAIL_DROP across a cell; the
        cuts stop where the integrand leaves double range.  Beyond
        LOG_TAIL_END the integral is the analytic (1+w^2)^(1-alpha) /
        (2(alpha-1)), which leaves out less than e^-64 of it.
        """
        al = self.alpha
        drops = LOG_TAIL_DROP * np.arange(1.0, -LOG_UNDERFLOW / LOG_TAIL_DROP + 2.0)
        cuts = np.sqrt(np.expm1(drops[drops < al * math.log1p(LOG_TAIL_END**2)] / al))
        edges = np.unique(np.concatenate([np.linspace(0.0, LOG_TAIL_END, 17),
                                          cuts[cuts < LOG_TAIL_END]]))
        cells = _cell_sums(edges[:-1], edges[1:], self._tail_integrand, LOG_TAIL_ORDER)
        beyond = self._analytic_tail(edges[-1:])
        return edges, np.cumsum(np.concatenate([beyond, cells[::-1]]))[::-1]

    def _analytic_tail(self, w):
        al = self.alpha
        return (1.0 + w * w) ** (1.0 - al) / (2.0 * (al - 1.0))

    def _w_tails(self, w_lo):
        """integral_{w_lo}^inf s(w)^-1 (1+w^2)^-alpha w dw at each entry of
        ``w_lo``: the rule's integral beyond the next edge plus one partial
        cell, or past the rule's end the analytic form alone."""
        edges, beyond = self._tail_rule
        k = np.searchsorted(edges, w_lo, side="right")
        out = self._analytic_tail(w_lo)
        inside = k < edges.size
        out[inside] = beyond[k[inside]] + _cell_sums(
            w_lo[inside], edges[k[inside]], self._tail_integrand, LOG_TAIL_ORDER)
        return out

    def _tail_terms(self, rs):
        u = 1.0 - rs
        w_lo = np.sqrt(np.abs(np.log(u * (2.0 - u))))  # 1 - r^2 = u (2 - u)
        return np.zeros(rs.shape), self.amplitude * self._w_tails(w_lo)

    log_tail = RadialWeight.log_tail

    def _transition_edges(self, x_scale):
        """w-values where x_scale * (-log s(w)) crosses multiples of THETA.

        Between consecutive edges the peaked factor s^x varies by at most
        e^THETA, which a moderate Gauss cell absorbs; left of the last edge
        s^x is dead (below e^-45).
        """
        edges = []
        m = 1
        while m * quad.THETA <= 48.0:
            y = m * quad.THETA / x_scale
            inner = -math.expm1(-2.0 * y)  # = 1 - s^2 at the crossing
            if inner < 1.0:
                edges.append(math.sqrt(-math.log(inner)))
            m += 1
        return edges

    def _build_rule(self, x_scale, order):
        al = self.alpha
        W = math.sqrt(max(16.0, math.log((x_scale + 2.0) * 1e13)))
        base = np.linspace(0.0, W, int(math.ceil(W / 0.5)) + 1)
        cuts = [w for w in self._transition_edges(x_scale) if 0.0 < w < W]
        # s(w) ~ w at the origin, so fractional powers of s need grading there
        grades = [base[1] * 2.0 ** (-l) for l in range(1, 17)]
        edges = np.unique(np.concatenate([base, np.asarray(cuts + grades, dtype=float)]))
        x, gw = quad.cell_nodes(edges[:-1], edges[1:], order)
        s = self._s_of_w(x)
        weights = gw * (1.0 + x * x) ** (-al) * x / s * self.amplitude
        # weight mass beyond the mesh, computed in w-space so the cut is seamless
        boundary = self.amplitude * float(self._w_tails(np.array([W]))[0])
        return quad.RadialRule(s.ravel(), weights.ravel(), boundary)


class ExponentialWeight(RadialWeight):
    """w(s) = amplitude * exp(-c / (1 - s)^gamma) with c, gamma > 0.

    Tails decay super-exponentially, so they are carried in log-space.  With
    u = 1 - r, a = c/u^gamma and s = -1/gamma, substituting t = c/v^gamma in
    the tail integral over v = 1 - s' in [0, u] gives

        tail(r) = amplitude * (c^(1/gamma) / gamma) * Gamma(s, a)
                = amplitude * (u / gamma) * e^-a * F(a),  F(a) = e^a a^-s Gamma(s, a),

    and F, between 1/(a + 1 - s) and 1/a, comes from its continued fraction.
    """

    def __init__(self, c, gamma, amplitude=1.0, label=None):
        if not (c > 0.0) or not math.isfinite(c):
            raise DomainError(f"exponential family needs c > 0, got {c!r}")
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise DomainError(f"exponential family needs gamma > 0, got {gamma!r}")
        self.c = float(c)
        self.gamma = float(gamma)
        super().__init__(label or f"exp:{c:g},{gamma:g}", amplitude)

    def with_amplitude(self, amplitude, label=None):
        return ExponentialWeight(self.c, self.gamma, amplitude, label or self.label)

    def density(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            expo = -self.c / (1.0 - s) ** self.gamma
        # below the normal range the amplitude enters the exponent, so that a
        # scaled weight keeps the digits exp() alone would lose there
        low = expo < LOG_TINY
        expo = np.where(low, expo + math.log(self.amplitude), expo)
        dens = np.where(expo < LOG_UNDERFLOW, 0.0, np.exp(np.maximum(expo, LOG_UNDERFLOW)))
        return np.where(low, dens, self.amplitude * dens)

    def _gamma_cf(self, a):
        """F(a) = e^a a^-s Gamma(s, a), s = -1/gamma, at each entry of ``a``:
        Legendre's continued fraction (DLMF 8.9.2) in its even form, by the
        modified Lentz method.  An entry stops once a step moves it by at most
        an ulp, so it does not depend on the other entries.  Where a >=
        EXP_CF_FROM or 1/gamma >= EXP_CF_STEEP that takes at most about 40
        steps; for small a and small 1/gamma it would take thousands."""
        s = -1.0 / self.gamma
        b = a + (1.0 - s)
        h = d = 1.0 / b
        c = np.full(a.shape, np.inf)  # so that the first step's a_1 / c vanishes
        live = np.ones(a.shape, dtype=bool)
        for i in range(1, EXP_CF_STEPS):
            step_num = -i * (i - s)
            b = b + 2.0
            d = 1.0 / (step_num * d + b)
            c = b + step_num / c
            step = c * d
            h = np.where(live, h * step, h)
            live &= np.abs(step - 1.0) > _EPS
            if not live.any():
                break
        return h

    def _cf_log_tails(self, u, log_amplitude=0.0):
        """log tail at u = 1 - r, -a + log(amplitude u F / gamma): the large
        term is added last, so that it is rounded once."""
        with np.errstate(divide="ignore"):
            a = self.c / u**self.gamma
        # past 1e300, F is 1/a in doubles and the log tail -inf or nearly
        frac = self._gamma_cf(np.minimum(a, 1e300))
        return -a + (log_amplitude + np.log(u) - math.log(self.gamma) + np.log(frac))

    def _u_density(self, u):
        """The density at s = 1 - u with the amplitude left out."""
        return np.exp(-self.c / u**self.gamma)

    @functools.cached_property
    def _tail_cells(self):
        """Cell edges in u = 1 - r, from v0 up to 1, and the tail at each edge
        with the amplitude left out.

        Up to u = v0 = (c / EXP_CF_FROM)^(1/gamma), where a >= EXP_CF_FROM,
        the tail is the continued fraction's; beyond it, that at v0 plus the
        density's integral over Gauss cells that grow by 2^min(1, 1/gamma),
        across which a at most halves.  When c >= EXP_CF_FROM or 1/gamma >=
        EXP_CF_STEEP the continued fraction serves every radius and the
        edges are [1].  v0 is raised to EXP_TAIL_FLOOR, whose tail is below
        2^-60 of that at any radius (u >= 2^-53 there, and the density is at
        least e^-EXP_CF_FROM of its amplitude), so its slow fraction there
        costs nothing that shows.
        """
        g = self.gamma
        if self.c >= EXP_CF_FROM or 1.0 / g >= EXP_CF_STEEP:
            return np.ones(1), np.zeros(1)
        v0 = max((self.c / EXP_CF_FROM) ** (1.0 / g), EXP_TAIL_FLOOR)
        q = 2.0 ** min(1.0, 1.0 / g)
        edges = v0 * q ** np.arange(math.ceil(-math.log(v0) / math.log(q)) + 1.0)
        edges = np.append(edges[edges < 1.0], 1.0)
        cells = _cell_sums(edges[:-1], edges[1:], self._u_density, EXP_TAIL_ORDER)
        return edges, np.cumsum(np.concatenate([np.exp(self._cf_log_tails(edges[:1])), cells]))

    def _tail_terms(self, rs):
        # the continued fraction is positive, so every exp tail is resolved:
        # there it is the whole log tail, carried as the scale
        u = 1.0 - rs
        edges, tails = self._tail_cells
        scale = np.full(rs.shape, math.log(self.amplitude))
        integral = np.ones(rs.shape)
        deep = u <= edges[0]
        scale[deep] = self._cf_log_tails(u[deep], math.log(self.amplitude))
        k = np.searchsorted(edges, u[~deep], side="right") - 1
        integral[~deep] = tails[k] + _cell_sums(edges[k], u[~deep], self._u_density, EXP_TAIL_ORDER)
        return scale, integral

    log_tail = RadialWeight.log_tail

    def _build_rule(self, x_scale, order):
        c, g = self.c, self.gamma
        depth = 1
        while depth < quad.MAX_MESH_DEPTH and c * 2.0 ** (g * depth) <= math.log(self.amplitude) - LOG_UNDERFLOW:
            depth += 1

        # the density itself varies like exp(-c/u^gamma) over the left half;
        # beyond the mesh it underflows doubles entirely
        return self._dyadic_rule(depth, x_scale, order, 0.0, x_left=max(x_scale, c * 4.0**g))


class TabulatedWeight(RadialWeight):
    """A weight given only by a sampler s -> w(s) >= 0 on [0, 1).

    Samples are taken lazily on the dyadic mesh graded toward 1, in the
    weight's order-12 cell table, which its moment rules share; tails beyond
    the resolved mesh are extrapolated geometrically from the last cells,
    and the extrapolation failing to shrink raises :class:`QuadratureError`
    with the residual estimate.
    """

    _order = 12  # Gauss order of the mesh behind tails, = that of moment rules

    def __init__(self, sampler, label="tabulated", amplitude=1.0, check=True):
        try:
            out = np.asarray(sampler(np.array([0.0, 0.25, 0.5])), dtype=float)
            if out.shape != (3,):
                raise TypeError
            self._sampler = sampler
        except Exception:
            self._sampler = np.vectorize(sampler, otypes=[float])
        super().__init__(label, amplitude)
        if check:
            probe = np.linspace(0.0, 0.95, 20)
            vals = np.asarray(self._sampler(probe), dtype=float)
            if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
                raise DomainError(f"{self.label}: sampler must be finite and >= 0 on [0, 1)")
            self.tail(0.0)  # forces integrability + positive-tail checks

    def with_amplitude(self, amplitude, label=None):
        return TabulatedWeight(self._sampler, label or self.label, amplitude, check=False)

    def density(self, s):
        return self.amplitude * np.asarray(self._sampler(np.asarray(s, dtype=float)), dtype=float)

    def _cell_density(self, x):
        dens = super()._cell_density(x)
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise DomainError(f"{self.label}: sampler must be finite and >= 0 on [0, 1)")
        return dens

    def _mesh_extent(self, min_depth=4):
        """Resolve cells until the tail estimate beyond them is negligible.

        Returns (depth, boundary_estimate).  The criterion needs three
        consecutive negligible cells so that weights vanishing on single
        annuli are not truncated early, and ``min_depth`` lets rule
        construction push the mesh past the point where a peaked integrand
        s^x concentrates.
        """
        total = 0.0
        vals = []
        for j in range(quad.MAX_MESH_DEPTH):
            val = self._cells(self._order, j + 1).mass[j]
            total += val
            vals.append(val)
            if j >= max(4, min_depth) and all(v <= 1e-16 * total for v in vals[-3:]):
                last, prev = vals[-1], vals[-2]
                if last == 0.0:
                    return j + 1, 0.0
                ratio = last / prev if prev > 0 else 0.5
                if ratio < 0.75:
                    return j + 1, last * ratio / (1.0 - ratio)
        last, prev = vals[-1], vals[-2]
        ratio = last / prev if prev > 0 else 1.0
        if ratio >= 0.75 or last > 1e-12 * total:
            raise QuadratureError(
                f"{self.label}: tail integral did not converge on the dyadic mesh "
                f"(last cell {last:.3e} of total {total:.3e}, ratio {ratio:.3f})",
                residual=last,
            )
        return quad.MAX_MESH_DEPTH, last * ratio / (1.0 - ratio)

    def _tail_terms(self, rs):
        # the cells past the radius's own cell j0, plus the partial piece of
        # cell j0 from r to its right edge; r = 0 takes every cell whole
        depth, boundary = self._mesh_extent()
        mass = self._cells(self._order, depth).mass
        beyond = np.array([sum(mass[j:depth]) for j in range(depth + 1)])
        frac, exp2 = np.frexp(1.0 - rs)  # j0 = floor(-log2(1 - r)), exactly
        j0 = np.minimum(-exp2 + (frac == 0.5), depth - 1)
        hi = 1.0 - np.ldexp(1.0, -j0 - 1)
        part = np.zeros(rs.shape)
        cut = hi > rs
        part[cut] = _cell_sums(rs[cut], hi[cut], self._cell_density, self._order)
        total = np.where(rs == 0.0, beyond[0] + boundary, part + beyond[j0 + 1] + boundary)
        return np.zeros(rs.shape), total

    def _unresolved(self, r, integral):
        return DomainError(
            f"{self.label}: tail vanishes at r = {r}; weights must keep "
            "positive mass up to the boundary"
        )

    log_tail = RadialWeight.log_tail

    def _build_rule(self, x_scale, order):
        # the mesh must reach past 1 - 1/x_scale, where s^x_scale still
        # moves; 12 dyadic levels beyond leave it flat to 2^-12
        peak_depth = int(math.ceil(math.log2(max(x_scale, 2.0)))) + 12
        depth, boundary = self._mesh_extent(min_depth=min(peak_depth, quad.MAX_MESH_DEPTH - 1))
        return self._dyadic_rule(depth, x_scale, order, boundary)


def scaled_weight(omega, mu, p):
    """The weight s -> omega(s) * tail_mu(s)^p as a tabulated weight.

    Its sampler takes mu's tails in one ``tail_many`` call per density
    evaluation, which is one array pass for ``standard`` mu.
    """
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"power p must be positive, got {p!r}")

    def sampler(s):
        s = np.asarray(s, dtype=float)
        return omega.density(s) * mu.tail_many(s) ** p

    label = f"{omega.label}*tail({mu.label})^{p:g}"
    return TabulatedWeight(sampler, label=label, check=False)


# ---------------------------------------------------------------------------
# weight-spec parsing


def parse_weight_spec(text):
    """Parse ``standard:1.0`` / ``log:2.0`` / ``exp:1.0,1.0`` or the
    ``family=standard alpha=1.0`` key-value form."""
    text = text.strip()
    if not text:
        raise DomainError("empty weight specification")
    if "=" in text:
        fields = {}
        for tok in text.split():
            if "=" not in tok:
                raise DomainError(f"bad weight token {tok!r} (expected key=value)")
            key, _, val = tok.partition("=")
            fields[key.strip()] = val.strip()
        family = fields.pop("family", None)
        if family is None:
            raise DomainError(f"weight spec {text!r} is missing family=")
        required = {"standard": ("alpha",), "log": ("alpha",), "exp": ("c", "gamma")}
        if family not in required:
            raise DomainError(f"unknown weight family {family!r}")
        missing = [k for k in required[family] if k not in fields]
        if missing:
            raise DomainError(f"weight spec {text!r} is missing {missing}")
        extra = sorted(set(fields) - set(required[family]))
        if extra:
            raise DomainError(f"unknown weight fields {extra} in {text!r}")
        try:
            values = {k: float(fields[k]) for k in required[family]}
        except ValueError:
            raise DomainError(f"non-numeric weight parameters in {text!r}") from None
        if family == "standard":
            return StandardWeight(values["alpha"])
        if family == "log":
            return LogWeight(values["alpha"])
        return ExponentialWeight(values["c"], values["gamma"])
    family, _, params = text.partition(":")
    args = [a for a in params.split(",") if a != ""]
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise DomainError(f"non-numeric weight parameters in {text!r}") from None
    if family == "standard" and len(values) == 1:
        return StandardWeight(values[0])
    if family == "log" and len(values) == 1:
        return LogWeight(values[0])
    if family == "exp" and len(values) == 2:
        return ExponentialWeight(values[0], values[1])
    raise DomainError(f"cannot parse weight spec {text!r}")


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassReport:
    """Sampled doubling-ratio curves plus heuristic membership verdicts."""

    label: str
    r_grid: np.ndarray
    x_grid: np.ndarray
    k_set: tuple
    curves: dict            # name -> (abscissae, values)
    verdicts: dict          # "dhat" / "dcheck" / "m" / "d" -> in|out|inconclusive
    per_k: dict             # side information per tested k
    thresholds: dict
    passed: bool | None = None

    def __post_init__(self):
        for name, (_, vals) in self.curves.items():
            arr = np.asarray(vals, dtype=float)
            if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
                raise DomainError(f"curve {name} contains non-finite or non-positive values")
        if self.verdicts.get("d") == "in":
            ok = self.verdicts.get("dhat") == "in" and (
                self.verdicts.get("dcheck") == "in" or self.verdicts.get("m") == "in"
            )
            if not ok:
                raise DomainError("inconsistent verdicts: 'in d' without its components")

    def header(self):
        return ["curve", "abscissa", "value"]

    def rows(self):
        out = []
        for name in sorted(self.curves):
            xs, vals = self.curves[name]
            for x, v in zip(xs, vals):
                out.append([name, float(x), float(v)])
        return out

    def to_json_dict(self):
        return {
            "label": self.label,
            "kind": "class-report",
            "k_set": list(self.k_set),
            "curves": {
                name: {"abscissa": [float(v) for v in xs], "value": [float(v) for v in ys]}
                for name, (xs, ys) in sorted(self.curves.items())
            },
            "verdicts": dict(self.verdicts),
            "per_k": self.per_k,
            "thresholds": dict(self.thresholds),
        }

    @property
    def verdict_line(self):
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.verdicts.items()))
        return f"classify {self.label}: {parts}"


def _window(n):
    # a decade of grid points when the grid affords it; shorter grids
    # (heavily truncated by the tail floor) get a proportional window
    return min(10, max(2, n // 3), n - 1)


def _sup_verdict(vals):
    """in / out / inconclusive for a 'running sup must stabilize' condition."""
    vals = np.asarray(vals, dtype=float)
    if vals.size < 3:
        return "inconclusive", {}
    rs = np.maximum.accumulate(vals)
    w = _window(vals.size)
    factor = rs[-1] / rs[-1 - w]
    stable = factor <= 1.0 + SUP_STABLE_TOL
    exceeds = vals[-1] > SUP_BLOWUP_FACTOR * float(np.median(vals))
    info = {"sup": float(rs[-1]), "last_decade_factor": float(factor)}
    if stable:
        return "in", info
    if exceeds:
        return "out", info
    return "inconclusive", info


def _inf_margin_verdict(vals):
    """in / out / inconclusive for 'running inf stabilizes strictly above 1'."""
    vals = np.asarray(vals, dtype=float)
    if vals.size < 3:
        return "inconclusive", {}
    ri = np.minimum.accumulate(vals)
    w = _window(vals.size)
    m_end = ri[-1] - 1.0
    m_prev = ri[-1 - w] - 1.0
    info = {"inf": float(ri[-1]), "margin": float(m_end)}
    if m_end <= INF_MARGIN_MIN:
        return "out", info
    if m_prev > 0:
        info["last_decade_margin_ratio"] = float(m_end / m_prev)
        if m_end <= INF_COLLAPSE_FACTOR * m_prev:
            return "out", info  # margin still collapsing toward 1
        if m_end >= (1.0 - SUP_STABLE_TOL) * m_prev:
            return "in", info
    return "inconclusive", info


_R_CANDIDATES = tuple(1.0 - 2.0 ** (-i) for i in range(HARD_I_CAP + 1))


def _dhat_radius(r):
    return (1.0 + float(r)) / 2.0


def _dcheck_radius(r, k):
    return 1.0 - (1.0 - float(r)) / k


def _moment_radius(x):
    return 1.0 - 1.0 / x if x > 1 else 0.0


@functools.cache
def _curve_radii(dhat=False, ks=(), moments=False):
    """Every radius that ``default_r_grid`` reads, and that the dhat curve,
    the dcheck[k] curves for k in ``ks`` and, with ``moments``, the
    moment_vs_tail curve read on any grid it may cut.  Callers prefetch
    them with one array call per weight; the curves still read them lazily
    and stop where they always did."""
    radii = [0.0, *_R_CANDIDATES]
    if dhat:
        radii += map(_dhat_radius, _R_CANDIDATES)
    for k in ks:
        radii += (_dcheck_radius(r, k) for r in _R_CANDIDATES)
    if moments:
        radii += map(_moment_radius, X_GRID)
    return tuple(radii)


def default_r_grid(w):
    """Dyadic radii 1 - 2^-i, i <= HARD_I_CAP, truncated where the tail falls
    below TAIL_FLOOR_RATIO of the total mass."""
    w.prefetch_tails(_curve_radii())
    lt0 = w._memo_log_tail(0.0)
    floor = math.log(TAIL_FLOOR_RATIO)
    radii = []
    for r in _R_CANDIDATES:
        if w._memo_log_tail(r) - lt0 <= floor:
            break
        radii.append(r)
    if not radii:
        raise DomainError(f"{w.label}: no usable radii (tail collapses immediately)")
    return np.array(radii)


def _ratio_curve(xs, log_nums, log_den):
    """(xs, exp(log_num - log_den(x))) for the log numerators ``log_nums``,
    both taken lazily and in order, cut before the first point whose log
    ratio is not finite or passes +-LOG_RATIO_CAP: every ratio it reports
    is a positive double."""
    vals = []
    for x, num in zip(xs, log_nums):
        log_ratio = num - log_den(x)
        if not abs(log_ratio) <= LOG_RATIO_CAP:
            break
        vals.append(log_ratio)
    return xs[:len(vals)], np.exp(np.array(vals))


def _dhat_curve(w, r_grid):
    """(radii, tail(r) / tail((1+r)/2)) on ``r_grid``."""
    return _ratio_curve(r_grid, map(w._memo_log_tail, r_grid),
                        lambda r: w._memo_log_tail(_dhat_radius(r)))


def _dcheck_curve(w, k, r_grid):
    """(radii, tail(r) / tail(1 - (1-r)/k)) on ``r_grid``."""
    return _ratio_curve(r_grid, map(w._memo_log_tail, r_grid),
                        lambda r: w._memo_log_tail(_dcheck_radius(r, k)))


def _log_moment(w, x):
    """log moment(x), or nan where the moment leaves double range."""
    try:
        return math.log(w.moment(x))
    except QuadratureError:
        return math.nan


def classify(w):
    """Sample the doubling-ratio curves of ``w`` and render class verdicts,
    memoized per weight.

    Curves reported, tails on ``default_r_grid`` and moments at the orders
    of ``X_GRID``:

    * ``dhat``          tail(r) / tail((1+r)/2)
    * ``dcheck[k]``     tail(r) / tail(1 - (1-r)/k) per k of K_SET
    * ``moment[k]``     moment(x) / moment(kx) per k of K_SET
    * ``moment_vs_tail``  moment(x) / tail(1 - 1/x), the comparability curve

    Each curve stops before its first ratio outside e^+-700 (or whose
    moment leaves double range), so every reported ratio is a positive
    double.  Verdicts are heuristics over the finite grids: the upper class
    needs the running sup of ``dhat`` to stabilize, the lower classes need a
    running inf to stabilize strictly above 1 for some k.  The exact
    thresholds are echoed in the report.
    """
    if w._classify_memo is not None:
        return w._classify_memo
    w.prefetch_tails(_curve_radii(True, K_SET, True))
    r_grid = default_r_grid(w)
    curves = {"dhat": _dhat_curve(w, r_grid)}
    per_k = {}
    dcheck_verdicts = {}
    for k in K_SET:
        curve = curves[f"dcheck[{k}]"] = w._dcheck_memo[k] = _dcheck_curve(w, k, r_grid)
        verdict, info = _inf_margin_verdict(curve[1])
        dcheck_verdicts[k] = verdict
        per_k[f"dcheck[{k}]"] = {"verdict": verdict, **info}

    # the moment orders stop at the first moment outside double range
    log_moments = list(itertools.takewhile(math.isfinite, (_log_moment(w, x) for x in X_GRID)))
    xs = X_GRID[:len(log_moments)]
    m_verdicts = {}
    for k in K_SET:
        curve = curves[f"moment[{k}]"] = _ratio_curve(xs, log_moments,
                                                      lambda x: _log_moment(w, k * x))
        verdict, info = _inf_margin_verdict(curve[1])
        m_verdicts[k] = verdict
        per_k[f"moment[{k}]"] = {"verdict": verdict, **info}
    # the comparability curve genuinely explodes outside the upper class
    curves["moment_vs_tail"] = _ratio_curve(
        xs, log_moments, lambda x: w._memo_log_tail(_moment_radius(x)))

    dhat_verdict, dhat_info = _sup_verdict(curves["dhat"][1])
    w._dhat_memo = dhat_verdict
    per_k["dhat"] = {"verdict": dhat_verdict, **dhat_info}

    def combine(verdicts):
        if any(v == "in" for v in verdicts.values()):
            return "in"
        if all(v == "out" for v in verdicts.values()):
            return "out"
        return "inconclusive"

    dcheck = combine(dcheck_verdicts)
    m_class = combine(m_verdicts)
    if dhat_verdict == "in" and (dcheck == "in" or m_class == "in"):
        d_class = "in"
    elif dhat_verdict == "out" or (dcheck == "out" and m_class == "out"):
        d_class = "out"
    else:
        d_class = "inconclusive"

    report = ClassReport(
        label=w.label,
        r_grid=r_grid,
        x_grid=xs,
        k_set=K_SET,
        curves=curves,
        verdicts={"dhat": dhat_verdict, "dcheck": dcheck, "m": m_class, "d": d_class},
        per_k=per_k,
        thresholds={
            "sup_stable_tol": SUP_STABLE_TOL,
            "sup_blowup_factor": SUP_BLOWUP_FACTOR,
            "inf_margin_min": INF_MARGIN_MIN,
            "inf_collapse_factor": INF_COLLAPSE_FACTOR,
            "tail_floor_ratio": TAIL_FLOOR_RATIO,
        },
    )
    w._classify_memo = report
    return report


def dhat_verdict(w):
    """The upper-doubling verdict of ``classify``, used as a sanity gate
    elsewhere, from the ``dhat`` curve alone, memoized per weight."""
    if w._dhat_memo is None:
        w.prefetch_tails(_curve_radii(dhat=True))
        w._dhat_memo = _sup_verdict(_dhat_curve(w, default_r_grid(w))[1])[0]
    return w._dhat_memo


def dcheck_margin(w, k):
    """Lower-doubling verdict of ``w`` for one specific k, its curve on the
    default r-grid memoized per weight and k."""
    memo = w._dcheck_memo
    if k not in memo:
        w.prefetch_tails(_curve_radii(ks=(k,)))
        memo[k] = _dcheck_curve(w, k, default_r_grid(w))
    return _inf_margin_verdict(memo[k][1])
