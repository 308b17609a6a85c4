"""Radial weights on [0, 1): densities, tails, moments, and class diagnostics.

A radial weight is a nonnegative integrable function on [0, 1), extended to
the unit disc by w(z) = w(|z|).  The quantities everything else is built on:

* tail(r)   = integral of w over [r, 1)            (must stay positive)
* moment(x) = integral of s^x * w(s) over [0, 1)

Four families are provided.  ``standard`` and ``log`` carry closed or
semi-closed forms; ``exp`` keeps its tails in log-space because they leave
double precision long before r reaches 1; ``tabulated`` wraps an arbitrary
sampler.  Other moments integrate s^x on the weight's own radial rule, whose
dyadic cells split by how much s^x and the density vary across them.

``classify`` samples the upper-doubling, lower-doubling, and moment-doubling
ratio curves on geometric grids and turns them into heuristic verdicts for
membership in the corresponding weight classes.  Verdicts are finite-grid
diagnostics, never certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln

from . import quadrature as quad
from .errors import DomainError, QuadratureError

LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0 in doubles
LEFT_LEVELS = 16  # cells [2^-l, 2^-l+1], l = LEFT_LEVELS..1, grade [0, 1/2] toward 0

# Default classification grids.
DEFAULT_I_MAX = 40
HARD_I_CAP = 30
TAIL_FLOOR_RATIO = 1e-14
DEFAULT_K_SET = (2, 4, 8, 16)
DEFAULT_X_MAX = 1.0e4
X_PER_DECADE = 8

# Verdict thresholds (documented in ClassReport.thresholds).
SUP_STABLE_TOL = 0.01     # running sup moved < 1% over the last decade of points
SUP_BLOWUP_FACTOR = 10.0  # curve end exceeds 10x its median while still rising
INF_MARGIN_MIN = 1e-3     # running inf must stabilize above 1 + this
INF_COLLAPSE_FACTOR = 0.9  # margin shrank by >10% over the last decade: collapsing


def _check_radius(r):
    if not (0.0 <= r < 1.0) or math.isnan(r):
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")


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
        self._classify_memo = None
        self._dcheck_memo = {}  # k -> dcheck curve on the default r-grid

    # -- family hooks -------------------------------------------------------

    def density(self, s):
        raise NotImplementedError

    def log_tail(self, r):
        raise NotImplementedError

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
        lt = self.log_tail(r)
        if lt < LOG_UNDERFLOW:
            raise QuadratureError(
                f"tail({r}) of {self.label} underflows double precision "
                f"(log tail = {lt:.1f}); use log_tail",
                residual=lt,
            )
        return math.exp(lt)

    def tail_many(self, rs):
        """Tails at every radius in ``rs``; tails below double range flush to 0."""
        return np.array([math.exp(self.log_tail(float(r))) for r in np.atleast_1d(rs)],
                        dtype=float)

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
        bucket = 1 << max(0, math.ceil(math.log2(max(2.0, x_scale))))
        key = (bucket, order)
        try:
            return self._rule_memo[key]
        except KeyError:
            pass
        rule = self._build_rule(float(bucket), order)
        self._rule_memo[key] = rule
        return rule

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
        """
        x_left = x_scale if x_left is None else x_left
        xs, ws, lo = [], [], 0.0
        for level in range(LEFT_LEVELS, 0, -1):
            hi = 2.0 ** -level
            if lo == 0.0 or x_left * (-math.log(hi)) > 45.0:
                n = 1
            else:
                n = max(1, min(16, int(math.ceil(x_left * math.log(hi / lo) / quad.THETA))))
            x, w = quad.subdivided_nodes(lo, hi, n, order)
            xs.append(x)
            ws.append(w)
            lo = hi
        x = np.concatenate(xs)
        nodes, weights = [x], [np.concatenate(ws) * self.density(x)]
        cells = [self._dyadic_cell(j, order) for j in range(1, depth)]
        with np.errstate(divide="ignore"):
            log_dens = [np.log(dens) for _, _, dens in cells]
        tops = [np.max(x_scale * np.log(x) + ld) for (x, _, _), ld in zip(cells, log_dens)]
        peak = max(tops, default=-np.inf)
        peak_j = 1 + tops.index(peak) if tops else depth
        for j, (x, wd, _), ld, top in zip(range(1, depth), cells, log_dens, tops):
            v = x_scale * 2.0 ** (-j - 1)
            live = ld[ld > -np.inf]
            spread = np.ptp(live) if live.size else 0.0
            n = min(quad.SPLIT_CAP, math.ceil(max(v if v <= 45.0 else 0.0, spread) / quad.THETA))
            if n > 1 and not (j > peak_j and top < peak - quad.PEAK_MARGIN):
                x, w = quad.subdivided_nodes(1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1), n, order)
                wd = w * self.density(x)
            nodes.append(x)
            weights.append(wd)
        return quad.RadialRule(np.concatenate(nodes), np.concatenate(weights), boundary)

    def _dyadic_cell(self, j, order):
        """Unsplit cell [1 - 2^-j, 1 - 2^-j-1]: Gauss nodes, density-weighted
        weights and the density at the nodes."""
        x, w = quad.cell_nodes(1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1), order)
        dens = self.density(x)
        return x, w * dens, dens

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

    def with_amplitude(self, amplitude, label=None):
        return StandardWeight(self.alpha, amplitude, label or self.label)

    def density(self, s):
        s = np.asarray(s, dtype=float)
        return self.amplitude * (self.alpha + 1.0) * (1.0 - s * s) ** self.alpha

    def log_tail(self, r):
        # tail(r) = amplitude * (a/2) * B(1 - r^2; a, 1/2), a = alpha + 1.
        _check_radius(r)
        u = 1.0 - r
        x = u * (2.0 - u)
        a = self.alpha + 1.0
        pref = math.log(self.amplitude * a / 2.0)
        if x <= 0.5:
            # series for the incomplete Beta integral, all terms positive
            powt = 1.0
            total = 1.0 / a
            m = 0
            while True:
                powt *= x * (m + 0.5) / (m + 1.0)
                nxt = powt / (a + m + 1.0)
                total += nxt
                m += 1
                if nxt < 1e-18 * total or m > 400:
                    break
            return pref + a * math.log(x) + math.log(total)
        # complement: full Beta minus the stretch [0, r]
        full = math.exp(betaln(a, 0.5))
        y = 1.0 - x  # = r^2 <= 1/2
        powt = 1.0
        total = 2.0  # 1/b with b = 1/2
        m = 0
        while True:
            powt *= y * (m + 1.0 - a) / (m + 1.0)
            nxt = powt / (m + 1.5)
            total += nxt
            m += 1
            if abs(nxt) < 1e-18 * abs(total) or m > 400:
                break
        comp = math.sqrt(y) * total
        if not full - comp > 0.0:
            raise QuadratureError(f"tail({r}) of {self.label} (alpha = {self.alpha:g}) cancels: "
                                  f"the full Beta integral {full:.6e} minus the stretch [0, r] "
                                  f"leaves {full - comp:.3e}", residual=full - comp)
        return pref + math.log(full - comp)

    def _moment_impl(self, x):
        a = self.alpha + 1.0
        return self.amplitude * (a / 2.0) * math.exp(betaln((x + 1.0) / 2.0, a))

    def _build_rule(self, x_scale, order):
        # dyadic cells until the closed-form tail drops below 1e-13 of the
        # total AND the mesh reaches past where s^x_scale still moves
        total_lt = self.log_tail(0.0)
        peak_depth = int(math.ceil(math.log2(max(x_scale, 2.0)))) + 12
        depth = 1
        while depth < quad.MAX_MESH_DEPTH:
            deep_enough = self.log_tail(1.0 - 2.0 ** (-depth)) - total_lt < math.log(1e-13)
            if deep_enough and depth >= min(peak_depth, quad.MAX_MESH_DEPTH - 1):
                break
            depth += 1
        boundary = math.exp(self.log_tail(1.0 - 2.0 ** (-depth)))
        return self._dyadic_rule(depth, x_scale, order, boundary)


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

    def _transformed_integral(self, x, w_lo):
        """integral_{w_lo}^inf s(w)^(x-1) (1+w^2)^-alpha w dw, x >= 0."""
        al = self.alpha
        W = math.sqrt(max(16.0, math.log((x + 2.0) * 1e13)))
        W = max(W, w_lo + 2.0)

        def integrand(w):
            # assembled in log space: for x < 1 the factor s^(x-1) blows up
            # at w -> 0 while the Jacobian w tames it
            s = self._s_of_w(w)
            log_val = np.log(w) - al * np.log1p(w * w)
            if x != 1.0:
                log_val = log_val + (x - 1.0) * np.log(s)
            return np.where(log_val < LOG_UNDERFLOW, 0.0, np.exp(np.minimum(log_val, 700.0)))

        body = quad.adaptive_gauss(integrand, w_lo, W, rel_tol=1e-13)
        analytic_tail = (1.0 + W * W) ** (1.0 - al) / (2.0 * (al - 1.0))
        return body + analytic_tail

    def log_tail(self, r):
        _check_radius(r)
        u = 1.0 - r
        x2 = u * (2.0 - u)  # 1 - r^2
        w_lo = math.sqrt(-math.log(x2)) if x2 < 1.0 else 0.0
        return math.log(self.amplitude * self._transformed_integral(0.0, w_lo))

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
        nodes = []
        weights = []
        for w0, w1 in zip(edges[:-1], edges[1:]):
            x, gw = quad.cell_nodes(w0, w1, order)
            s = self._s_of_w(x)
            nodes.append(s)
            weights.append(gw * (1.0 + x * x) ** (-al) * x / s * self.amplitude)
        # weight mass beyond the mesh, computed in w-space so the cut is seamless
        boundary = self.amplitude * self._transformed_integral(0.0, W)
        return quad.RadialRule(np.concatenate(nodes), np.concatenate(weights), boundary)


class ExponentialWeight(RadialWeight):
    """w(s) = amplitude * exp(-c / (1 - s)^gamma) with c, gamma > 0.

    Tails decay super-exponentially, so they are carried in log-space:
    tail(r) = u * exp(-c/u^gamma) * J with u = 1 - r and J a bounded
    boundary-layer integral on [0, 1].
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
        return self.amplitude * np.where(expo < LOG_UNDERFLOW, 0.0, np.exp(np.maximum(expo, LOG_UNDERFLOW)))

    def log_tail(self, r):
        # exact boundary-layer form: with a = c/u^gamma,
        # tail = e^-a * u/(a*gamma) * integral_0^inf e^-y (1+y/a)^(-1/gamma-1) dy
        _check_radius(r)
        u = 1.0 - r
        g = self.gamma
        a = self.c / u**g

        def layer(y):
            return np.exp(-y) * (1.0 + y / a) ** (-1.0 / g - 1.0)

        J = quad.adaptive_gauss(layer, 0.0, -LOG_UNDERFLOW, rel_tol=1e-13)
        return -a + math.log(u / (a * g)) + math.log(J) + math.log(self.amplitude)

    def _build_rule(self, x_scale, order):
        c, g = self.c, self.gamma
        depth = 1
        while depth < quad.MAX_MESH_DEPTH and c * 2.0 ** (g * depth) <= -LOG_UNDERFLOW:
            depth += 1

        # the density itself varies like exp(-c/u^gamma) over the left half;
        # beyond the mesh it underflows doubles entirely
        return self._dyadic_rule(depth, x_scale, order, 0.0, x_left=max(x_scale, c * 4.0**g))


class TabulatedWeight(RadialWeight):
    """A weight given only by a sampler s -> w(s) >= 0 on [0, 1).

    Samples are taken lazily on the dyadic mesh graded toward 1 and cached;
    tails beyond the resolved mesh are extrapolated geometrically from the
    last cells, and the extrapolation failing to shrink raises
    :class:`QuadratureError` with the residual estimate.
    """

    def __init__(self, sampler, label="tabulated", amplitude=1.0, check=True):
        try:
            out = np.asarray(sampler(np.array([0.0, 0.25, 0.5])), dtype=float)
            if out.shape != (3,):
                raise TypeError
            self._sampler = sampler
        except Exception:
            self._sampler = np.vectorize(sampler, otypes=[float])
        super().__init__(label, amplitude)
        self._cells = {}  # j -> (nodes, Gauss weights, sampler values, cell integral)
        self._order = 12
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

    def _cell(self, j):
        """Cached Gauss data for the dyadic cell [1-2^-j, 1-2^-(j+1)]."""
        try:
            return self._cells[j]
        except KeyError:
            pass
        lo, hi = 1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1)
        x, w = quad.cell_nodes(lo, hi, self._order)
        dens = np.asarray(self._sampler(x), dtype=float)
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise DomainError(f"{self.label}: sampler must be finite and >= 0 on [0, 1)")
        entry = (x, w, dens, float(np.dot(w, dens)))
        self._cells[j] = entry
        return entry

    def _mesh_extent(self, min_depth=4):
        """Resolve cells until the tail estimate beyond them is negligible.

        Returns (depth, boundary_estimate); both exclude the amplitude.
        The criterion needs three consecutive negligible cells so that
        weights vanishing on single annuli are not truncated early, and
        ``min_depth`` lets rule construction push the mesh past the point
        where a peaked integrand s^x concentrates.
        """
        total = 0.0
        vals = []
        for j in range(quad.MAX_MESH_DEPTH):
            val = self._cell(j)[3]
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

    def _tail_raw(self, r):
        """Tail without the amplitude factor."""
        depth, boundary = self._mesh_extent()
        if r == 0.0:
            return sum(self._cell(j)[3] for j in range(depth)) + boundary
        u = 1.0 - r
        j0 = min(int(math.floor(-math.log2(u))), depth - 1)
        # partial piece of cell j0 from r to its right edge
        hi = 1.0 - 2.0 ** (-j0 - 1)
        part = 0.0
        if hi > r:
            x, w = quad.cell_nodes(r, hi, self._order)
            part = float(np.dot(w, np.asarray(self._sampler(x), dtype=float)))
        rest = sum(self._cell(j)[3] for j in range(j0 + 1, depth))
        return part + rest + boundary

    def log_tail(self, r):
        _check_radius(r)
        t = self._tail_raw(r)
        if t <= 0.0:
            raise DomainError(
                f"{self.label}: tail vanishes at r = {r}; weights must keep "
                "positive mass up to the boundary"
            )
        return math.log(t) + math.log(self.amplitude)

    def _build_rule(self, x_scale, order):
        # the mesh must reach past 1 - 1/x_scale, where s^x_scale still
        # moves; 12 dyadic levels beyond leave it flat to 2^-12
        peak_depth = int(math.ceil(math.log2(max(x_scale, 2.0)))) + 12
        depth, boundary = self._mesh_extent(min_depth=min(peak_depth, quad.MAX_MESH_DEPTH - 1))
        return self._dyadic_rule(depth, x_scale, order, boundary * self.amplitude)

    def _dyadic_cell(self, j, order):
        # at the cache's order the cell reuses the cached samples
        if order != self._order:
            return super()._dyadic_cell(j, order)
        x, w, dens, _ = self._cell(j)
        return x, w * dens * self.amplitude, dens * self.amplitude


def scaled_weight(omega, mu, p):
    """The weight s -> omega(s) * tail_mu(s)^p as a tabulated weight."""
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


def default_r_grid(w, i_max=DEFAULT_I_MAX):
    """Dyadic radii 1 - 2^-i, truncated where the tail falls below
    TAIL_FLOOR_RATIO of the total mass (and hard-capped at i = 30)."""
    lt0 = w.log_tail(0.0)
    floor = math.log(TAIL_FLOOR_RATIO)
    radii = []
    for i in range(min(i_max, HARD_I_CAP) + 1):
        r = 1.0 - 2.0 ** (-i)
        if w.log_tail(r) - lt0 <= floor:
            break
        radii.append(r)
    if not radii:
        raise DomainError(f"{w.label}: no usable radii (tail collapses immediately)")
    return np.array(radii)


def _dcheck_curve(w, k, r_grid, log_tails):
    """(radii, tail(r) / tail(1 - (1-r)/k)) given the log tails on ``r_grid``,
    stopped where the log ratio leaves the +-700 range exp() keeps finite."""
    vals = []
    for r, lt in zip(r_grid, log_tails):
        log_ratio = lt - w.log_tail(1.0 - (1.0 - float(r)) / k)
        if abs(log_ratio) > 700.0:
            break
        vals.append(log_ratio)
    return r_grid[:len(vals)], np.exp(np.array(vals))


def default_x_grid(x_max=DEFAULT_X_MAX, per_decade=X_PER_DECADE):
    n = int(math.ceil(per_decade * math.log10(x_max)))
    return np.unique(np.concatenate([[1.0], 10.0 ** (np.arange(n + 1) / per_decade)]))


def classify(w, r_grid=None, k_set=DEFAULT_K_SET, x_grid=None):
    """Sample the doubling-ratio curves of ``w`` and render class verdicts.

    Curves reported:

    * ``dhat``          tail(r) / tail((1+r)/2) on the dyadic r-grid
    * ``dcheck[k]``     tail(r) / tail(1 - (1-r)/k) per tested k, kept while
                        inside double range
    * ``moment[k]``     moment(x) / moment(kx) per tested k
    * ``moment_vs_tail``  moment(x) / tail(1 - 1/x), the comparability curve

    Verdicts are heuristics over the finite grids: the upper class needs the
    running sup of ``dhat`` to stabilize, the lower classes need a running
    inf to stabilize strictly above 1 for some k.  The exact thresholds are
    echoed in the report.
    """
    used_defaults = r_grid is None and x_grid is None and tuple(k_set) == DEFAULT_K_SET
    if used_defaults and w._classify_memo is not None:
        return w._classify_memo
    k_set = tuple(int(k) for k in k_set)
    if len(k_set) == 0 or any(k < 2 for k in k_set):
        raise DomainError(f"k_set must hold integers >= 2, got {k_set!r}")
    default_grid = r_grid is None
    r_grid = default_r_grid(w) if default_grid else np.asarray(r_grid, dtype=float)
    x_grid = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=float)
    if r_grid.size == 0 or x_grid.size == 0:
        raise DomainError("classification grids must be non-empty")
    if np.any(r_grid < 0) or np.any(r_grid >= 1):
        raise DomainError("r_grid must lie inside [0, 1)")
    if np.any(x_grid < 1):
        raise DomainError("x_grid must lie inside [1, x_max]")

    log_tails = np.array([w.log_tail(float(r)) for r in r_grid])
    curves = {}

    mid_lt = np.array([w.log_tail((1.0 + float(r)) / 2.0) for r in r_grid])
    curves["dhat"] = (r_grid, np.exp(log_tails - mid_lt))

    per_k = {}
    dcheck_verdicts = {}
    for k in k_set:
        curve = curves[f"dcheck[{k}]"] = _dcheck_curve(w, k, r_grid, log_tails)
        if default_grid:
            w._dcheck_memo[k] = curve  # what dcheck_margin(w, k) reads
        verdict, info = _inf_margin_verdict(curve[1])
        dcheck_verdicts[k] = verdict
        per_k[f"dcheck[{k}]"] = {"verdict": verdict, **info}

    # moment curves; drop grid points whose moments leave double precision
    moments = []
    xs_ok = []
    for x in x_grid:
        try:
            moments.append(w.moment(float(x)))
            xs_ok.append(float(x))
        except QuadratureError:
            break
    xs_ok = np.array(xs_ok)
    moments = np.array(moments)

    m_verdicts = {}
    for k in k_set:
        vals = []
        xs_k = []
        for x, mom in zip(xs_ok, moments):
            try:
                vals.append(mom / w.moment(float(k * x)))
                xs_k.append(x)
            except QuadratureError:
                break
        vals = np.array(vals)
        curves[f"moment[{k}]"] = (np.array(xs_k), vals)
        verdict, info = _inf_margin_verdict(vals)
        m_verdicts[k] = verdict
        per_k[f"moment[{k}]"] = {"verdict": verdict, **info}

    # comparability curve moment(x) / tail(1 - 1/x), kept while it stays
    # inside double range (it genuinely explodes outside the upper class)
    comp = []
    comp_xs = []
    for x, mom in zip(xs_ok, moments):
        log_ratio = math.log(mom) - w.log_tail(1.0 - 1.0 / x if x > 1 else 0.0)
        if abs(log_ratio) > 700.0:
            break
        comp.append(math.exp(log_ratio))
        comp_xs.append(x)
    curves["moment_vs_tail"] = (np.array(comp_xs), np.array(comp))

    dhat_verdict, dhat_info = _sup_verdict(curves["dhat"][1])
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
        x_grid=xs_ok,
        k_set=k_set,
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
    if used_defaults:
        w._classify_memo = report
    return report


def dhat_verdict(w):
    """Cached upper-doubling verdict used as a sanity gate elsewhere."""
    return classify(w).verdicts["dhat"]


def dcheck_margin(w, k):
    """Lower-doubling verdict of ``w`` for one specific k, its curve on the
    default r-grid memoized per weight and k."""
    memo = w._dcheck_memo
    if k not in memo:
        r_grid = default_r_grid(w)
        memo[k] = _dcheck_curve(w, k, r_grid, [w.log_tail(float(r)) for r in r_grid])
    return _inf_margin_verdict(memo[k][1])
