"""Gauss-Legendre building blocks for integrands that concentrate near s = 1.

Everything here works on [0, 1) (or a transformed axis) with dyadic grading
toward the right endpoint, because every integral in this package either
degenerates or piles up its mass at the boundary of the disc.  ``cell_nodes``
and ``subdivided_nodes`` take arrays of intervals, so a whole radial rule is
laid out in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: Deepest dyadic cell 1 - 2^-j that keeps 1 - s representable in doubles.
MAX_MESH_DEPTH = 48
THETA = 6.0  # variation of log(s^x * w) that one Gauss cell of a radial rule absorbs
SPLIT_CAP = 256  # most equal parts a dyadic cell of a radial rule is cut into
PEAK_MARGIN = 32.0  # log drop below the integrand's peak past which a cell stays whole
GAUSS_REL_TOL = 1e-13  # relative tolerance of adaptive_gauss
GAUSS_ORDER = 16  # Gauss order of each adaptive_gauss cell
GAUSS_MAX_DEPTH = 46  # most bisections of an adaptive_gauss cell
#: orders per block of ``RadialRule.odd_moments``' table; every block has this
#: many, so no entry depends on how long a table was asked for
MOMENT_BLOCK = 64


def gauss_rule(order):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], cached."""
    try:
        return _GAUSS_CACHE[order]
    except KeyError:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = (nodes, weights)
        return nodes, weights


def cell_nodes(lo, hi, order):
    """Gauss-Legendre nodes/weights mapped onto the interval [lo, hi].

    Array ``lo`` and ``hi`` give one row of nodes per interval.
    """
    x, w = gauss_rule(order)
    if np.ndim(lo) or np.ndim(hi):
        lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def subdivided_nodes(lo, hi, parts, order):
    """Nodes/weights for [lo, hi] split into ``parts`` equal Gauss cells.

    ``lo``, ``hi`` and ``parts`` may be arrays: each interval is split on its
    own and the nodes come out interval by interval, left to right.  The
    edges are those of ``np.linspace(lo, hi, parts + 1)``, bit for bit.
    """
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    parts = np.maximum(np.broadcast_to(parts, lo.shape), 1)
    cell = np.repeat(np.arange(lo.size), parts)
    k = np.arange(cell.size) - np.repeat(np.cumsum(parts) - parts, parts)
    n, a, b = parts[cell], lo[cell], hi[cell]
    step = (b - a) / n
    left = k * step + a
    right = np.where(k + 1 == n, b, (k + 1) * step + a)
    x, w = cell_nodes(left, right, order)
    return x.ravel(), w.ravel()


def adaptive_gauss(fn, lo, hi):
    """Globally adaptive Gauss-Legendre integral of a vectorized ``fn``.

    Order-GAUSS_ORDER cells are bisected until the refinement correction is
    below a width-proportional share of GAUSS_REL_TOL times the running
    total, or GAUSS_MAX_DEPTH bisections deep.  Raises
    :class:`QuadratureError` when the unresolved residual there stays
    above 1e-9 of the total.  The weights' tails no longer call it (each
    family has an array routine); it stays a public integrator, and
    bench/tracing.py still counts its calls.
    """
    if hi <= lo:
        return 0.0

    def estimate(a, b):
        x, w = cell_nodes(a, b, GAUSS_ORDER)
        return float(np.dot(w, fn(x)))

    first = estimate(lo, hi)
    scale = max(abs(first), 1e-300)
    total = 0.0
    residual = 0.0
    stack = [(lo, hi, first, 0)]
    while stack:
        a, b, coarse, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = estimate(a, mid)
        right = estimate(mid, b)
        fine = left + right
        err = abs(fine - coarse)
        budget = GAUSS_REL_TOL * scale * max((b - a) / (hi - lo), 1e-6)
        if err <= budget or depth >= GAUSS_MAX_DEPTH:
            total += fine
            if err > budget:
                residual += err
            scale = max(scale, abs(total))
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    if residual > 1e-9 * max(abs(total), 1e-300):
        raise QuadratureError(
            f"adaptive quadrature left a residual of {residual:.3e} "
            f"against total {total:.3e}",
            residual=residual,
        )
    return total


@dataclass(frozen=True)
class RadialRule:
    """Fixed quadrature rule for integrals of g(s) against a radial weight.

    ``integrate`` expects the values of g at ``nodes`` plus g(1);
    ``boundary_mass`` carries the weight mass beyond the resolved mesh,
    attributed to the endpoint (the weights here are the density values
    already multiplied in, so plain dot products remain).
    """

    nodes: np.ndarray
    weights: np.ndarray
    boundary_mass: float
    #: ``odd_moments``' table so far, in a box that a grown table replaces
    _moment_table: list = field(default_factory=lambda: [np.zeros(0)], init=False,
                                compare=False, repr=False)

    def integrate(self, g_nodes, g_one=0.0):
        return float(np.dot(self.weights, g_nodes)) + self.boundary_mass * g_one

    def odd_moments(self, count):
        """``integrate(nodes**(2n + 1), 1.0)`` for n < count, kept with the rule
        (a read-only view of the rule's table).

        The table grows by whole blocks of MOMENT_BLOCK orders, and a block's
        values do not depend on when it was built or on what was asked for
        before, so threads that grow it at once store the same values
        whichever of them stores last.
        """
        table = self._moment_table[0]
        if table.size < count:
            table = np.concatenate([table, self._moment_blocks(table.size, count)])
            table.flags.writeable = False
            self._moment_table[0] = table
        return table[:count]

    def _moment_blocks(self, first, count):
        """The table's entries from order ``first``, a block boundary, through
        the block that holds order count - 1.

        Block k is sum_i (mass_i r_i^(2 k B)) r_i^(2j), j < B = MOMENT_BLOCK,
        mass_i = weights_i nodes_i: one power of each node, and one product
        with the squares of the nodes' first B powers, which every block
        shares.  The nodes go in chunks whose power tables hold 2^16 entries,
        so a table costs no more memory than a chunk.
        """
        starts = np.arange(first, count, MOMENT_BLOCK, dtype=float)
        out = np.full((starts.size, MOMENT_BLOCK), self.boundary_mass)
        chunk = (1 << 16) // MOMENT_BLOCK
        for lo in range(0, self.nodes.size, chunk):
            r = self.nodes[lo : lo + chunk]
            masses = self.weights[lo : lo + chunk] * r
            # (r^j)^2 from the products of r itself: no rounded r^2 is raised
            # to a power
            powers = np.empty((r.size, MOMENT_BLOCK))
            powers[:, 0] = 1.0
            powers[:, 1:] = r[:, None]
            np.cumprod(powers, axis=1, out=powers)
            np.square(powers, out=powers)
            for k, start in enumerate(starts):
                out[k] += (masses * r ** (2.0 * start)) @ powers
        return out.ravel()
