"""Spans around bergweight's public functions, installed from outside the package.

Each wrapper replaces the function under every name a caller looks it up by:
``norms`` imports ``circle_power_means`` from ``series`` by name, ``verify``
imports ``bergman_norm`` by name, and so on, so every module attribute that
holds the original function object is swapped.  Methods are swapped on the
class that defines them.  Spans (name, start, end, parent) stay in memory;
a layer's self time is its span's duration minus its child spans' durations.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# (module, function) pairs; the layer name is "<module>.<function>"
FUNCTIONS = (
    ("series", "circle_power_means"),
    ("series", "frac_deriv_mu"),
    ("norms", "_power_means"),
    ("norms", "bergman_norm"),
    ("norms", "block_norm"),
    ("norms", "hardy_norm"),
    ("weights", "classify"),
    ("weights", "dcheck_margin"),
    ("quadrature", "adaptive_gauss"),
    ("quadrature", "subdivided_nodes"),
    ("cesaro", "build_basis"),
    ("cesaro", "block"),
    ("verify", "equivalence_sweep"),
    ("verify", "lp_ratio"),
    ("verify", "norm_equivalence_check"),
    ("verify", "monomial_necessity_curve"),
    ("verify", "suma_check"),
    ("cli", "parse_config"),
    ("cli", "emit"),
)

# (module, class, method, layer name)
METHODS = (
    ("weights", "RadialWeight", "radial_rule", "weights.radial_rule"),
    ("weights", "RadialWeight", "moment", "weights.moment"),
    ("weights", "StandardWeight", "log_tail", "weights.log_tail"),
    ("weights", "LogWeight", "log_tail", "weights.log_tail"),
    ("weights", "ExponentialWeight", "log_tail", "weights.log_tail"),
    ("weights", "TabulatedWeight", "log_tail", "weights.log_tail"),
)

# per-layer metrics reported by a traced run: (name, unit, better)
COUNT_METRICS = (
    "series.circle_power_means.calls",
    "series.circle_power_means.fft_points",
    "norms.bergman_norm.calls",
    "norms.ladder_rounds",
    "norms.cap_hits",
    "norms.block_norm.calls",
    "norms.hardy_norm.calls",
    "weights.radial_rule.calls",
    "weights.radial_rule.nodes",
    "weights.log_tail.calls",
    "weights.moment.calls",
    "weights.dcheck_margin.calls",
    "quadrature.adaptive_gauss.calls",
    "cesaro.build_basis.calls",
    "cesaro.block.calls",
    "cli.emit.bytes",
)
MAX_METRICS = (
    ("series.circle_power_means.max_q", "count"),
    ("series.circle_power_means.max_batch_mb", "MB"),
)
SELF_TIME_LAYERS = (
    "series.circle_power_means",
    "series.frac_deriv_mu",
    "norms.power_means",
    "norms.bergman_norm",
    "norms.block_norm",
    "weights.radial_rule",
    "weights.log_tail",
    "weights.moment",
    "weights.classify",
    "weights.dcheck_margin",
    "quadrature.adaptive_gauss",
    "quadrature.subdivided_nodes",
    "cesaro.build_basis",
    "cesaro.block",
    "verify.equivalence_sweep",
    "verify.lp_ratio",
    "verify.norm_equivalence_check",
    "verify.monomial_necessity_curve",
    "verify.suma_check",
    "cli.parse_config",
    "cli.emit",
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(name, "count", "lower") for name in COUNT_METRICS]
    out += [(name, unit, "lower") for name, unit in MAX_METRICS]
    out += [(f"{layer}.self_s", "s", "lower") for layer in SELF_TIME_LAYERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def _layer_name(module, name):
    return f"{module}.{name.lstrip('_')}"


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []          # [span index, name, start, child time, extra]
        self.self_time = {}
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.maxima = {name: 0.0 for name, _ in MAX_METRICS}
        self._undo = []
        self.cap_q = package.norms.CIRCLE_Q_CAP

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name, extra=None):
        index = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self.stack.append([index, name, time.perf_counter(), 0.0, extra])

    def _exit(self):
        end = time.perf_counter()
        index, name, start, child, _ = self.stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end
        duration = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self.stack:
            self.stack[-1][3] += duration

    def _count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- per-layer hooks -----------------------------------------------------

    def _before(self, name, args):
        """Counters taken from a call's arguments; returns span extra data."""
        if name == "series.circle_power_means":
            radii = np.atleast_1d(args[1]).size
            q = int(args[3])
            self._count("series.circle_power_means.fft_points", radii * q)
            self.maxima["series.circle_power_means.max_q"] = max(
                self.maxima["series.circle_power_means.max_q"], q)
            # the batch is chunked to rows * q <= 2^22 complex entries
            rows = min(radii, max(1, (1 << 22) // max(q, 1)))
            self.maxima["series.circle_power_means.max_batch_mb"] = max(
                self.maxima["series.circle_power_means.max_batch_mb"], rows * q * 16 / 2**20)
            if q >= self.cap_q:
                self._count("norms.cap_hits", radii)
            for frame in reversed(self.stack):
                if frame[1] == "norms.power_means":
                    if q > frame[4]:
                        self._count("norms.ladder_rounds")
                    break
            return None
        if name == "norms.power_means":
            # args: coeffs, radii, p, degree, settings -> base sample count
            return args[4].q_for(args[3])
        return None

    def _after(self, name, args, result):
        if name == "weights.radial_rule":
            self._count("weights.radial_rule.nodes", int(result.nodes.size))
        elif name == "cli.emit":
            path = args[2]
            if os.path.exists(path):
                self._count("cli.emit.bytes", os.path.getsize(path))

    def _wrap(self, name, fn):
        counted = f"{name}.calls" if f"{name}.calls" in self.counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                self.counts[counted] += 1
            extra = self._before(name, args)
            self._enter(name, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self._after(name, args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")]
        for module_name, fn_name in FUNCTIONS:
            original = getattr(getattr(self.package, module_name), fn_name)
            wrapper = self._wrap(_layer_name(module_name, fn_name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        for module_name, cls_name, method, layer in METHODS:
            cls = getattr(getattr(self.package, module_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(layer, original))
            self._undo.append((cls, method, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self, rounds, overhead_s):
        """Per-round values of every per-layer metric."""
        out = {}
        for name in COUNT_METRICS:
            total = self.counts.get(name, 0)
            out[name] = total // rounds if total % rounds == 0 else total / rounds
        for name, _ in MAX_METRICS:
            out[name] = self.maxima[name]
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self.self_time.get(layer, 0.0) / rounds
        out["trace.overhead_s"] = overhead_s
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}, separators=(",", ":")) + "\n")
