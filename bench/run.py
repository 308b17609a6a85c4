"""bergweight benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload sweep-p2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; bergweight is imported from
``src/`` there.  One caller runs the workload's fixed operation list in
whole rounds, each operation starting when the previous one returns, until
``--seconds`` have passed.  Outputs are checked after the timed rounds.

``--trace 0`` reports the end-to-end metrics (setup_s, ops_per_cpu_s,
op_cpu_p50_s, peak_rss_mb), timed in CPU seconds of the whole process.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics per traced round plus the tracing overhead; its spans are
written to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
SETUP_PROBES = 5


def _import_package():
    """Import bergweight from this checkout's src/, or exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "bergweight", "__init__.py")):
        print(f"error: no bergweight sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    package = importlib.import_module("bergweight")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        print(f"error: imported bergweight from {package.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    importlib.import_module("bergweight.cli")
    return package


def _setup(workload, seed):
    """Import, build inputs, warm up; the same steps a setup probe times."""
    package = _import_package()
    import workloads

    out_dir = os.path.join(RUNS, f"{workload}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](package, seed, out_dir)
    wl.warm_up()
    return package, wl


def _probe_setup(workload, seed):
    """Medians over fresh interpreters of the CPU time and the wall time from
    process start to a warmed-up workload."""
    cpu, wall = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
        word, _, seconds = line.strip().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r} {err[-2000:]}")
        cpu.append(float(seconds))
        wall.append(elapsed)
    return statistics.median(cpu), statistics.median(wall)


def _run_round(ops):
    """One pass over the op list: (op index, wall s, CPU s, output, error) each.

    CPU time is the whole process's, so it includes scipy.fft's worker threads.
    """
    results = []
    for i, op in enumerate(ops):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation's failure is data, not a crash
            out, err = None, exc
        results.append((i, time.perf_counter() - wall, time.process_time() - cpu, out, err))
    return results


def _judge(wl, rounds, oracles, log):
    """Check outputs; returns the failed (round, op) pairs and whether every
    failure is the known fault of its operation."""
    import workloads

    wl.prepare(oracles)
    first = {}
    failed = set()
    correct = True
    for k, results in enumerate(rounds):
        for i, _, _, out, err in results:
            op = wl.ops[i]
            if err is not None:
                failed.add((k, i))
                if op.known_fault is None:
                    correct = False
                    log(f"FAIL {op.name}: raised {err!r}")
                continue
            if i not in first:
                try:
                    op.check(out)
                    first[i] = (True, op.digest(out))
                except workloads.CheckFailed as exc:
                    first[i] = (False, None)
                    log(f"FAIL {op.name}: {exc}")
                except Exception as exc:  # output too malformed to check
                    first[i] = (False, None)
                    log(f"FAIL {op.name}: check raised {exc!r}")
            ok, digest = first[i]
            if not ok or op.digest(out) != digest:
                if ok:
                    log(f"FAIL {op.name}: output differs between rounds")
                failed.add((k, i))
                correct = False
    for name, fn in wl.final_checks:
        try:
            fn()
        except workloads.CheckFailed as exc:
            log(f"FAIL {name}: {exc}")
            correct = False
    return failed, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-p2", "sweep-frac-p"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed)
        # CPU time since the interpreter started, before it tears down
        print(f"ready {time.process_time()!r}", flush=True)
        return 0

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    package, wl = _setup(args.workload, args.seed)
    if args.trace:
        import tracing

        # untraced and traced rounds alternate, so that drift of the machine
        # does not land on one side of the overhead estimate
        tracer = tracing.Tracer(package)
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(_run_round(wl.ops))
            tracer.install()
            try:
                traced.append(_run_round(wl.ops))
            finally:
                tracer.uninstall()
        untraced_s = statistics.median(sum(r[1] for r in rnd) for rnd in untraced)
        traced_s = statistics.median(sum(r[1] for r in rnd) for rnd in traced)
        rounds = untraced + traced
        tracer.dump(os.path.join(RUNS, f"trace-{args.workload}-{args.seed}.jsonl"))
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.metrics(len(traced), traced_s - untraced_s).items()}
    else:
        setup_s, setup_wall_s = _probe_setup(args.workload, args.seed)
        # whole rounds, at least one, until --seconds have passed
        start = time.perf_counter()
        rounds = [_run_round(wl.ops)]
        # the peak of one pass over the list, as one CLI process per
        # experiment sees it; later rounds add only the allocator's drift
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while time.perf_counter() - start < args.seconds:
            rounds.append(_run_round(wl.ops))

    import oracles

    failed, correct = _judge(wl, rounds, oracles, log)
    attempted = sum(len(r) for r in rounds)
    if not args.trace:
        # Times are CPU seconds of the whole process: on a shared virtual
        # machine the wall time also counts the spells in which the host runs
        # other guests, which moved a run's wall-clock figures by up to 50%.
        ok = [(k, i) not in failed for k, r in enumerate(rounds) for i, *_ in r]
        cpu = [c for r in rounds for _, _, c, _, _ in r]
        wall = [w for r in rounds for _, w, _, _, _ in r]
        done_cpu = [c for c, good in zip(cpu, ok) if good]
        done_wall = [w for w, good in zip(wall, ok) if good]
        # the fixed list's completed count over the CPU time of a typical
        # round: the sum of each operation's median over the run's rounds
        completed = statistics.median(sum((k, i) not in failed for i, *_ in r)
                                      for k, r in enumerate(rounds))
        typical_round_s = sum(statistics.median(r[i][2] for r in rounds)
                              for i in range(len(wl.ops)))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_cpu_s": {"value": completed / typical_round_s, "unit": "1/s"},
            "op_cpu_p50_s": {"value": statistics.median(done_cpu), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        # reference figures for the README, not metrics: wall-clock figures,
        # and the tail of a run's few kinds of op, which is no percentile
        # worth gating on
        log(f"info: rounds={len(rounds)} ops={len(done_cpu)} wall_s={sum(wall):.3f} "
            f"cpu_per_wall={sum(cpu) / sum(wall):.3f} setup_wall_s={setup_wall_s:.3f} "
            f"ops_per_wall_s={len(done_wall) / sum(wall):.4f} "
            f"op_wall_p50_s={statistics.median(done_wall):.4f} "
            f"op_cpu_p90_s={statistics.quantiles(done_cpu, n=10)[-1]:.4f} "
            f"op_cpu_max_s={max(done_cpu):.4f}")
    else:
        log(f"info: rounds={len(untraced)}+{len(traced)} untraced_round_s={untraced_s:.3f} "
            f"traced_round_s={traced_s:.3f} spans={len(tracer.spans)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
