"""Command-line entry point: config parsing, experiment dispatch, CSV/JSON emission.

Every experiment, its keys, flags, expectation and runner come from the
table ``verify.EXPERIMENTS``; this module only reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError, QuadratureError, ResourceError
from . import verify


@dataclass
class RunConfig:
    """Validated experiment definition; ``raw`` is the normalized text."""

    experiment: str
    raw: str
    values: dict = field(default_factory=dict)
    seed: int = verify.DEFAULT_SEED

    def __getattr__(self, name):
        # the keys the experiment reads are attributes, their default when unset
        keys = verify.EXPERIMENTS[object.__getattribute__(self, "experiment")].keys
        if name in keys:
            return object.__getattribute__(self, "values").get(name, keys[name].default)
        raise AttributeError(name)

    def require(self, key):
        val = self.values.get(key)
        if val is None:
            raise ConfigError(f"experiment {self.experiment!r} needs {key}", key=key)
        return val

    @property
    def config_hash(self):
        return hashlib.sha256(self.raw.encode("utf-8")).hexdigest()


def parse_config(text):
    """Parse ``key = value`` lines (with # comments) into a RunConfig.

    Only the keys the experiment reads are accepted, each converted and
    checked as its table entry declares, ``expect`` against the
    experiment's grammar.  Required keys are checked when the run starts.
    """
    assignments = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in assignments:
            raise ConfigError(f"duplicate key {key!r}", line=line_no, key=key)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line=line_no, key=key)
        assignments[key] = (value, line_no)

    if "experiment" not in assignments:
        raise ConfigError("config must set experiment = <name>", key="experiment")
    experiment, exp_line = assignments.pop("experiment")
    spec = verify.EXPERIMENTS.get(experiment)
    if spec is None:
        raise ConfigError(
            f"unknown experiment {experiment!r} (see --list-experiments)",
            line=exp_line, key="experiment",
        )

    values = {}
    for key, (value, line_no) in assignments.items():
        if key not in spec.keys:
            raise ConfigError(f"experiment {experiment!r} does not read key {key!r}",
                              line=line_no, key=key)
        try:
            values[key] = spec.keys[key].convert(value)
            if key == "expect":
                spec.expect(value)
        except ValueError as exc:  # includes DomainError from weight specs
            raise ConfigError(str(exc), line=line_no, key=key) from None
    for key, (_, line_no) in assignments.items():
        if spec.keys[key].only:
            gate, allowed = spec.keys[key].only
            if values.get(gate, spec.keys[gate].default) not in allowed:
                raise ConfigError(f"experiment {experiment!r} reads {key!r} only when "
                                  f"{gate} is {' or '.join(allowed)}", line=line_no, key=key)

    normalized = "\n".join(
        [f"experiment = {experiment}"]
        + [f"{k} = {v[0]}" for k, v in sorted(assignments.items())]
    )
    seed = values.get("seed", verify.DEFAULT_SEED)
    return RunConfig(experiment=experiment, raw=normalized, values=values, seed=seed)


# ---------------------------------------------------------------------------
# emission


def _format_cell(value):
    if isinstance(value, float):  # incl. numpy float subclasses
        return repr(float(value))
    return str(value)


def emit(report, fmt, path, meta=None):
    """Write a report as CSV or JSON, plus a sibling ``.meta`` file."""
    rows = report.rows()
    if not rows:
        raise DomainError("refusing to emit an empty report")
    if fmt == "csv":
        lines = [",".join(report.header())]
        lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        raise DomainError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    meta_payload = {"format": fmt}
    if meta:
        meta_payload.update(meta)
    with open(str(path) + ".meta", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta_payload, indent=2, sort_keys=True) + "\n")


def _emit_from_config(report, cfg, out_override=None, fmt_override=None):
    out = out_override or cfg.values.get("out")
    if not out:
        return
    fmt = fmt_override or cfg.values.get("format")
    if not fmt:
        fmt = "json" if str(out).endswith(".json") else "csv"
    emit(report, fmt, out, meta={"config_sha256": cfg.config_hash, "seed": cfg.seed})


# ---------------------------------------------------------------------------
# running


def run_config(cfg, out_override=None, fmt_override=None):
    """Run one config; returns the process exit code."""
    spec = verify.EXPERIMENTS[cfg.experiment]
    if (out_override or fmt_override) and "out" not in spec.keys:
        raise ConfigError(f"experiment {cfg.experiment!r} writes no report", key="out")
    if (fmt_override or cfg.values.get("format")) and not (out_override or cfg.values.get("out")):
        raise ConfigError("a report format needs an output path (out)", key="format")
    report = verify.run_experiment(cfg)
    print(report.verdict_line)
    expect = cfg.values.get("expect")
    ok = None
    if expect:
        ok = spec.expect(expect)(report)
        report.passed = ok
        print(f"expectation {expect!r}: {'pass' if ok else 'FAIL'}")
    _emit_from_config(report, cfg, out_override, fmt_override)
    return 0 if ok in (None, True) else 1


# ---------------------------------------------------------------------------
# argparse wiring


class _OneCommandError(Exception):
    """A parse error of a parser built for one command: the full parser
    reports it, with the full usage text."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OneCommandError(message)


def _build_parser(command=None):
    """The CLI's parser, or with ``command`` (``run`` or an experiment
    command's first word) the same parser with that command's subparser
    alone, whose parse errors raise _OneCommandError: a subparser's help and
    usage text do not depend on its siblings, but the top-level usage does."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="bergweight",
        description="radial-weight diagnostics and weighted-norm experiments",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"bergweight {__version__}")
    parser.add_argument("--list-experiments", action="store_true",
                        help="list experiment names and exit")
    sub = parser.add_subparsers(dest="command")

    if command in (None, "run"):
        run = sub.add_parser("run", help="run an experiment from a config file")
        run.add_argument("--config", required=True)
        run.add_argument("--out")
        run.add_argument("--format", choices=("csv", "json"))

    groups = {}  # first word of a two-word command -> its subparsers
    for spec in verify.EXPERIMENTS.values():
        words = spec.command.split()
        if command not in (None, words[0]):
            continue
        *group, leaf = words
        parent = sub
        if group:
            if group[0] not in groups:
                groups[group[0]] = sub.add_parser(group[0], help=spec.blurb).add_subparsers(
                    dest="subcommand", required=True)
            parent = groups[group[0]]
        cmd = parent.add_parser(leaf, help=spec.blurb)
        cmd.set_defaults(experiment=spec.name)
        for key in spec.keys.values():
            flag = "--" + key.name.replace("_", "-")
            if key.kind == "bool":
                cmd.add_argument(flag, dest=key.name, action="store_true", help=key.help)
            else:
                cmd.add_argument(flag, dest=key.name, type=key.flag_type, help=key.help,
                                 required=key.required, choices=key.choices or None)
    return parser


#: the first words of the commands, each of which has a subparser of its own
COMMANDS = frozenset(["run"] + [spec.command.split()[0] for spec in verify.EXPERIMENTS.values()])


def _parse_args(argv):
    """``argv`` parsed with the subparser of the command it starts with
    alone, which is all that a command reads; any other ``argv``, and any
    parse error, goes to the full parser, which prints its usage and error
    text as it always has."""
    if argv and argv[0] in COMMANDS:
        try:
            return _build_parser(argv[0]).parse_args(argv)
        except _OneCommandError:
            pass
    return _build_parser().parse_args(argv)


def _config_text_from_args(spec, args):
    lines = [f"experiment = {spec.name}"]
    for key in spec.keys:
        value = getattr(args, key)
        if value is None or value is False:
            continue
        if value is True:
            value = "true"
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))

    if args.list_experiments:
        for name, spec in verify.EXPERIMENTS.items():
            print(f"{name:16s} {spec.blurb}")
        return 0
    if args.command is None:
        _build_parser().print_help()
        return 2

    try:
        if args.command == "run":
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            return run_config(cfg, out_override=args.out, fmt_override=args.format)
        spec = verify.EXPERIMENTS[args.experiment]
        try:
            return run_config(parse_config(_config_text_from_args(spec, args)))
        except ConfigError as exc:
            # the config text was built from the flags: name the flag, not a line of it
            flag = f" (flag --{exc.key.replace('_', '-')})" if exc.key else ""
            raise ConfigError(exc.reason + flag) from None
    except (ConfigError, DomainError, ResourceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
