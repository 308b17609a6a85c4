import csv
import json
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import bergweight
from bergweight import StandardWeight, TaylorSeries, suma_check
from bergweight.cli import main, parse_config, emit
from bergweight.errors import ConfigError, DomainError
from bergweight.series import write_series_csv
from bergweight.verify import EXPERIMENTS


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_basic():
    cfg = parse_config(
        "experiment = lp-sweep\nomega = standard:1.0\nmu = standard:1.0\np = 2.0"
    )
    assert cfg.experiment == "lp-sweep"
    assert isinstance(cfg.require("omega"), StandardWeight)
    assert cfg.require("p") == 2.0


def test_parse_config_comments_and_log_weight():
    cfg = parse_config(
        "# a comment\nexperiment = classify\nweight = log:2.0  # inline\n\n"
    )
    w = cfg.require("weight")
    assert w.alpha == 2.0


def test_parse_config_constraint_violations():
    with pytest.raises(ConfigError):
        parse_config("experiment = lp-sweep\np = -1")
    with pytest.raises(ConfigError):
        parse_config("experiment = suma-check\nk = 1")
    with pytest.raises(ConfigError):
        parse_config("experiment = suma-check\ngamma = nope")


def test_parse_config_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = classify\nwibble = 3")
    assert "wibble" in str(err.value) and "line 2" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("experiment = classify\np = 1\np = 2")
    with pytest.raises(ConfigError):
        parse_config("experiment = classify\nnot a pair")
    with pytest.raises(ConfigError):
        parse_config("omega = standard:1.0")  # experiment missing
    with pytest.raises(ConfigError):
        parse_config("experiment = dance")


def test_parse_config_bad_weight_spec_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = classify\nweight = standard:-7")
    assert "line 2" in str(err.value)


def test_config_hash_is_stable():
    text = "experiment = classify\nweight = standard:1.0"
    assert parse_config(text).config_hash == parse_config(text).config_hash
    other = parse_config("experiment = classify\nweight = standard:2.0")
    assert parse_config(text).config_hash != other.config_hash


# ---------------------------------------------------------------------------
# emission


@pytest.fixture()
def small_report(std1):
    return suma_check(std1, 1.0, 2, depth=8)


def test_emit_csv_roundtrip(tmp_path, small_report):
    path = tmp_path / "report.csv"
    emit(small_report, "csv", path, meta={"config_sha256": "x", "seed": 1})
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(small_report.rows())
    for row, (r, ratio) in zip(rows, zip(small_report.columns["r"],
                                         small_report.columns["sum_ratio"])):
        assert float(row["r"]) == r
        assert abs(float(row["sum_ratio"]) - ratio) <= 1e-15 * abs(ratio)
    meta = json.loads((tmp_path / "report.csv.meta").read_text())
    assert meta["seed"] == 1 and meta["format"] == "csv"


def test_emit_json_summary(tmp_path, small_report):
    path = tmp_path / "report.json"
    emit(small_report, "json", path)
    blob = json.loads(path.read_text())
    summary = blob["summary"]["sum_ratio"]
    assert set(summary) == {"min", "max", "max_over_min"}


def test_emit_rejects_empty_and_bad_format(tmp_path, small_report):
    class Empty:
        def rows(self):
            return []

        def header(self):
            return []

    with pytest.raises(DomainError):
        emit(Empty(), "csv", tmp_path / "nope.csv")
    with pytest.raises(DomainError):
        emit(small_report, "yaml", tmp_path / "nope.yaml")


def test_identical_config_gives_identical_bytes(tmp_path):
    text = ("experiment = lp-sweep\nomega = standard:1.0\nmu = standard:1.0\n"
            "p = 2.0\nfamily = default\nn_max = 16\ndegree = 16\nseed = 99\n")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# command runs


def test_cli_norm_exits_2_when_the_weight_underflows(capsys):
    assert main(["norm", "--f", "monomial:2", "--weight", "exp:1e3,5", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "underflows" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("args", [["--weight", "standard:1"], ["--kind", "hardy"]])
def test_cli_norm_exits_2_past_the_double_range(args, capsys):
    assert main(["norm", "--f", "geometric:0.5,1", *args, "--p", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bergweight" in capsys.readouterr().out


def test_cli_list_experiments(capsys):
    assert main(["--list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "lp-sweep" in out and "classify" in out


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing scipy.special and
    # scipy.fft alone takes about half a CPU second, paid by every CLI call
    src = os.path.dirname(os.path.dirname(os.path.abspath(bergweight.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, bergweight, bergweight.cli; "
            "print(bergweight.__file__); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    where, loaded = run.stdout.splitlines()
    assert os.path.dirname(os.path.dirname(where)) == src
    assert loaded == "[]"


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2


def test_cli_classify_with_expectation(tmp_path, capsys):
    out = tmp_path / "cls.csv"
    code = main(["classify", "--weight", "standard:1.0",
                 "--expect", "d=in,dhat=in", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "classify" in printed and "d=in" in printed
    assert out.exists() and (tmp_path / "cls.csv.meta").exists()


def test_cli_classify_steep_exp_weight_exits_ok(capsys):
    # tail(r) / tail((1+r)/2) passes e^700 at the second dyadic radius here
    assert main(["classify", "--weight", "exp:0.1,8"]) == 0
    assert "classify exp:0.1,8" in capsys.readouterr().out


def test_cli_classify_failed_expectation(capsys):
    code = main(["classify", "--weight", "log:2.0", "--expect", "d=in"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_monomial_curve_expectation(capsys):
    code = main(["monomial-curve", "--omega", "log:2.0", "--mu", "standard:1.0",
                 "--p", "2.0", "--n-max", "500", "--expect", "growing"])
    assert code == 0


def test_cli_suma_json_output(tmp_path):
    out = tmp_path / "suma.json"
    code = main(["suma-check", "--mu", "standard:1.0", "--gamma", "1.0",
                 "--k", "2", "--depth", "10", "--out", str(out), "--format", "json"])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["experiment"] == "suma-check"


def test_cli_bad_spec_is_config_error(capsys):
    assert main(["classify", "--weight", "banana:1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_norm_kinds(tmp_path, capsys):
    series_path = tmp_path / "f.csv"
    write_series_csv(TaylorSeries([1.0, 1.0]), series_path)
    assert main(["norm", "--f", str(series_path), "--p", "2.0", "--kind", "hardy"]) == 0
    out = capsys.readouterr().out
    assert "1.414213" in out
    assert main(["norm", "--f", "monomial:1", "--weight", "standard:0.0",
                 "--p", "2.0", "--kind", "bergman"]) == 0
    out = capsys.readouterr().out
    assert "0.7071" in out  # sqrt(1/2)
    assert main(["norm", "--f", "monomial:3", "--weight", "standard:1.0",
                 "--p", "2.0", "--kind", "block", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "value=0." in out and "np.float64" not in out


def test_cli_cesaro_dump(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    assert main(["cesaro", "dump", "--k", "2", "--N", "16", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "0" and float(rows[0]["coefficient"]) == 1.0
    sums = {}
    for row in rows:
        j = int(row["j"])
        sums[j] = sums.get(j, 0.0) + float(row["coefficient"])
    for j in range(17):
        assert sums[j] == pytest.approx(1.0, abs=1e-12)


def test_cli_run_with_config_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "experiment = monomial-curve\nomega = standard:1.0\nmu = standard:1.0\n"
        "p = 2.0\nn_max = 100\n"
    )
    out = tmp_path / "curve.json"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["experiment"] == "monomial-curve"


def test_cli_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.txt"]) == 2


class _NoAllocation:
    """numpy for the series module, minus the calls that allocate arrays."""

    def __getattr__(self, name):
        if name in ("zeros", "empty", "ones", "arange"):
            raise AssertionError(f"np.{name} called before the size guard")
        return getattr(np, name)


def test_cli_oversized_series_exits_2_before_allocating(tmp_path, monkeypatch, capsys):
    from bergweight import series

    far = tmp_path / "far.csv"
    far.write_text("n,re,im\n0,1,0\n100000000,1,0\n")
    monkeypatch.setattr(series, "np", _NoAllocation())
    for spec in ("monomial:100000000", str(far)):
        assert main(["norm", "--f", spec, "--kind", "hardy", "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err


# ---------------------------------------------------------------------------
# the exit contract: 0 ok, 1 failed expectation, 2 invalid input


def _exit_code(argv):
    """main's return code, or the code argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# command, small valid flags, a passing and a failing expectation (or None),
# and a config line naming a key the experiment does not read
EXIT_CONTRACT = [
    (["classify"], ["--weight", "standard:1"], ("d=in", "d=out"), "seed = 3"),
    # monomials up to z^16 are too few for the sweep to read std1 as bounded
    (["lp-sweep"], ["--omega", "standard:1", "--mu", "standard:1", "--p", "2",
                    "--family", "monomials", "--n-max", "16"], ("growing", "bounded"), "depth = 4"),
    (["monomial-curve"], ["--omega", "log:2", "--mu", "standard:1", "--p", "2", "--n-max", "100"],
     ("growing", "bounded"), "force = true"),
    (["means-check"], ["--mu", "standard:1", "--p", "2", "--family", "monomials",
                       "--n-max", "4", "--depth", "3"], None, "force = true"),
    (["suma-check"], ["--mu", "standard:1", "--gamma", "1", "--k", "2", "--depth", "8"],
     ("growing", "bounded"), "seed = 1"),
    (["norm-equiv"], ["--eta", "standard:1", "--k", "2", "--p", "2", "--family", "monomials",
                      "--n-max", "8"], None, "depth = 4"),
    (["norm"], ["--f", "monomial:2", "--p", "2", "--kind", "hardy"], None, "out = x.csv"),
    (["cesaro", "dump"], ["--k", "2", "--N", "8"], None, "p = 2"),
    # keys read only for some values of another key: the monomial family
    # takes neither seed nor degree, a Hardy norm neither weight, k nor force
    (["lp-sweep"], ["--omega", "standard:1", "--mu", "standard:1", "--p", "2",
                    "--family", "monomials", "--n-max", "16"], ("growing", "bounded"), "seed = 5"),
    (["lp-sweep"], ["--omega", "standard:1", "--mu", "standard:1", "--p", "2",
                    "--family", "monomials", "--n-max", "16"], ("growing", "bounded"), "degree = 9"),
    (["norm"], ["--f", "monomial:2", "--p", "2", "--kind", "hardy"], None, "weight = log:2"),
    (["norm"], ["--f", "monomial:2", "--p", "2", "--kind", "hardy"], None, "k = 3"),
    (["norm"], ["--f", "monomial:2", "--p", "2", "--kind", "hardy"], None, "force = true"),
]


def _row_id(index):
    """The command, plus the unread key for every row after a command's first."""
    command, unread = " ".join(EXIT_CONTRACT[index][0]), EXIT_CONTRACT[index][3]
    first = [" ".join(row[0]) for row in EXIT_CONTRACT].index(command) == index
    return command if first else f"{command} {unread.split(' = ')[0]}"


def _config_lines(experiment, flags):
    pairs = zip(flags[::2], flags[1::2])
    return [f"experiment = {experiment}"] + [f"{f[2:].replace('-', '_')} = {v}" for f, v in pairs]


@pytest.mark.parametrize("command, flags, expectations, unread", EXIT_CONTRACT,
                         ids=[_row_id(i) for i in range(len(EXIT_CONTRACT))])
def test_cli_exit_contract(tmp_path, capsys, command, flags, expectations, unread):
    experiment = "-".join(command)
    writes = command != ["norm"]
    out = [] if not writes else ["--out", str(tmp_path / "flags.csv")]
    assert _exit_code(command + flags + out) == 0
    if writes:
        # a format with nowhere to write it is rejected before any work
        assert _exit_code(command + flags + ["--format", "csv"]) == 2

    if expectations is not None:
        passing, failing = expectations
        assert _exit_code(command + flags + ["--expect", passing]) == 0
        assert _exit_code(command + flags + ["--expect", failing]) == 1
        assert "FAIL" in capsys.readouterr().out
    else:
        # rejected while parsing, before any experiment work
        with pytest.raises(ConfigError):
            parse_config("\n".join(_config_lines(experiment, flags) + ["expect = bounded"]))
        assert _exit_code(command + flags + ["--expect", "bounded"]) == 2

    lines = _config_lines(experiment, flags)
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines + [unread]))
    assert unread.split()[0] in str(err.value)
    cfg_path = tmp_path / "unread.cfg"
    cfg_path.write_text("\n".join(lines + [unread]) + "\n")
    capsys.readouterr()
    assert _exit_code(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    key, value = unread.split(" = ")
    flag = "--" + key.replace("_", "-")
    assert _exit_code(command + flags + ([flag] if value == "true" else [flag, value])) == 2
    # a flag argparse knows is rejected by parse_config, which names the flag
    # and no line of the config text built from the flags
    err = capsys.readouterr().err
    assert "(line" not in err
    if key in EXPERIMENTS[experiment].keys:
        assert err.startswith("error:") and f"(flag {flag})" in err
    assert _exit_code(command + flags + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "(line" not in err
    if "seed" in EXPERIMENTS[experiment].keys:
        assert "(flag --seed)" in err

    if writes:
        # the same run as a config file; --out redirects it without entering the hash
        cfg_path.write_text("\n".join(lines + [f"out = {tmp_path / 'flags.csv'}"]) + "\n")
        config_out = tmp_path / "config.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(config_out)]) == 0
        assert (tmp_path / "flags.csv.meta").read_bytes() == (tmp_path / "config.csv.meta").read_bytes()
        assert (tmp_path / "flags.csv").read_bytes() == config_out.read_bytes()
    else:
        cfg_path.write_text("\n".join(lines) + "\n")
        assert _exit_code(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


# valid flags whose run the numerics refuse, and the word the error must name
REFUSED_RUNS = {
    # moment(2^n)^50 of standard:1 underflows to 0 before the sum settles
    "suma-check": (["suma-check", "--mu", "standard:1", "--gamma", "50", "--k", "2"], "gamma"),
    # the radius 1 - 2^-54 rounds to 1
    "suma-check-depth": (["suma-check", "--mu", "standard:1", "--gamma", "1", "--k", "2",
                          "--depth", "60"], "depth"),
    # a tail integral that comes out 0, on the way to classify's radius grid
    "classify-log": (["classify", "--weight", "log:1e4"], "log:10000"),
}


@pytest.mark.parametrize("argv, named", REFUSED_RUNS.values(), ids=REFUSED_RUNS.keys())
def test_cli_refused_run_exits_2(capsys, argv, named):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec", ["exp:1e-6,1e-6", "exp:1e-3,1e-3"],
                         ids=["classify-exp-1e-6", "classify-exp-1e-3"])
def test_cli_classify_of_a_thin_boundary_layer_against_mpmath(tmp_path, capsys, spec):
    # a = c/u^gamma tiny and 1/gamma huge: the dhat curve holds mpmath's
    # tail ratios on the first radii of the grid
    out = tmp_path / "report.json"
    assert main(["classify", "--weight", spec, "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    dhat = json.loads(out.read_text())["curves"]["dhat"]
    c, g = (mpmath.mpf(v) for v in spec.split(":")[1].split(","))

    def tail(r):
        return mpmath.quad(lambda v: mpmath.exp(-c * v**-g), [0, 1 - mpmath.mpf(r)])

    with mpmath.workdps(30):
        want = [float(tail(r) / tail((1 + r) / 2)) for r in dhat["abscissa"][:6]]
    assert dhat["value"][:6] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cli_keys_read_for_some_values_only(tmp_path, capsys):
    sweep = ["lp-sweep", "--omega", "standard:1", "--mu", "standard:1", "--p", "2",
             "--n-max", "8", "--out", str(tmp_path / "sweep.csv")]
    # the default family (also when family is unset) reads seed and degree
    assert main(sweep + ["--family", "default", "--seed", "5", "--degree", "9"]) == 0
    assert main(sweep + ["--seed", "5", "--degree", "9"]) == 0
    assert main(sweep + ["--family", "monomials"]) == 0
    capsys.readouterr()
    assert main(sweep + ["--family", "monomials", "--seed", "5", "--degree", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "family is default" in err

    norm = ["norm", "--f", "monomial:3", "--p", "2"]
    assert main(norm + ["--kind", "hardy"]) == 0
    assert main(norm + ["--weight", "standard:1"]) == 0  # kind defaults to bergman
    assert main(norm + ["--kind", "block", "--weight", "standard:1", "--k", "3", "--force"]) == 0
    capsys.readouterr()
    assert main(norm + ["--kind", "hardy", "--weight", "log:2", "--k", "3", "--force"]) == 2
    assert "kind is bergman or block" in capsys.readouterr().err
    assert main(norm + ["--weight", "standard:1", "--k", "3"]) == 2
    assert "kind is block" in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = norm\nf = monomial:3\np = 2\nkind = hardy\nforce = true")
    assert "line 5" in str(err.value)
