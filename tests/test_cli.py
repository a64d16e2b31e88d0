"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cluster_painleve
from cluster_painleve import cli
from cluster_painleve.cli import _json_text, main
from cluster_painleve.laurent import format_rational
from cluster_painleve.presets import get_preset
from cluster_painleve.tsystem import TStencil, iterate_t


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_run_t_golden_orbit(capsys):
    rc, d = run_json(capsys, ["run", "t", "--preset", "somos4",
                              "--init", "ones", "--steps", "8"])
    assert rc == 0
    assert d["stencil"] == [-1, 2, -1]
    assert d["kind"] == "rational"
    assert d["values"][-1] == "8209"


def test_run_t_accepts_negative_tuple(capsys):
    rc, d = run_json(capsys, ["run", "t", "--tuple", "-1,2,-1",
                              "--init", "1,1,1,1", "--steps", "4"])
    assert rc == 0 and d["values"] == ["1", "1", "1", "1", "2", "3", "7", "23"]


def test_run_tz_with_solved_coefficients(capsys):
    rc, d = run_json(capsys, ["run", "tz", "--preset", "prim4",
                              "--z-init", "2,3", "--init", "ones", "--steps", "4"])
    assert rc == 0 and d["values"][4:] == ["4", "15", "8", "11"]


def test_run_qp1(capsys):
    rc, d = run_json(capsys, ["run", "qp1", "--beta", "2", "--q", "3/2",
                              "--init", "1,1", "--steps", "3"])
    assert rc == 0 and d["values"] == ["1", "1", "4", "15/16", "62/25"]


def test_csv_format(capsys):
    rc = main(["run", "t", "--preset", "somos4", "--init", "ones",
               "--steps", "4", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "n,value" and out[-1] == "7,23"


@pytest.mark.parametrize("argv, text", [
    ("run t --preset somos4 --init 1,2,3,1/2 --steps 4",
     "n,value\n0,1\n1,2\n2,3\n3,1/2\n4,10\n5,121/8\n6,1721/48\n7,112763/96\n"),
    ("run tz --preset prim4 --z-init 2,-3 --init ones --steps 3",
     "n,value\n0,1\n1,1\n2,1\n3,1\n4,4\n5,-15\n6,-7\n"),
    ("run tz --preset somos4 --beta 2/3 --q 5/7 --init 1,-2,3,1/2 --steps 2",
     "n,value\n0,1\n1,-2\n2,3\n3,1/2\n4,16/3\n5,-325/84\n"),
    ("run y --preset somos4 --init 1,2,3,1/2 --steps 2",
     "n,value\n0,1\n1,2\n2,3\n3,1/2\n4,81/32\n5,113/144\n"),
    ("run qp1 --beta 2 --q 3/2 --init 1,1 --steps 3",
     "n,value\n0,1\n1,1\n2,4\n3,15/16\n4,62/25\n"),
    ("zsys --preset prim4 --init 2,3 --steps 2", "n,value\n0,2\n1,3\n2,1/2\n3,1/3\n"),
    ("entropy --preset somos4 --steps 8",
     "n,d_n\n0,0\n1,0\n2,0\n3,0\n4,1\n5,1\n6,2\n7,3\n8,3\n9,5\n10,6\n11,7\n"),
    ("entropy --preset somos4 --steps 8 --mode symbolic",
     "n,d_n\n0,0\n1,0\n2,0\n3,0\n4,1\n5,1\n6,2\n7,3\n8,3\n9,5\n10,6\n11,7\n"),
])
def test_csv_bytes(capsys, argv, text):
    assert main(argv.split() + ["--format", "csv"]) == 0
    assert capsys.readouterr() == (text, "")


def _never(*args, **kwargs):
    raise AssertionError("computed before refusing the arguments")


@pytest.mark.parametrize("argv", [
    "run t --preset somos4 --mode symbolic", "run tz --preset somos4 --mode symbolic",
    "zsys --preset somos4", "reduce --preset somos4",
    "linrel --preset prim4 --offsets 0,12,24", "verify --out DIR", "verify",
])
def test_csv_needs_a_value_list(capsys, monkeypatch, tmp_path, argv):
    # refused before any work: nothing is iterated, run or written
    for name in ("iterate_t", "iterate_tz", "run_criteria"):
        monkeypatch.setattr(cli, name, _never)
    out = tmp_path / "out"
    assert main(argv.replace("DIR", str(out)).split() + ["--format", "csv"]) == 2
    assert capsys.readouterr() == (
        "", "config error: this command has no CSV form; use --format json\n")
    assert not out.exists()


@pytest.mark.parametrize("source", [
    "--preset nonintegrable6", "--preset prim4 --z-init 2,3", "--orbit MISSING"])
@pytest.mark.parametrize("search, message", [
    ("--offsets 0,x", "bad --offsets '0,x'"),
    ("--offsets 0,0", "offsets must be strictly increasing and start at 0"),
    ("--offsets 1,2", "offsets must be strictly increasing and start at 0"),
    ("--offsets 0,1,2 --train 0", "train and verify counts must be positive"),
    ("--offsets 0,1,2 --verify 0", "train and verify counts must be positive"),
])
def test_linrel_refuses_a_bad_search_before_any_orbit(capsys, monkeypatch, tmp_path,
                                                      source, search, message):
    # nothing is iterated, and a missing orbit file is never opened
    for name in ("iterate_t", "iterate_tz"):
        monkeypatch.setattr(cli, name, _never)
    argv = f"linrel {source} {search}".replace("MISSING", str(tmp_path / "none.json"))
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("source, values, need", [
    ("--preset nonintegrable6", 66, 134), ("--preset somos4", 64, 134),
    ("--preset prim4 --z-init 2,3", 64, 134), ("--preset somos4 --steps 10 --train 2", 14, 132)])
def test_linrel_refuses_a_short_orbit_before_any_orbit(capsys, monkeypatch, source, values, need):
    # the orbit length is known from the window and --steps; a search past
    # its end is refused before the orbit is built (nonintegrable6 would
    # take minutes for its 60 steps of ever taller values)
    for name in ("iterate_t", "iterate_tz"):
        monkeypatch.setattr(cli, name, _never)
    assert main(f"linrel {source} --offsets 0,100".split()) == 2
    assert capsys.readouterr() == ("", f"config error: orbit has {values} values; need {need}\n")


@pytest.mark.parametrize("init, message", [
    ("1,x", "bad --init '1,x': Invalid literal for Fraction: 'x'"),
    ("1", "--init needs 2 values, got 1"),
    ("0,1", "initial coefficient data must be nonzero"),
])
def test_zsys_refuses_a_bad_init_before_the_factor_search(capsys, monkeypatch, init, message):
    # no characteristic polynomial is factored and no root is searched for
    for name in ("char_poly", "factor_roots"):
        monkeypatch.setattr(cli, name, _never)
    assert main(["zsys", "--preset", "somos4", "--init", init]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_reduce_prints_formula_then_payload(capsys):
    rc = main(["reduce", "--preset", "somos6"])
    out = capsys.readouterr().out
    assert rc == 0
    head, _, rest = out.partition("\n")
    assert head == "U[n+4]*U[n] = (U1*U2*U3 + 1) / (U1^2*U2^2*U3^2)"
    d = json.loads(rest)
    assert d["generator"] == [1, -2, 1, 0, 0, 0] and d["r"] == 4


def test_reduce_with_z(capsys):
    rc = main(["reduce", "--preset", "somos7", "--with-z"])
    out = capsys.readouterr().out
    assert rc == 0
    d = json.loads(out.partition("\n")[2])
    assert d["z_power"] == 1 and d["r"] == 2


def test_reduce_primN_form_is_the_exchange_matrix(capsys):
    # generator e_0 and rank N: the reduced variables are the x's themselves
    rc = main(["reduce", "--preset", "primN", "--n", "60"])
    d = json.loads(capsys.readouterr().out.partition("\n")[2])
    assert rc == 0 and d["r"] == 60 and d["generator"] == [1] + [0] * 59
    rows = get_preset("primN", 60).matrix.rows
    assert d["reduced_form"] == [[str(x) for x in row] for row in rows]


def test_zsys_report(capsys):
    rc, d = run_json(capsys, ["zsys", "--preset", "nonintegrable6"])
    assert rc == 0
    assert d["char_poly"] in ("(L^2 + 1)(L^2 - 3L + 1)", "(L^2 - 3L + 1)(L^2 + 1)")
    assert d["spectral_radius"] == pytest.approx((3 + 5 ** 0.5) / 2)


def test_zsys_splits_a_repeated_leftover(capsys):
    # a leftover kept whole had double roots, on which the root search
    # did not converge: exit 1 with a traceback
    rc, d = run_json(capsys, ["zsys", "--tuple", "-1,-2,-7,-8,-13,-8,-7,-2,-1"])
    assert rc == 0 and d["char_poly"] == "(L^4 + L^3 + 3L^2 + L + 1)^2"
    assert [(r["multiplicity"], len(r["roots"])) for r in d["roots"]] == [(2, 4)]
    assert d["spectral_radius"] == 1.539222338420433


def test_zsys_with_values(capsys):
    rc, d = run_json(capsys, ["zsys", "--preset", "prim4",
                              "--init", "2,3", "--steps", "4"])
    assert rc == 0
    assert d["closed_form"]["family"] == "antiperiodic"
    assert d["values"][:6] == ["2", "3", "1/2", "1/3", "2", "3"]


def test_entropy_report(capsys):
    rc, d = run_json(capsys, ["entropy", "--preset", "somos4", "--steps", "60"])
    assert rc == 0
    assert d["fit"] == "polynomial" and d["degree"] == 2 and d["entropy"] == 0.0


def test_linrel_from_orbit_file(tmp_path, capsys):
    orbit = tmp_path / "orbit.json"
    rc = main(["run", "tz", "--preset", "prim4", "--z-init", "2,3",
               "--init", "ones", "--steps", "58", "--out", str(orbit)])
    capsys.readouterr()
    assert rc == 0 and orbit.exists()
    rc = main(["linrel", "--orbit", str(orbit), "--offsets", "0,12,24",
               "--train", "4", "--verify", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    d = json.loads(out.partition("\n")[2])
    assert d["status"] == "found"
    assert d["relation"]["coefficients"] == ["1", "-76657/36", "1"]


def test_verify_filter_by_number(capsys):
    rc = main(["verify", "--filter", "1,3"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(out) == 3 and out[-1].startswith("passed 2/2")
    assert all(line.startswith("PASS") for line in out[:2])


def test_out_directory_and_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = main(["run", "t", "--preset", "somos5", "--init", "random",
                   "--seed", "7", "--steps", "10", "--out", str(d)])
        assert rc == 0
    capsys.readouterr()
    assert (d1 / "orbit.json").read_bytes() == (d2 / "orbit.json").read_bytes()


class TestExitCodes:
    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["run", "t", "--preset", "nope", "--steps", "2"]) == 2

    def test_conflicting_system_flags(self, capsys):
        rc = main(["run", "t", "--preset", "somos4", "--tuple", "0,0",
                   "--steps", "2"])
        assert rc == 2

    def test_wrong_init_length(self, capsys):
        rc = main(["run", "t", "--preset", "somos4", "--init", "1,2",
                   "--steps", "2"])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        ("run t --preset somos4 --init 0,1,1,1", "initial window contains zero"),
        ("run tz --preset somos4 --init 1,0,1,1 --beta 2 --q 3",
         "initial window contains zero"),
        ("run y --preset somos4 --init -1,1,1,1", "initial y window must be strictly positive"),
        ("run y --preset somos4 --init 0,1,1,1", "initial y window must be strictly positive"),
        ("run qp1 --beta 2 --q 3 --init -1,1", "initial window must be strictly positive"),
        ("linrel --preset somos4 --init 0,1,1,1 --offsets 0,1,2",
         "initial window contains zero"),
        ("linrel --preset prim4 --init 1,1,1,0 --z-init 2,3 --offsets 0,12,24",
         "initial window contains zero"),
    ], ids=["t-zero", "tz-zero", "y-negative", "y-zero", "qp1-negative", "linrel-zero",
            "linrel-tz-zero"])
    def test_bad_init_window_is_config_error(self, capsys, monkeypatch, argv, message):
        # refused before the first step: no orbit engine runs
        for name in ("iterate_t", "iterate_tz"):
            monkeypatch.setattr(cli, name, _never)
        monkeypatch.setattr(cli.ysystem, "iterate_y", _never)
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_zero_mid_orbit_is_compute_error(self, capsys):
        rc = main(["run", "t", "--preset", "somos4", "--init", "-2,-2,-2,2",
                   "--steps", "2"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "compute error: ZeroEncountered: orbit value x_4 vanished\n")

    def test_csv_unavailable_for_reduce(self, capsys):
        assert main(["reduce", "--preset", "somos4", "--format", "csv"]) == 2

    def test_missing_subcommand_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["linrel", "--train", "2"])  # --offsets is required
        assert exc.value.code == 2


def assert_config_error(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("config error: ") and err.count("\n") == 1
    return err


class TestConfigErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["run", "t", "--preset", "somos4", "--beta", "2", "--q", "3"], "--beta"),
        (["run", "y", "--preset", "somos4", "--mode", "symbolic"], "--mode"),
        (["run", "qp1", "--preset", "somos5", "--beta", "2", "--q", "3"], "--preset"),
        (["run", "tz", "--preset", "somos4", "--mode", "symbolic",
          "--beta", "2", "--q", "3"], "--beta"),
        (["run", "t", "--preset", "somos4", "--mode", "symbolic",
          "--init", "1,2,3,4"], "--init"),
        (["run", "tz", "--preset", "somos4", "--mode", "symbolic",
          "--init", "1,2,3,4"], "--init"),
    ])
    def test_run_rejects_flags_its_target_ignores(self, capsys, argv, flag):
        assert flag in assert_config_error(capsys, argv)

    def test_zsys_steps_needs_init(self, capsys):
        err = assert_config_error(capsys, ["zsys", "--preset", "somos4", "--steps", "3"])
        assert err == "config error: --steps does not apply to zsys without --init\n"
        # with --init the default is 8: the initial window and 8 more values
        rc, d = run_json(capsys, ["zsys", "--preset", "prim4", "--init", "2,3"])
        assert rc == 0 and len(d["values"]) == 2 + 8

    def test_negative_steps(self, capsys):
        assert_config_error(capsys, ["run", "t", "--preset", "somos4", "--steps", "-1"])
        assert_config_error(capsys, ["zsys", "--preset", "somos4", "--init", "2,3",
                                     "--steps", "-1"])

    def test_entropy_needs_enough_steps(self, capsys):
        assert_config_error(capsys, ["entropy", "--preset", "somos4", "--steps", "5"])
        assert_config_error(capsys, ["entropy", "--preset", "somos4", "--steps", "5",
                                     "--mode", "symbolic"])

    @pytest.mark.parametrize("payload", [
        {"stencil": 5, "kind": "rational", "values": ["1"]},
        ["1", "2", "3"],
        {"stencil": [-1, 2, -1], "values": [1, 2, 3, 4]},
        {"stencil": [-1, 2, -1], "kind": "cubic", "values": []},
        {"stencil": [-1, 2, -1], "kind": "symbolic", "values": [{"vars": ["x0"]}]},
    ])
    def test_malformed_orbit_file(self, tmp_path, capsys, payload):
        orbit = tmp_path / "orbit.json"
        orbit.write_text(json.dumps(payload))
        assert_config_error(capsys, ["linrel", "--orbit", str(orbit),
                                     "--offsets", "0,1,2"])

    def test_malformed_orbit_file_from_the_shell(self, tmp_path):
        orbit = tmp_path / "orbit.json"
        orbit.write_text("[1, 2, 3]")
        proc = subprocess.run(
            [sys.executable, "-m", "cluster_painleve.cli", "linrel", "--orbit",
             str(orbit), "--offsets", "0,1,2"],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("extra, flag", [
        (["--init", "5,6,7,8"], "--init"),
        (["--steps", "3"], "--steps"),
        (["--steps", "60"], "--steps"),  # the computed orbit's default, given
        (["--beta", "2"], "--beta"),
        (["--q", "3"], "--q"),
        (["--z-init", "2,3"], "--z-init"),
        (["--n", "7"], "--n"),
    ])
    def test_linrel_orbit_rejects_flags_it_ignores(self, tmp_path, capsys, extra, flag):
        orbit = tmp_path / "orbit.json"
        assert main(["run", "t", "--preset", "prim4", "--steps", "30",
                     "--out", str(orbit)]) == 0
        capsys.readouterr()
        err = assert_config_error(capsys, ["linrel", "--orbit", str(orbit),
                                           "--offsets", "0,3,6", *extra])
        assert err == f"config error: {flag} does not apply to linrel --orbit\n"

    @pytest.mark.parametrize("argv", [
        ["run", "t", "--preset", "somos4", "--n", "7"],
        ["reduce", "--preset", "prim4", "--n", "9"],
        ["run", "t", "--preset", "prim5", "--n", "7"],
        ["run", "t", "--tuple", "-1,2,-1", "--n", "7"],
    ])
    def test_n_needs_the_primN_preset(self, capsys, argv):
        err = assert_config_error(capsys, argv)
        assert err == "config error: --n applies only to --preset primN\n"

    def test_n_sizes_the_primN_preset(self, capsys):
        rc, d = run_json(capsys, ["run", "t", "--preset", "primN", "--n", "7", "--steps", "2"])
        assert rc == 0 and len(d["stencil"]) == 6

    @pytest.mark.parametrize("flt", ["99", "no such title"])
    def test_verify_filter_must_match(self, capsys, flt):
        err = assert_config_error(capsys, ["verify", "--filter", flt])
        assert err == f"config error: --filter {flt} matches no criterion\n"

    @pytest.mark.parametrize("argv, message", [
        ("reduce --tuple 0,0,0", "zero matrix has no reduced recurrence"),
        ("reduce --tuple 0", "zero matrix has no reduced recurrence"),
        ("reduce --tuple 0,0,0 --with-z", "zero matrix has no reduced recurrence"),
        ("zsys --tuple 0,0,0", "tuple with empty support gives no constraint"),
        ("zsys --tuple 0,0,0 --init 1", "tuple with empty support gives no constraint"),
        ("run tz --tuple 0,0,0 --z-init 1", "tuple with empty support gives no constraint"),
        ("run tz --tuple 0,0,0 --mode symbolic",
         "tuple with empty support gives no constraint"),
        ("linrel --tuple 0,0,0 --z-init 1 --offsets 0,1",
         "tuple with empty support gives no constraint"),
    ])
    def test_all_zero_tuple_without_a_constraint_or_reduction(self, capsys, monkeypatch,
                                                              argv, message):
        # nothing is iterated, solved, factored or written
        for name in ("iterate_t", "iterate_tz", "solve_z", "char_poly", "factor_roots"):
            monkeypatch.setattr(cli, name, _never)
        monkeypatch.setattr(cli.reduction, "reduced_structure_matrix", _never)
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("argv", [
        "run t --tuple 0,0,0", "run y --tuple 0,0,0", "entropy --tuple 0,0,0",
        "run tz --tuple 0,0,0 --beta 2 --q 3",
    ])
    def test_all_zero_tuple_runs_where_no_constraint_is_needed(self, capsys, argv):
        assert main(argv.split()) == 0
        assert capsys.readouterr().err == ""

    def test_run_tz_needs_coefficient_values(self, capsys):
        rc = main(["run", "tz", "--preset", "somos4", "--init", "ones", "--steps", "8"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("config error: ") and err.count("\n") == 1
        assert "--z-init" in err and "--beta/--q" in err
        # symbolic mode needs no values
        assert main(["run", "tz", "--preset", "somos4", "--mode", "symbolic",
                     "--steps", "2"]) == 0


def _child_env():
    """Environment in which a child interpreter imports this checkout."""
    src = str(Path(cluster_painleve.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_closed_stdout_is_not_an_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cluster_painleve.cli", "linrel", "--preset", "prim4",
         "--init", "1,2,3,4", "--offsets", "0,2,4", "--train", "2", "--verify", "5",
         "--steps", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()  # before the child has imported anything
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert err == ""  # no traceback and no "Exception ignored" note at exit


def test_import_leaves_mpmath_out():
    # only the numerical root reports need mpmath, so neither a plain import
    # nor the exact dilogarithm criterion loads it
    for code in ("import cluster_painleve.cli",
                 "from cluster_painleve.acceptance import run_criteria\n"
                 "assert [r.passed for r in run_criteria(numbers={12})] == [True]"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys\n{code}\nprint('mpmath' in sys.modules)"],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0 and proc.stdout == "False\n"


@pytest.mark.parametrize("tup, text", [
    # about 2 million quadratic trial divisions before the value test
    ("-1000,1,0,1,-1000", "(1000L^4 - L^3 - L + 1000)"),
    # about 10^9 quadratic candidates unless b runs over divisors of work(1)
    ("-100000,7,0,7,-100000", "(100000L^4 - 7L^3 - 7L + 100000)"),
])
def test_zsys_with_large_end_coefficients_finishes(tup, text):
    proc = subprocess.run(
        [sys.executable, "-m", "cluster_painleve.cli", "zsys", "--tuple", tup],
        capture_output=True, text=True, env=_child_env(), timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["char_poly"] == text


@pytest.mark.parametrize("tup, limit", [
    # about 10^9 trial divisions to list the divisors of 10^18
    ("-1000000000000000000,1,0,1,-1000000000000000000", "DIVISOR_LIMIT"),
    # 10^12 has 169 divisors: some 57,000 linear trial factors alone
    ("-1000000000000,1,0,1,-1000000000000", "TRIAL_LIMIT"),
])
def test_zsys_factor_search_stops_at_its_limits(tup, limit):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cluster_painleve.cli", "zsys", "--tuple", tup],
        capture_output=True, text=True, env=_child_env(), timeout=30)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("compute error: ArithmeticError: factor search:")
    assert limit in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_symbolic_term_budget_is_a_compute_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "iterate_t", functools.partial(iterate_t, max_terms=5))
    rc = main(["run", "t", "--preset", "somos4", "--mode", "symbolic", "--steps", "8"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == "compute error: TermBudgetExceeded: x_6 exceeds the 5-term budget\n"


def test_values_past_the_int_digit_limit(tmp_path, capsys, monkeypatch, default_int_digits):
    changed = []
    if default_int_digits:
        monkeypatch.setattr(sys, "set_int_max_str_digits", changed.append)
    argv = ["run", "t", "--preset", "somos4", "--init", "ones", "--steps", "350"]
    assert main(argv + ["--format", "csv"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].partition(",")[2]
    orbit = tmp_path / "orbit.json"
    assert main(argv + ["--out", str(orbit)]) == 0
    capsys.readouterr()
    rc = main(["linrel", "--orbit", str(orbit), "--offsets", "0,1,2",
               "--train", "2", "--verify", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out.partition("\n")[2])["system"] == str(orbit)
    assert not changed  # main never changes the limit
    expect = format_rational(iterate_t(TStencil((-1, 2, -1)), [1] * 4, 350).values[-1])
    assert len(last) > 4300 and last == expect


def test_random_seed_past_the_int_digit_limit(capsys, default_int_digits):
    seed = "1" + "0" * 5000
    rc, d = run_json(capsys, ["run", "t", "--preset", "somos4",
                              "--init", f"random({seed},9)", "--steps", "0"])
    assert rc == 0 and len(d["values"]) == 4


def test_ints_past_the_int_digit_limit_in_json(default_int_digits):
    big = 7 ** 6000  # 5,071 digits
    payload = {"degrees": [1, big, -big], "name": "\\u0000", "x": 0.5}
    got = _json_text(payload)
    if default_int_digits:
        sys.set_int_max_str_digits(0)  # for the reference; the fixture restores it
    assert got == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_jobs_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zsys", "--preset", "somos4", "--jobs", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--jobs" in err


@pytest.mark.parametrize("command", ["run", "reduce", "zsys", "entropy", "linrel", "verify"])
def test_help_does_not_mention_jobs(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--out" in out and "--jobs" not in out


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _in_process(capsys, argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_shared_parser_matches_fresh_processes(capsys, monkeypatch):
    # one process, one parser: a usage error, a config error and an explicit
    # --steps leave nothing behind, so the last run gets the default back
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to this width
    env = dict(_child_env(), COLUMNS="80")
    runs = [
        ["run", "t", "--mode", "bogus"],
        ["run", "t", "--preset", "nope", "--steps", "2"],
        ["run", "t", "--preset", "somos4", "--init", "ones", "--steps", "3"],
        ["run", "t", "--preset", "somos4", "--init", "ones"],
    ]
    got = [_in_process(capsys, argv) for argv in runs]
    assert [rc for rc, _, _ in got] == [2, 2, 0, 0]
    assert len(json.loads(got[3][1])["values"]) == 4 + 8
    for argv, (rc, out, err) in zip(runs, got):
        proc = subprocess.run([sys.executable, "-m", "cluster_painleve.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize("command", [[], ["run"], ["reduce"], ["zsys"], ["entropy"],
                                     ["linrel"], ["verify"]], ids=lambda c: "".join(c) or "top")
def test_shared_parser_help_matches_a_fresh_parser(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    _in_process(capsys, ["run", "t", "--preset", "somos4", "--steps", "2"])
    rc, out, err = _in_process(capsys, [*command, "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.build_parser.__wrapped__().parse_args([*command, "--help"])
    assert (rc, out, err) == (exc.value.code, *capsys.readouterr())
    assert rc == 0 and out.startswith("usage: cluster-painleve")
