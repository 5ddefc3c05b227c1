"""End-to-end command line checks through real subprocesses: output text,
JSON documents, and the exit code contract."""
from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invopoly import cli, criterion, errors
from invopoly.families import FAMILIES

GOLDENS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "cli_goldens.json")
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(
    [os.path.join(os.path.dirname(__file__), "..", "src")]
    + ([ENV["PYTHONPATH"]] if ENV.get("PYTHONPATH") else []))


def run(*argv: str):
    proc = subprocess.run([sys.executable, "-m", "invopoly.cli", *argv],
                          capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_field_command():
    rc, out, err = run("field", "--field", "2^6")
    assert rc == 0, err
    assert "modulus: 1,0,0,0,0,1,1" in out
    assert "(enc 2)" in out


def test_verify_involution_and_fixed_points():
    rc, out, _ = run("verify", "--field", "7", "--poly", "2*x^5 + 3*x^3 + 3*x")
    assert rc == 0
    assert "involution: true" in out
    assert "fixed_points: 3" in out
    rc, out, _ = run("verify", "--field", "7", "--poly", "x")
    assert rc == 0
    assert "fixed_points: 7" in out


def test_verify_large_field_uses_criterion():
    rc, out, _ = run("verify", "--field", "3^8",
                     "--poly", "x + x^1313 + x^2625 + x^3937")
    assert rc == 0
    assert "involution: true" in out


def test_verify_exit_codes():
    # 0: involution, 1: permutation only, 2: not a permutation
    rc, out, _ = run("verify", "--field", "2^6",
                     "--poly", "a^21*x^62 + a^42*x^41 + a^42*x^20")
    assert rc == 0
    rc, out, _ = run("verify", "--field", "2^6",
                     "--poly", "a^1*x^62 + a^2*x^41 + a^2*x^20")
    assert rc == 2
    assert "criterion: false" in out
    assert "oracle_permutation: false" in out
    rc, out, _ = run("verify", "--field", "7", "--poly", "2*x")
    assert rc == 1
    assert "involution: false" in out
    assert "permutation: true" in out
    # constant shift has no x^r * h(x^s) shape; the oracle decides alone
    rc, out, _ = run("verify", "--field", "7", "--poly", "x + 1")
    assert rc == 1
    assert "criterion" not in out


def test_construct_general_and_wrappers():
    rc, out, _ = run("construct", "general", "--field", "7", "--s", "2",
                     "--sigma", "inverse", "--r", "1", "--n", "0,0,0")
    assert rc == 0
    assert "poly: 2*x^5 + 3*x^3 + 3*x" in out
    rc, out, _ = run("construct", "d3", "--field", "7", "--r", "1",
                     "--n0", "0", "--n1", "0", "--n2", "0")
    assert rc == 0
    assert "involution: true" in out
    rc, out, _ = run("construct", "d2", "--field", "5", "--r", "1",
                     "--a", "1", "--b", "4")
    assert rc == 0
    rc, out, _ = run("construct", "cor-r1", "--field", "2^4", "--n1", "0")
    assert rc == 0
    rc, out, _ = run("construct", "cor-rq43", "--field", "2^2",
                     "--n0", "0", "--n1", "0")
    assert rc == 0
    assert "poly: x^2" in out
    rc, out, _ = run("construct", "cor-rq43", "--field", "2^8",
                     "--n0", "3", "--n1", "7")
    assert rc == 0
    assert "involution: true" in out


def test_family_list_and_generate():
    rc, out, _ = run("family", "list")
    assert rc == 0
    assert "thm-geometric" in out
    rc, out, _ = run("family", "thm-geometric", "--field", "3^8",
                     "--params", "q=9,d=5,m=4,k=4")
    assert rc == 0
    assert "poly: x^3937 + x^2625 + x^1313 + x" in out
    rc, out, _ = run("family", "cor-exm", "--field", "5^2", "--params", "a=a^0")
    assert rc == 0
    assert "poly: x^11 + x^3" in out
    rc, out, _ = run("family", "cor-mdq1", "--field", "2^6",
                     "--params", "a=a^21,b=a^42")
    assert rc == 0
    assert "poly: a^21*x^62 + a^42*x^41 + a^42*x^20" in out
    rc, out, _ = run("family", "lift", "--field", "3^6",
                     "--params", "q=9,m=3,r=90,h=x")
    assert rc == 0
    assert "involution: true" in out
    rc, out, _ = run("family", "thm-conj-symmetric", "--field", "5^2",
                     "--params", "r=19,h1=1")
    assert rc == 0
    assert "check h-nonzero-on-mu: pass" in out
    # b given as a coefficient vector, constant term first
    rc, _, err = run("family", "cor-qb", "--field", "5^2", "--params", "i=1,b=1,2")
    assert rc in (0, 3)
    assert "ParseError" not in err


def test_family_exit_codes():
    # inadmissible parameters stop at the precondition gate
    rc, _, err = run("family", "cor-qb", "--field", "5^2", "--params", "i=1,b=a^1")
    assert rc == 3
    # the reversal family reports a root as a definite non-involution
    rc, out, _ = run("family", "thm-reversal", "--field", "5^2",
                     "--params", "r=3,d=2,a0=1,a1=1")
    assert rc == 2
    rc, out, _ = run("family", "thm-reversal", "--field", "5^2",
                     "--params", "r=3,d=2,a0=7,a1=1")
    assert rc == 0


def test_search_small_fields():
    rc, out, _ = run("search", "--field", "4")
    assert rc == 0
    assert " f=x " in out
    assert " f=x^2 " in out
    assert "mismatches=0" in out
    rc, out, _ = run("search", "--field", "2")
    hits = [line for line in out.splitlines() if line.startswith("s=")]
    assert [h.split(" f=")[1].split(" ")[0] for h in hits] == ["x"]
    rc, out, _ = run("search", "--field", "5", "--s", "2")
    assert rc == 0
    assert "mismatches=0" in out


def test_search_enumeration_order():
    # the grid runs with the first coefficient of h varying fastest
    rc, out, _ = run("search", "--field", "4")
    assert rc == 0
    assert out == (
        "s=1 r=1 h=a^0 f=x fixed_points=4\n"
        "s=1 r=1 h=x f=x^2 fixed_points=2\n"
        "s=1 r=1 h=a^1*x f=a^1*x^2 fixed_points=2\n"
        "s=1 r=2 h=a^0 f=x^2 fixed_points=2\n"
        "s=1 r=2 h=a^1 f=a^1*x^2 fixed_points=2\n"
        "s=1 r=2 h=x^2 f=x fixed_points=4\n"
        "s=1 r=3 h=x f=x fixed_points=4\n"
        "s=1 r=3 h=x^2 f=x^2 fixed_points=2\n"
        "s=1 r=3 h=a^1*x^2 f=a^1*x^2 fixed_points=2\n"
        "s=3 r=1 h=a^0 f=x fixed_points=4\n"
        "s=3 r=2 h=a^0 f=x^2 fixed_points=2\n"
        "s=3 r=2 h=a^1 f=a^1*x^2 fixed_points=2\n"
        "visited=84 involutions=12 mismatches=0\n")


def test_search_deterministic():
    rc1, out1, _ = run("search", "--field", "4", "--seed", "42")
    rc2, out2, _ = run("search", "--field", "4", "--seed", "42")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_json_documents():
    rc, out, _ = run("verify", "--field", "7",
                     "--poly", "2*x^5 + 3*x^3 + 3*x", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["involution"] is True
    assert doc["oracle"]["fixed_points"] == 3
    assert doc["field"]["modulus"] == [0, 1]
    rc, out, _ = run("search", "--field", "4", "--json")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["mismatches"] == 0
    assert doc["involutions"] >= 2
    rc, out, _ = run("family", "list", "--json")
    assert json.loads(out)["families"][0]["id"] == "thm-conj-symmetric"


def test_input_error_exit_codes():
    rc, _, err = run("verify", "--field", "6", "--poly", "x")
    assert rc == 4
    assert "NotPrime" in err
    rc, _, err = run("family", "nope", "--field", "7")
    assert rc == 4
    assert "UnknownFamily" in err
    rc, _, err = run("verify", "--field", "7", "--poly", "x +")
    assert rc == 4
    rc, _, err = run("verify", "--field", "7")
    assert rc == 4
    rc, _, err = run("family", "lift", "--field", "3^6", "--params", "q=9,m=3,r=90")
    assert rc == 4
    rc, _, err = run("family", "thm-geometric", "--field", "3^8",
                     "--params", "q=x,d=5,m=4,k=4")
    assert rc == 4
    assert "ParseError: parameter q must be an integer" in err
    rc, _, err = run("family", "thm-geometric", "--field", "3^4",
                     "--params", "q=3,d=4,m=4,k=10001")
    assert rc == 4
    assert "Overflow" in err
    for counts in (("--sample", "-5"), ("--exhaustive-limit", "-1", "--sample", "0")):
        rc, _, err = run("search", "--field", "9", *counts)
        assert rc == 4
        assert "ParseError" in err
    rc, out, err = run("verify", "--field", "7", "--poly", "2*x", "--cap", "-5")
    assert rc == 4 and out == ""
    assert "ParseError: --cap must be non-negative" in err
    for option, value, message in (("--sigma", "perm:a", "--sigma perm: must be"),
                                   ("--n", "1,x,2", "--n must be")):
        rc, out, err = run("construct", "general", "--field", "7", "--s", "2", "--r", "1",
                           option, value)
        assert rc == 4 and out == ""
        assert f"ParseError: {message} comma-separated integers, got" in err


@pytest.mark.parametrize("field, poly", [("7", "x + 1"), ("2", "a*x^3 + x^2")])
def test_no_verdict_is_reported_on_stderr(field, poly, capsys):
    # neither the criterion (no x^r * h(x^s) form; over F_2 the second poly
    # folds to 0) nor the oracle (q above --cap) decides: this used to exit
    # 4 with nothing on stderr
    assert cli.main(["verify", "--field", field, "--poly", poly, "--cap", "0"]) == 4
    out, err = capsys.readouterr()
    assert "involution:" not in out
    assert err.startswith("error: no verdict: ") and err.count("\n") == 1
    assert "is above --cap 0" in err


@pytest.mark.parametrize("argv, limit", [
    # the criterion would walk about 3.6e8 and 1.4e6 points of mu_d
    (("verify", "--field", "2^30", "--poly", "x^4 + a*x"), 1.0),
    (("verify", "--field", "2^22", "--poly", "x^4 + a*x", "--cap", "0"), 1.0),
    # subgroup interpolation over 1048575, 265720 and 1049601 points
    (("construct", "general", "--field", "2^20", "--s", "1"), 0.5),
    (("construct", "general", "--field", "3^12", "--s", "2"), 0.5),
    (("construct", "general", "--field", "2^30", "--s", "1023"), 0.5),
    (("construct", "general", "--field", "2^30", "--s", "1023", "--sigma", "identity"), 0.5),
    # value tables stop at 2^20, even when --oracle asks for one
    (("verify", "--field", "2^21", "--poly", "x^2", "--oracle"), 1.0),
], ids=["verify-2^30", "verify-2^22", "construct-2^20", "construct-3^12", "construct-2^30",
        "construct-2^30-identity", "verify-2^21-oracle"])
def test_large_subgroups_refused_fast(argv, limit, capsys):
    start = time.perf_counter()
    rc = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    assert rc == 4
    assert "FieldTooLarge" in capsys.readouterr().err
    assert elapsed < limit


def test_precondition_exit_codes():
    rc, _, err = run("construct", "d2", "--field", "2^2", "--r", "1",
                     "--a", "1", "--b", "1")
    assert rc == 3
    assert "EvenCharacteristic" in err
    rc, _, err = run("family", "lift", "--field", "3^6",
                     "--params", "q=9,m=3,r=2,h=x")
    assert rc == 3
    assert "RSquareCondition" in err



@pytest.mark.parametrize("argv, error", [
    # r < 1 used to crash inside SparsePoly (exit 4) or divide by zero
    (("construct", "d2", "--field", "7", "--r", "-1", "--a", "1", "--b", "1"),
     "PreconditionViolated: r must be at least 1"),
    (("construct", "d2", "--field", "7", "--r", "-1", "--a", "0", "--b", "1"),
     "PreconditionViolated: r must be at least 1"),
    # a negative divisor of q - 1 used to reach SubgroupInvolution as d = -3
    (("construct", "general", "--field", "7", "--s", "-2"), "NotADivisor: s = -2"),
], ids=["d2-r-1", "d2-r-1-a0", "general-s-2"])
def test_construct_bad_r_and_s_are_preconditions(argv, error, capsys):
    assert cli.main(list(argv)) == 3
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (("construct", "general", "--field", "7", "--s", "2", "--r", "100000000000000000001"),
     0, None),
    (("construct", "general", "--field", "7", "--s", "100000000000000000000", "--r", "1"),
     3, "NotADivisor"),
    (("construct", "d3", "--field", "7", "--r", "1", "--n0", "100000000000000000000"), 0, None),
    (("construct", "general", "--field", "7", "--s", "2", "--r", "1", "--n", "0,0"),
     3, "need 3 offsets, got 2"),
    (("construct", "general", "--field", "7", "--s", "2", "--sigma", "perm:1,0", "--r", "1"),
     3, "size 2, need 3"),
    (("verify", "--field", "7", "--poly", "2*x", "--s", "100000000000000000000"),
     3, "NotADivisor"),
    (("family", "lift", "--field", "2^24", "--params", "q=16777216,m=1,r=1,h=x"),
     4, "error: FieldTooLarge: subgroup walk over d = 16777215 exceeds cap 1048576"),
    (("verify", "--field", "2^0", "--poly", "x"), 4, "error: ParseError: bad field spec"),
], ids=["general-huge-r", "general-huge-s", "d3-huge-n0", "general-short-n",
        "general-short-sigma", "verify-huge-s", "lift-huge-base", "field-degree-zero"])
def test_huge_and_misshapen_arguments_are_bounded(argv, code, message, capsys):
    # huge --r, --s and --n0 reduce mod s or fail the divisor check, offset
    # and --sigma lists of the wrong length are refused, lift bounds its base
    # field before building or embedding anything, and a zero field degree
    # is a ParseError, not a bare ValueError, all at once
    start = time.perf_counter()
    rc = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == code, err
    assert (message in err) if message else err == ""
    assert elapsed < 0.5


PRECONDITION_ERRORS = {
    "PreconditionViolated", "HypothesisViolated", "RSquareCondition", "NotADivisor",
    "WrongFieldShape", "EvenQNoSolution", "BaseNotInvolution", "HValueZero",
    "CharacteristicDividesD", "EvenCharacteristic", "NotInSubgroup",
    "NotInvolutionOnSubgroup",
}
ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if inspect.isclass(cls) and issubclass(cls, errors.AlgebraError)
     and cls is not errors.AlgebraError),
    key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_exit_code(cls):
    if cls is errors.InternalMismatch:
        expected = 5
    elif cls.__name__ in PRECONDITION_ERRORS:
        expected = 3
    else:
        expected = 4
    assert cls.exit_code == expected


def test_console_script_installed():
    exe = shutil.which("invopoly")
    if exe is None:
        import pytest
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "field", "--field", "13"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "alpha: 2" in proc.stdout


# -- a fuzz over the five subcommands ----------------------------------------

def _mostly(valid, invalid):
    """Mostly valid values, so that most calls get past parsing."""
    return st.sampled_from(valid * 4 + invalid)


_INTS = _mostly(["0", "1", "2", "3", "4", "5", "7", "15"],
                ["-1", "100000000000000000000", "-100000000000000000000", "", "x", "1.5"])
_FIELDS = _mostly(["2", "3", "5", "7", "11", "13", "2^2", "4", "2^3", "2^4", "3^2", "9",
                   "2^2/1,1,1"],
                  ["", "6", "1", "0", "-7", "2^", "x", "2^0", "3^100", "10^20", "7/1,1"])
_ELEMENTS = _mostly(["0", "1", "2", "6", "a", "a^3", "a^-1"], ["1,1", "99", "", "x", "a^"])
_POLYS = st.one_of(
    st.sampled_from(["x", "x^2", "x^4", "2*x^5 + 3*x^3 + 3*x", "2x^5 + 3x^3 + 3x", "a^-1*x",
                     "a*x^3 + x^2", "x^100000000000000000000", "x + 1", "0", "3", "x - x",
                     "x +", "", "x^-2", "2*y", "2*x*x", "x^^2", "+-x"]),
    st.lists(st.tuples(_ELEMENTS, st.integers(0, 40), st.sampled_from(["+", "-"])),
             min_size=1, max_size=4).map(
        lambda terms: " ".join(f"{sign} {c}*x^{e}" for c, e, sign in terms)))
_FAMILY_KEYS = {"thm-conj-symmetric": "r h0 h1", "cor-qb": "i b", "thm-palindromic": "q d r h0",
                "cor-mdq1": "a b", "cor-m4d4": "a b c", "thm-reversal": "r d a0", "cor-exm": "a",
                "thm-geometric": "q d m k", "lift": "q m r h"}


def _params(family):
    """Every key the family reads, with random values, or malformed text."""
    def pair(key):
        values = (_POLYS if key == "h" else _INTS if key in ("r", "q", "d", "m", "k", "i")
                  else _ELEMENTS)
        return values.map(lambda v: f"{key}={v}")
    keys = _FAMILY_KEYS.get(family, "r").split()
    return st.one_of(st.tuples(*map(pair, keys)).map(",".join),
                     st.sampled_from(["", "=", "r", "r=1,,", ",h0=1", "x=1"]))


def _command(head, required=(), **options):
    """argv for one subcommand: the required options (name, values) come
    first, then every other option (a strategy for its value, or None for a
    flag) is present or absent, in a fixed order."""
    def arg(name, values):
        flag = "--" + name.replace("_", "-")
        return st.just([flag]) if values is None else values.map(lambda v: [flag, v])
    maybe = st.sampled_from([False, False, True])
    parts = [st.just(list(head)), *(arg(n, v) for n, v in required),
             *(maybe.flatmap(lambda on, a=arg(n, v): a if on else st.just([]))
               for n, v in options.items())]
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


_COMMON = {"cap": st.sampled_from(["0", "1", "16", "1048576", "-1", "100000000000000000000", "x"]),
           "oracle": None, "json": None}
_FIELD = [("field", _FIELDS)]
_CONSTRUCT_NEEDS = {"general": [("s", _INTS)], "d2": [("a", _ELEMENTS), ("b", _ELEMENTS)]}
_ARGV = st.one_of(
    _command(["field"], _FIELD, json=None),
    _command(["verify"], [*_FIELD, ("poly", _POLYS)], s=_INTS, **_COMMON),
    st.sampled_from(["general", "d2", "d3", "cor-r1", "cor-rq43", "d4"]).flatmap(
        lambda mode: _command(
            ["construct", mode], [*_FIELD, *_CONSTRUCT_NEEDS.get(mode, [])],
            sigma=st.sampled_from(["inverse", "identity", "perm:0", "perm:1,0", "perm:0,2,1",
                                   "perm:a", "perm:", "bogus"]),
            r=_INTS, n=st.sampled_from(["0", "0,0", "0,0,0", "1,4", "1,x,2", ",", ""]),
            n0=_INTS, n1=_INTS, n2=_INTS, **_COMMON)),
    st.sampled_from([*FAMILIES, "list", "nope"]).flatmap(
        lambda fam: _command(["family", fam], [*_FIELD, ("params", _params(fam))], **_COMMON)),
    _command(["search"], [*_FIELD, ("sample", st.sampled_from(["0", "1", "5", "-1", "x"])),
                          ("exhaustive_limit", st.sampled_from(["0", "8", "30", "-3"]))],
             s=_INTS, seed=_INTS, max_q=_INTS, json=None),
    st.sampled_from([[], ["nope"], ["verify", "--field", "7"], ["verify", "--bogus"],
                     ["search", "--field"], ["construct", "d2", "--field", "7"],
                     ["family", "cor-exm"]]))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=_ARGV)
def test_cli_fuzz_ends_in_a_verdict_or_one_error_line(argv):
    # search is bounded by the grammar: --sample <= 5, --exhaustive-limit
    # <= 30 and fields of at most 16 elements
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert rc in range(6), (argv, rc)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if rc >= 3:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    assert elapsed < 1.0, (argv, elapsed)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_cli_goldens_replay():
    # every recorded command keeps its exit code and its stdout, byte for byte
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    changed = []
    for key, want in goldens.items():
        rc, out, _ = _in_process(json.loads(key))
        if (rc, hashlib.sha256(out.encode()).hexdigest()) != (want["rc"], want["stdout_sha256"]):
            changed.append((key, rc))
    assert goldens and not changed


@pytest.mark.parametrize("argv", [
    ["family", "lift", "--field", "2^6", "--params", "q=8,m=2,r=8,h=1", "--cap", "0"],
    ["construct", "general", "--field", "2^8", "--s", "15", "--sigma", "inverse",
     "--r", "1", "--cap", "0"],
    ["family", "thm-reversal", "--field", "5^2", "--params", "r=3,d=2,a0=1", "--cap", "0"],
])
def test_one_walk_per_decided_run(argv, monkeypatch):
    # the constructor decides; the command line reads its verdict back, and an
    # involution needs no permutation walk
    walks = []
    walk = criterion._walk

    def counting(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(criterion, "_walk", counting)
    rc, out, err = _in_process(argv)
    assert rc == 0, err
    assert "criterion: true\npermutation: true\n" in out
    assert len(walks) == 1


@pytest.mark.parametrize("argv", [
    ["family", "thm-conj-symmetric", "--field", "5^2", "--params", "r=19,h1=1"],
    ["family", "thm-palindromic", "--field", "2^6", "--params", "q=4,d=3,r=62,h0=1"],
])
def test_a_family_confirms_the_form_its_checks_walked(argv, monkeypatch):
    # the command line validates once and the generator checks again; the
    # generator confirms the very form its own root check walked, so the run
    # builds two walks over mu_d, not one per root check plus the criterion's
    built = []
    Walk = criterion._Walk
    monkeypatch.setattr(criterion, "_Walk", lambda *args: built.append(args) or Walk(*args))
    rc, out, err = _in_process(argv)
    assert rc == 0, err
    assert "criterion: true\npermutation: true\n" in out
    assert len(built) == 2
