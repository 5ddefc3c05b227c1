"""The four workloads: field mixes, seeded request rounds, and checks.

A workload is run as rounds.  Round k's requests are generated from
(seed, workload, k) alone, outside the timed intervals, so any round can be
replayed exactly and two runs with the same seed see the same inputs.
Every round has the same composition (the same count of requests of each
kind on each field); only the drawn values change with the seed.  That
keeps the mix, and hence the throughput, independent of the seed.

execute() runs one request against the library and returns a Result:
status "ok", "refused" (an expected refusal) or "failed", and a text that
goes into the round's output digest.  Checks that need the oracle and are
too slow for the timed loop run afterwards in post_check().
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

GOLDENS = Path(__file__).with_name("cli_goldens.json")
ORACLE_CHECK_LIMIT = 1 << 12   # post-check constructions with the oracle up to this q


def field_key(p: int, n: int) -> str:
    return f"{p}^{n}" if n > 1 else str(p)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _involutory_exponents(s: int) -> list[int]:
    return [r for r in range(1, s + 1) if (r * r - 1) % s == 0]


@dataclass
class Result:
    status: str                 # "ok", "refused" or "failed"
    text: str = ""
    keep: object = None         # whatever post_check needs later


def round_rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{k}")


class Workload:
    name = ""
    specs: list[tuple[int, int]] = []
    watch: tuple = ()           # requests whose latencies are kept one by one

    def setup(self, lib, first_mul):
        """Every field of the mix, each with its first multiply done (that
        builds the exp/log tables when q <= 2^16).  first_mul(name) gives
        a context manager that times the multiply."""
        fields = {}
        for p, n in self.specs:
            f = lib.gf.make_field(p, n)
            with first_mul("gf.first_mul"):
                f.alpha * f.alpha
            fields[field_key(p, n)] = f
        return fields

    def prepare(self, lib, fields) -> dict:
        """Seed-independent input preparation, outside set-up and timing."""
        return {}

    def round(self, prep, rng) -> list:
        raise NotImplementedError

    def execute(self, lib, fields, req) -> Result:
        raise NotImplementedError

    def post_check(self, lib, fields, kept: list) -> list[str]:
        return []

    def probes(self, rng) -> list:
        """Requests run once, traced, after the traced pass: too slow for
        the timed rounds, but measured layer by layer."""
        return []


# -- search-small --------------------------------------------------------------

class SearchSmall(Workload):
    """The cross-validation loop behind `invopoly search`: every (field, s)
    cell once per round, with a random r and a dense random h."""

    name = "search-small"
    specs = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (5, 1), (7, 1), (11, 1), (13, 1),
             (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]

    def round(self, prep, rng):
        reqs = []
        for p, n in self.specs:
            key = field_key(p, n)
            q = p**n
            for s in _divisors(q - 1):
                d = (q - 1) // s
                coeffs = [0]
                while not any(coeffs):
                    coeffs = [rng.randrange(q) for _ in range(d)]
                reqs.append((key, s, rng.randrange(1, q), coeffs))
        rng.shuffle(reqs)
        return reqs

    def execute(self, lib, fields, req):
        key, s, r, coeffs = req
        fld = fields[key]
        h = lib.polyring.SparsePoly.from_pairs(
            fld, [(i, fld.element(c)) for i, c in enumerate(coeffs)])
        rhs = lib.polyring.RhsForm(fld, r, s, h)
        inv = lib.criterion.check_involution(rhs).verdict
        perm = lib.criterion.check_permutation(rhs).ok
        rep = lib.oracle.sweep(rhs.expand())
        o_perm = bool(rep.is_permutation)
        o_inv = o_perm and bool(rep.is_involution)
        ok = inv == o_inv and perm == o_perm
        return Result("ok" if ok else "failed",
                      f"{key} {s} {r} {inv:d}{perm:d} {rep.fixed_point_count}")


# -- verify-large --------------------------------------------------------------

# Requests per round on each field, and their term counts (None: 1 to 4
# terms in turn, with every eighth request a monomial-law involution).
# Each percentile reads one homogeneous group: the median falls in the
# middle of the 2^12 group and p90 in the middle of the 3^8 group, both
# fixed at two terms, so neither sits on a jump between groups.  The 352
# requests leave 35 samples above p90.
VERIFY_MIX = {(2, 8): (32, None), (3, 5): (31, None), (2, 12): (242, 2), (3, 8): (40, 2),
              (2, 16): (4, None), (3, 10): (2, None), (65537, 1): (1, None)}
# Above the 2^16 table limit every field operation is a generic one.  The
# prime field 65537 is in every round; one request over 2^17 or 5^7 takes
# several seconds, too long to repeat within a run, so those two fields
# are probes of the traced run only.
OFF_TABLE_EXPONENT = {(65537, 1): 3, (2, 17): 2, (5, 7): 2}
QUADRINOMIAL_3_8 = "x + x^1313 + x^2625 + x^3937"


def _coef_text(rng, p: int, n: int, q: int) -> str:
    return str(rng.randrange(1, p)) if n == 1 else f"a^{rng.randrange(q - 1)}"


def _off_table(rng, p: int, n: int) -> tuple:
    return (field_key(p, n), f"{_coef_text(rng, p, n, p**n)}*x^{OFF_TABLE_EXPONENT[p, n]}",
            None)


class VerifyLarge(Workload):
    """The verify pipeline on sparse index-form polynomials over fields on
    both sides of the 2^16 table limit."""

    name = "verify-large"
    specs = list(VERIFY_MIX) + [(2, 17), (5, 7)]

    def prepare(self, lib, fields):
        # exponents of monomial-law involutions a*x^r: r^2 = 1 (mod q-1)
        return {field_key(p, n): [r for r in range(1, p**n) if (r * r - 1) % (p**n - 1) == 0]
                for (p, n) in VERIFY_MIX if (p, n) not in OFF_TABLE_EXPONENT}

    def probes(self, rng):
        return [_off_table(rng, 2, 17), _off_table(rng, 5, 7)]

    def round(self, prep, rng):
        reqs = []
        for (p, n), (count, terms) in VERIFY_MIX.items():
            key, q = field_key(p, n), p**n
            if (p, n) in OFF_TABLE_EXPONENT:
                reqs.append(_off_table(rng, p, n))
                continue
            ds = [d for d in _divisors(q - 1) if 4 <= d <= 64]
            for i in range(count):
                if key == "3^8" and i == 0:
                    reqs.append((key, QUADRINOMIAL_3_8, True))
                elif terms is None and i % 8 == 7:
                    r = rng.choice(prep[key])
                    step = (q - 1) // gcd(r + 1, q - 1)
                    reqs.append((key, f"a^{step * rng.randrange(q)}*x^{r}", True))
                else:
                    d = rng.choice(ds)
                    s, r = (q - 1) // d, rng.randrange(1, q)
                    text = " + ".join(
                        f"{_coef_text(rng, p, n, q)}*x^{(r + s * e - 1) % (q - 1) + 1}"
                        for e in rng.sample(range(d), terms or i % 4 + 1))
                    reqs.append((key, text, None))
        rng.shuffle(reqs)
        return reqs

    def execute(self, lib, fields, req):
        key, text, expect = req
        fld = fields[key]
        f = lib.polyring.parse_poly(fld, text)
        rhs = lib.polyring.decompose(f)
        inv = lib.criterion.check_involution(rhs).verdict
        perm = lib.criterion.check_permutation(rhs).ok
        rep = lib.oracle.sweep(f)
        shown = str(f)
        o_perm = bool(rep.is_permutation)
        o_inv = o_perm and bool(rep.is_involution)
        ok = inv == o_inv and perm == o_perm and expect in (None, inv)
        return Result("ok" if ok else "failed",
                      f"{key} {rhs.r} {rhs.s} {inv:d}{perm:d} {rep.fixed_point_count} {shown}")


# -- construct -----------------------------------------------------------------

# Requests per round.  construct_general cells are (field, d) with d from 3
# to 85; the last three fields lie above the table limit, where every
# coefficient printed costs a baby-step giant-step discrete logarithm.  The
# counts make p90 fall in the middle of the twelve 2^8, d = 17 requests,
# with the ten slower requests above it, so it does not sit on a jump
# between two singletons; the median falls among the many sub-millisecond
# small-field requests.
GENERAL_CELLS = {((7, 1), 3): 6, ((13, 1), 4): 6, ((2, 4), 5): 6, ((5, 2), 8): 6,
                 ((2, 6), 9): 6, ((3, 4), 16): 1, ((2, 8), 17): 12, ((3, 5), 22): 1,
                 ((2, 12), 35): 1, ((3, 8), 41): 1, ((3, 8), 80): 1, ((2, 16), 85): 1,
                 ((2, 18), 7): 1, ((2, 20), 11): 1, ((3, 12), 5): 1}
CLOSED_FORMS = {"d2": {(13, 1): 3, (3, 5): 3, (3, 8): 3},
                "d3": {(7, 1): 3, (2, 8): 3, (2, 12): 3},
                "cor-r1": {(2, 6): 3, (2, 16): 3, (2, 20): 1},
                "cor-rq43": {(2, 8): 3, (2, 12): 3, (2, 18): 1}}
FAMILY_COPIES = 3


def _family_slots(rng):
    """One round of family requests: (family id, field key, params, admit).
    admit is True for inputs validate() must accept, False for inputs it
    must refuse, None where either may happen.  The admissible parameter
    ranges follow tests/test_families.py; a^t is alpha^t."""
    def a(t):
        return f"a^{t}"

    sub4 = [a(21 * i) for i in range(3)]          # order-4 subfield of 2^6
    sub9 = [a(820 * i) for i in range(8)]         # order-9 subfield of 3^8
    return [
        ("thm-conj-symmetric", "5^2",
         {"r": "19", f"h{rng.randrange(6)}": a(rng.randrange(24))}, None),
        ("thm-conj-symmetric", "5^2", {"r": "11", "h3": a(rng.randrange(24))}, None),
        ("cor-qb", "5^2", {"i": str(rng.randrange(1, 6)), "b": a(2 * rng.randrange(12))}, True),
        ("cor-qb", "7^2",
         {"i": str(rng.randrange(1, 8)), "b": a(2 * rng.randrange(24) + 1)}, True),
        ("cor-qb", "3^4", {"i": str(rng.randrange(1, 10)), "b": a(2 * rng.randrange(40))}, True),
        ("thm-palindromic", "2^6",
         {"q": "4", "d": "3", "r": "20", "h0": rng.choice(sub4), "h2": rng.choice(sub4)}, None),
        ("thm-palindromic", "3^2",
         {"q": "3", "d": "2", "r": "3", "h0": rng.choice(["1", "2"])}, True),
        ("cor-mdq1", "2^6", {"a": rng.choice(sub4), "b": rng.choice(sub4)}, None),
        ("cor-m4d4", "3^8",
         {"a": rng.choice(sub9), "b": rng.choice(sub9), "c": rng.choice(sub9)}, None),
        ("thm-reversal", "3^2", {"r": "1", "d": "4", "a0": a(rng.randrange(8))}, True),
        ("thm-reversal", "5^2", {"r": "3", "d": "2", "a0": a(rng.randrange(24)), "a1": "1"}, None),
        ("cor-exm", "5^2", {"a": a(rng.randrange(24))}, None),
        ("cor-exm", "7^2", {"a": a(rng.randrange(48))}, None),
        ("thm-geometric", "3^8", {"q": "9", "d": "5", "m": "4", "k": "4"}, True),
        ("thm-geometric", "3^4",
         {"q": "3", "d": "4", "m": "4", "k": str(rng.choice([1, 5, 13, 17]))}, True),
        ("lift", "3^6", {"q": "9", "m": "3", "r": "90", "h": "x"}, True),
        ("lift", "3^6", {"q": "9", "m": "3", "r": "1", "h": rng.choice(["1", "2"])}, True),
        ("lift", "2^4", {"q": "4", "m": "2", "r": "4", "h": "1"}, True),
        ("lift", "2^6", {"q": "8", "m": "2", "r": "8", "h": "1"}, True),
        # refused by validate(): non-square b for q = 1 mod 4, a k off the
        # degree congruence, even characteristic, r^2 != 1 mod s
        ("cor-qb", "5^2", {"i": "1", "b": a(2 * rng.randrange(12) + 1)}, False),
        ("thm-geometric", "3^4",
         {"q": "3", "d": "4", "m": "4", "k": str(rng.choice([2, 3, 4]))}, False),
        ("cor-exm", "2^4", {"a": a(rng.randrange(15))}, False),
        ("lift", "3^6", {"q": "9", "m": "3", "r": "2", "h": "x"}, False),
    ]


def _closed_form_args(rng, kind: str, q: int, prep: dict) -> tuple:
    if kind == "d2":
        # a non-square and b = a^{-r} meet both value conditions for odd r
        s = (q - 1) // 2
        r = rng.choice([r for r in prep[s] if r % 2])
        t = 2 * rng.randrange((q - 1) // 2) + 1
        return r, f"a^{t}", f"a^{-r * t % (q - 1)}"
    s = (q - 1) // 3
    if kind == "d3":
        r = rng.choice(prep[s])
        n1 = rng.randrange(s)
        return r, _fixed_offset(rng, s, r), n1, -r * n1 % s
    if kind == "cor-r1":
        return (rng.randrange(s),)
    return rng.randrange(s), rng.randrange(s)


def _fixed_offset(rng, s: int, r: int) -> int:
    """A random n in Z_s with n * (r + 1) = 0 (mod s)."""
    g = gcd(r + 1, s)
    return s // g * rng.randrange(g)


def _random_sigma(rng, d: int) -> list[int]:
    """A random involution of range(d), pairing indices with probability 0.6."""
    idx = list(range(d))
    rng.shuffle(idx)
    mapping = [None] * d
    while idx:
        i = idx.pop()
        if idx and rng.random() < 0.6:
            j = idx.pop()
            mapping[i], mapping[j] = j, i
        else:
            mapping[i] = i
    return mapping


class Construct(Workload):
    """Constructions expanded and rendered: general interpolation, the four
    closed forms and the nine families."""

    name = "construct"
    specs = sorted({c for c, _ in GENERAL_CELLS}
                   | {c for cells in CLOSED_FORMS.values() for c in cells}
                   | {(5, 2), (7, 2), (3, 4), (2, 6), (3, 2), (3, 8), (3, 6), (2, 4),
                      (2, 2), (2, 3)})

    def prepare(self, lib, fields):
        cells = {(p**n - 1) // d for (p, n), d in GENERAL_CELLS}
        cells |= {(p**n - 1) // 3 for p, n in CLOSED_FORMS["d3"]}
        cells |= {(p**n - 1) // 2 for p, n in CLOSED_FORMS["d2"]}
        return {s: _involutory_exponents(s) for s in cells}

    def round(self, prep, rng):
        reqs = []
        for ((p, n), d), count in GENERAL_CELLS.items():
            s = (p**n - 1) // d
            for _ in range(count):
                r = rng.choice(prep[s])
                sigma = _random_sigma(rng, d)
                offsets = [None] * d
                for i in range(d):
                    if offsets[i] is not None:
                        continue
                    if sigma[i] == i:
                        offsets[i] = _fixed_offset(rng, s, r)
                    else:
                        offsets[i] = rng.randrange(s)
                        offsets[sigma[i]] = -r * offsets[i] % s
                reqs.append(("general", field_key(p, n), (s, sigma, r, offsets)))
        for kind, cells in CLOSED_FORMS.items():
            for (p, n), count in cells.items():
                q = p**n
                for _ in range(count):
                    reqs.append((kind, field_key(p, n), _closed_form_args(rng, kind, q, prep)))
        for _ in range(FAMILY_COPIES):
            for fid, key, params, admit in _family_slots(rng):
                reqs.append(("family", key, (fid, params, admit)))
        rng.shuffle(reqs)
        return reqs

    def execute(self, lib, fields, req):
        kind, key, args = req
        fld = fields[key]
        con = lib.construct
        if kind == "general":
            s, sigma, r, offsets = args
            sub = lib.criterion.SubgroupInvolution(sigma)
            rhs = con.construct_general(fld, s, sub, r, offsets)
            f = rhs.expand()
            return Result("ok", f"{kind} {key} {f}", (key, f, True, rhs, sub))
        if kind in ("d2", "d3", "cor-r1", "cor-rq43"):
            build = {"d2": con.construct_d2, "d3": con.construct_d3,
                     "cor-r1": con.construct_cor_r1, "cor-rq43": con.construct_cor_rq43}[kind]
            f = build(fld, *args)
            return Result("ok", f"{kind} {key} {f}", (key, f, True, None, None))
        fid, params, admit = args
        fam = lib.families
        checks = fam.validate(fam.FamilySpec(fid, fld, params))
        if not all(c.ok for c in checks):
            # a refusal is expected where admit is False or undetermined
            return Result("failed" if admit else "refused", f"{fid} {key} refused")
        if admit is False:
            return Result("failed", f"{fid} {key} admitted an inadmissible input")
        claim = True
        out = _generate(lib, fid, fld, fields, params)
        if fid == "thm-reversal":
            claim, out = out.involution, out.rhs
        f = out if isinstance(out, lib.polyring.SparsePoly) else out.expand()
        return Result("ok", f"{fid} {key} {claim:d} {f}", (key, f, claim, None, None))

    def post_check(self, lib, fields, kept):
        failures = []
        for key, f, claim, rhs, sub in kept:
            if fields[key].q <= ORACLE_CHECK_LIMIT:
                rep = lib.oracle.sweep(f)
                if bool(rep.is_permutation and rep.is_involution) != claim:
                    failures.append(f"oracle disagrees with the construction {f} over {key}")
            if sub is not None and lib.criterion.induced_subgroup_involution(rhs) != sub:
                failures.append(f"induced involution differs from sigma over {key}")
        return failures


def _generate(lib, fid, fld, fields, params):
    fam = lib.families
    if fid == "thm-conj-symmetric":
        return fam.gen_conj_symmetric(fld, int(params["r"]), _coeffs(params, "h"))
    if fid == "cor-qb":
        return fam.gen_cor_qb(fld, int(params["i"]), params["b"])
    if fid == "thm-palindromic":
        return fam.gen_palindromic(fld, int(params["q"]), int(params["d"]), int(params["r"]),
                                   _coeffs(params, "h"))
    if fid == "cor-mdq1":
        return fam.gen_cor_mdq1(fld, params["a"], params["b"])
    if fid == "cor-m4d4":
        return fam.gen_cor_m4d4(fld, params["a"], params["b"], params["c"])
    if fid == "thm-reversal":
        return fam.gen_reversal(fld, int(params["r"]), int(params["d"]), _coeffs(params, "a"))
    if fid == "cor-exm":
        return fam.gen_cor_exm(fld, params["a"])
    if fid == "thm-geometric":
        return fam.gen_geometric(fld, int(params["q"]), int(params["d"]), int(params["m"]),
                                 int(params["k"]))
    base_q, m = int(params["q"]), int(params["m"])
    base = fields[next(k for k, f in fields.items() if f.q == base_q and f.p == fld.p)]
    h = lib.polyring.parse_poly(base, params["h"])
    return fam.lift_involution(base, m, int(params["r"]), h, fld)


def _coeffs(params: dict, prefix: str) -> dict:
    return {int(k[len(prefix):]): v for k, v in params.items()
            if k.startswith(prefix) and k[len(prefix):].isdigit()}


# -- cli -------------------------------------------------------------------------

# Every command runs through cli.main in this process; each builds its own
# field, as a command-line user pays.  Exit codes and stdout digests are
# checked against goldens recorded from the seed commit.
CRITERION_01 = ("verify", "--field", "2^6", "--poly", "a^21*x^62 + a^42*x^41 + a^42*x^20")
CRITERION_02 = ("verify", "--field", "3^8", "--poly", QUADRINOMIAL_3_8, "--oracle")
HEADROOM_LIMITS = {"cli.headroom.criterion01": (CRITERION_01, 0.1),
                   "cli.headroom.criterion02": (CRITERION_02, 2.0)}
SEARCH_SEEDS = (1, 2, 3, 4)

CLI_FIXED = [
    # README examples
    ("verify", "--field", "7", "--poly", "2*x^5 + 3*x^3 + 3*x"),
    ("family", "thm-geometric", "--field", "3^8", "--params", "q=9,d=5,m=4,k=4"),
    ("family", "list"),
    ("construct", "general", "--field", "7", "--s", "2", "--sigma", "inverse", "--r", "1",
     "--n", "0,0,0"),
    ("construct", "d2", "--field", "13", "--r", "1", "--a", "2", "--b", "7"),
    ("construct", "cor-r1", "--field", "2^8", "--n1", "17"),
    ("search", "--field", "4"),
    # acceptance criteria 1 and 2
    CRITERION_01,
    ("verify", "--field", "2^6", "--poly", "a^1*x^62 + a^2*x^41 + a^2*x^20"),
    CRITERION_02,
    # every subcommand
    ("field", "--field", "2^6"),
    ("field", "--field", "3^8", "--json"),
    ("field", "--field", "13"),
    ("field", "--field", "2^12"),
    ("verify", "--field", "7", "--poly", "2*x^5 + 3*x^3 + 3*x", "--json"),
    ("verify", "--field", "7", "--poly", "x + 1"),
    ("verify", "--field", "2^8", "--poly", "a^3*x^16 + x^101"),
    ("verify", "--field", "3^5", "--poly", "x^241", "--oracle", "--json"),
    ("verify", "--field", "2^12", "--poly", "a^5*x^64", "--cap", "256", "--oracle"),
    ("verify", "--field", "5^2", "--poly", "a^6*x^17 + a^2*x^5", "--s", "4"),
    ("construct", "general", "--field", "2^8", "--s", "15", "--sigma", "inverse", "--r", "1"),
    ("construct", "general", "--field", "3^4", "--s", "5", "--sigma", "identity", "--r", "1",
     "--json"),
    ("construct", "general", "--field", "13", "--s", "3", "--sigma", "perm:1,0,2,3",
     "--r", "1", "--n", "1,2,0,0"),
    ("construct", "d3", "--field", "7", "--r", "1", "--n0", "0", "--n1", "0", "--n2", "0"),
    ("construct", "d2", "--field", "5", "--r", "1", "--a", "1", "--b", "4"),
    ("construct", "cor-rq43", "--field", "2^8", "--n0", "3", "--n1", "7"),
    ("construct", "cor-rq43", "--field", "2^2", "--n0", "0", "--n1", "0", "--json"),
    ("family", "list", "--json"),
    ("family", "cor-exm", "--field", "5^2", "--params", "a=a^0"),
    ("family", "cor-mdq1", "--field", "2^6", "--params", "a=a^21,b=a^42"),
    ("family", "lift", "--field", "3^6", "--params", "q=9,m=3,r=90,h=x"),
    ("family", "thm-conj-symmetric", "--field", "5^2", "--params", "r=19,h1=1"),
    ("family", "thm-reversal", "--field", "5^2", "--params", "r=3,d=2,a0=1,a1=1"),
    ("family", "thm-palindromic", "--field", "3^2", "--params", "q=3,d=2,r=3,h0=1", "--json"),
    ("family", "cor-m4d4", "--field", "3^8", "--params", "a=a^820,b=1,c=a^1640"),
    ("family", "cor-qb", "--field", "3^2", "--params", "i=1,b=a^1"),
    # fields at and near the table limit, whose table build dominates; with
    # the five 3^8 commands above they put p90 inside one group
    ("field", "--field", "2^16"),
    ("verify", "--field", "3^8", "--poly", "a^5*x^1641 + x^4921"),
    ("construct", "d2", "--field", "3^8", "--r", "1", "--a", "a^1", "--b", "a^6559"),
    ("construct", "cor-r1", "--field", "2^16", "--n1", "5"),
    ("family", "thm-geometric", "--field", "3^8", "--params", "q=9,d=5,m=4,k=4", "--json"),
    ("family", "cor-m4d4", "--field", "3^8", "--params", "a=1,b=a^820,c=1", "--json"),
    # bad inputs: exit 3 or 4 with a one-line message
    ("verify", "--field", "6", "--poly", "x"),
    ("family", "nope", "--field", "7"),
    ("verify", "--field", "7", "--poly", "x +"),
    ("verify", "--field", "7"),
    ("family", "lift", "--field", "3^6", "--params", "q=9,m=3,r=90"),
    ("construct", "d2", "--field", "2^2", "--r", "1", "--a", "1", "--b", "1"),
    ("family", "lift", "--field", "3^6", "--params", "q=9,m=3,r=2,h=x"),
    ("family", "cor-qb", "--field", "5^2", "--params", "i=1,b=a^1"),
]


def search_commands(seed: int) -> list[tuple[str, ...]]:
    return [
        ("search", "--field", "4", "--seed", str(seed), "--json"),
        ("search", "--field", "7", "--seed", str(seed), "--sample", "20",
         "--exhaustive-limit", "30"),
        ("search", "--field", "8", "--seed", str(seed), "--sample", "20",
         "--exhaustive-limit", "100"),
        ("search", "--field", "16", "--seed", str(seed), "--sample", "10",
         "--exhaustive-limit", "30"),
    ]


def all_cli_commands() -> list[tuple[str, ...]]:
    return CLI_FIXED + [c for seed in SEARCH_SEEDS for c in search_commands(seed)]


def run_cli(lib, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def command_key(argv) -> str:
    return json.dumps(list(argv))


class Cli(Workload):
    """In-process cli.main calls: every subcommand, the README examples,
    acceptance criteria 1 and 2, and bad inputs."""

    name = "cli"
    specs = []
    watch = (CRITERION_01, CRITERION_02)

    def setup(self, lib, first_mul):
        # each invocation builds its own field; set-up is the import plus
        # loading the goldens
        return {"goldens": json.loads(GOLDENS.read_text())}

    def round(self, prep, rng):
        reqs = CLI_FIXED + search_commands(rng.choice(SEARCH_SEEDS))
        rng.shuffle(reqs)
        return reqs

    def execute(self, lib, fields, argv):
        golden = fields["goldens"][command_key(argv)]
        rc, out, err = run_cli(lib, argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        ok = (rc == golden["rc"] and digest == golden["stdout_sha256"]
              and "Traceback" not in err and (rc < 3) == (err == ""))
        if rc >= 3:
            ok = ok and err.startswith("error: ") and err.count("\n") == 1
        return Result(("refused" if rc >= 3 else "ok") if ok else "failed", f"{rc} {digest}")


WORKLOADS = {w.name: w for w in (SearchSmall(), VerifyLarge(), Construct(), Cli())}
