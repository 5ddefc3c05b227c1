"""Top-level acceptance sweep.  Each test here is one numbered criterion
with its tolerance pinned in the assertions; run with -s to see the
one-line pass reports, or -v for the per-test verdicts."""
from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from math import gcd

import pytest

from invopoly import cli
from invopoly.construct import (
    construct_cor_r1,
    construct_cor_rq43,
    construct_general,
    fixed_point_choices,
    involutory_exponents,
    partner_offset,
)
from invopoly.criterion import (
    SubgroupInvolution,
    check_iff_subgroup,
    check_involution,
    check_permutation,
    induced_subgroup_involution,
)
from invopoly.errors import HValueZero
from invopoly.families import (
    cor_exm_case_verdict,
    cor_exm_gcd_verdict,
    gen_cor_mdq1,
    lift_involution,
)
from invopoly.gf import make_field
from invopoly.oracle import sweep
from invopoly.polyring import RhsForm, SparsePoly, interpolate_on_subgroup, parse_poly


def _main(*argv: str):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _is_involution(f) -> bool:
    rep = sweep(f)
    return bool(rep.is_permutation and rep.is_involution)


def test_criterion_01_order64_trinomial(f4, f64):
    # exact, oracle over 64 elements, < 0.1 s; the printed coefficients
    # name a generator of the order-3 subgroup, which is alpha^21 under
    # this package's pinned modulus, not alpha itself
    start = time.perf_counter()
    rc, out = _main("verify", "--field", "2^6",
                    "--poly", "a^21*x^62 + a^42*x^41 + a^42*x^20")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert "involution: true" in out
    assert elapsed < 0.1
    # under the literal alpha reading the same shape is not a permutation,
    # and the criterion and the oracle agree on that
    rc, out = _main("verify", "--field", "2^6",
                    "--poly", "a^1*x^62 + a^2*x^41 + a^2*x^20")
    assert rc == 2
    assert "criterion: false" in out
    assert "oracle_permutation: false" in out
    # every (a, b) over the order-4 subfield with nonvanishing h works
    sub = [f64.zero()] + [f64.pow_alpha(21 * i) for i in range(3)]
    wins = skipped = 0
    for a in sub:
        for b in sub:
            try:
                rhs = gen_cor_mdq1(f64, a, b)
            except HValueZero:
                skipped += 1
                continue
            assert _is_involution(rhs.expand())
            wins += 1
    assert (wins, skipped) == (9, 7)
    print(f"criterion 1: PASS ({elapsed * 1000:.1f} ms, sweep {wins} involutions)")


def test_criterion_02_order6561_quadrinomial(f3_8):
    # exact, oracle over 6561 elements, < 2 s
    start = time.perf_counter()
    rc, out = _main("verify", "--field", "3^8",
                    "--poly", "x + x^1313 + x^2625 + x^3937", "--oracle")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert "oracle_involution: true" in out
    assert elapsed < 2.0
    print(f"criterion 2: PASS ({elapsed:.2f} s)")


def test_criterion_03_r1_family_every_offset(f256):
    # all 85 offsets, each oracle-checked over 256 elements, < 2 s
    start = time.perf_counter()
    for ell in range(85):
        f = construct_cor_r1(f256, ell)
        rep = sweep(f)
        assert rep.is_permutation and rep.is_involution, ell
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"criterion 3: PASS (85 instances, {elapsed:.2f} s)")


def test_criterion_04_rq43_family_full_grid(f256, quick):
    # all 85 x 85 offset pairs oracle-checked, < 30 s; --quick subsamples
    # 500 random pairs plus the four corners
    start = time.perf_counter()
    if quick:
        rng = random.Random(4)
        pairs = {(rng.randrange(85), rng.randrange(85)) for _ in range(500)}
        pairs.update({(0, 0), (0, 84), (84, 0), (84, 84)})
    else:
        pairs = [(u, v) for u in range(85) for v in range(85)]
    for u, v in pairs:
        f = construct_cor_rq43(f256, u, v)
        rep = sweep(f)
        assert rep.is_permutation and rep.is_involution, (u, v)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4: PASS ({len(pairs)} instances, {elapsed:.1f} s)")


def test_criterion_05_criterion_equals_oracle(f4, f5, f7, f8, f9, f11, f13, f16):
    # every s | q-1, every r in [1, q-1], 200 seeded nonzero h per cell;
    # both the involution and the permutation verdicts must match the oracle
    rng = random.Random(20260822)
    instances = 0
    for fld in (f4, f5, f7, f8, f9, f11, f13, f16):
        q = fld.q
        for s in [t for t in range(1, q) if (q - 1) % t == 0]:
            d = (q - 1) // s
            for r in range(1, q):
                cell = 0
                while cell < 200:
                    h = SparsePoly.from_pairs(
                        fld, [(i, fld.element(rng.randrange(q))) for i in range(d)])
                    if h.is_zero:
                        continue
                    rhs = RhsForm(fld, r, s, h)
                    rep = sweep(rhs.expand())
                    oracle_inv = bool(rep.is_permutation and rep.is_involution)
                    oracle_perm = bool(rep.is_permutation)
                    assert check_involution(rhs).verdict == oracle_inv, (q, s, r)
                    assert check_permutation(rhs).ok == oracle_perm, (q, s, r)
                    cell += 1
                    instances += 1
    assert instances == 52000
    print(f"criterion 5: PASS ({instances} instances, 0 mismatches)")


def test_criterion_06_construction_soundness():
    # 1000 seeded admissible (field, s, sigma, r, offsets) tuples: the
    # constructed map passes the oracle and returns exactly its sigma
    pool = [make_field(*a) for a in
            [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
             (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]]
    rng = random.Random(77)
    done = 0
    while done < 1000:
        fld = pool[rng.randrange(len(pool))]
        q = fld.q
        divs = [t for t in range(1, q) if (q - 1) % t == 0]
        s = divs[rng.randrange(len(divs))]
        d = (q - 1) // s
        if d % fld.p == 0:
            continue
        choices = involutory_exponents(s)
        r = choices[rng.randrange(len(choices))]
        idx = list(range(d))
        mapping: list[int | None] = [None] * d
        rng.shuffle(idx)
        while idx:
            i = idx.pop()
            if mapping[i] is not None:
                continue
            if idx and rng.random() < 0.6:
                j = next((k for k in idx if mapping[k] is None), None)
                if j is not None and j != i:
                    idx.remove(j)
                    mapping[i], mapping[j] = j, i
                    continue
            mapping[i] = i
        sigma = SubgroupInvolution(mapping)
        offsets: list[int | None] = [None] * d
        for i in range(d):
            if offsets[i] is not None:
                continue
            if mapping[i] == i:
                usable = fixed_point_choices(s, r)
                offsets[i] = usable[rng.randrange(len(usable))]
            else:
                n_i = rng.randrange(s)
                offsets[i] = n_i
                offsets[mapping[i]] = partner_offset(s, r, n_i)
        rhs = construct_general(fld, s, sigma, r, offsets)
        rep = sweep(rhs.expand())
        assert rep.is_permutation and rep.is_involution, (q, s, r)
        assert induced_subgroup_involution(rhs) == sigma, (q, s, r)
        done += 1
    print("criterion 6: PASS (1000/1000 oracle, 1000/1000 sigma recovery)")


def test_criterion_07_two_term_trichotomy():
    # base orders 3, 5, 7: for every nonzero a in the quadratic extension
    # the case table, the power inequality, and the oracle coincide; the
    # comparison count (one verdict triple plus q^2 oracle points per a)
    # totals (3^4 - 1) + (5^4 - 1) + (7^4 - 1) = 3104
    comparisons = 0
    for q in (3, 5, 7):
        ext = make_field(q, 2)
        for aenc in range(1, ext.q):
            a = ext.element(aenc)
            case = cor_exm_case_verdict(ext, a)
            assert case == cor_exm_gcd_verdict(ext, a), (q, aenc)
            f = SparsePoly.from_pairs(
                ext, [(q * q - 3 * q + 1, a), (q - 2, a ** q)])
            assert _is_involution(f) == case, (q, aenc)
            comparisons += 1 + ext.q
    assert comparisons == 3104
    print(f"criterion 7: PASS ({comparisons} comparisons)")


def test_criterion_08_monomial_law():
    # q <= 32 exhaustively: a x^r is an involution iff r^2 = 1 (mod q-1)
    # and a^{r+1} = 1
    shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
              (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2),
              (3, 3), (29, 1), (31, 1), (2, 5)]
    instances = 0
    for p, n in shapes:
        fld = make_field(p, n)
        q = fld.q
        for aenc in range(1, q):
            a = fld.element(aenc)
            for r in range(1, q):
                law = (r * r - 1) % (q - 1) == 0 and a ** (r + 1) == fld.one()
                f = SparsePoly.from_pairs(fld, [(r, a)])
                assert _is_involution(f) == law, (q, aenc, r)
                instances += 1
    assert instances == 5609
    print(f"criterion 8: PASS ({instances} monomials)")


def test_criterion_09_subgroup_only_test(f64, f3_6):
    # 500 seeded instances meeting the hypotheses over q <= 121: the
    # d-point test agrees with the full oracle every time
    rng = random.Random(9)
    pool = [make_field(*a) for a in
            [(7, 1), (3, 2), (11, 1), (13, 1), (2, 4), (5, 2), (3, 3),
             (7, 2), (3, 4), (11, 2)]]
    done = 0
    while done < 500:
        fld = pool[rng.randrange(len(pool))]
        q = fld.q
        cells = []
        for s in [t for t in range(1, q) if (q - 1) % t == 0]:
            d = (q - 1) // s
            if d == 1 or gcd(s, d) != 1:
                continue
            for r in [t for t in range(1, s + 1) if (t * t - 1) % s == 0]:
                cells.append((s, d, r))
        if not cells:
            continue
        s, d, r = cells[rng.randrange(len(cells))]
        _, mu = fld.subgroup(d)
        vals = [mu[rng.randrange(d)] for _ in range(d)]
        h = interpolate_on_subgroup(fld, vals)
        if h.is_zero:
            continue
        rhs = RhsForm(fld, r, s, h)
        assert check_iff_subgroup(rhs) == _is_involution(rhs.expand()), (q, s, r)
        done += 1
    # lifted instances verified against the full extension-field oracle
    f8 = make_field(2, 3)
    lifted = lift_involution(f8, 2, 8, SparsePoly.from_pairs(f8, [(0, f8.one())]),
                             ext=f64)
    assert str(lifted.expand()) == "x^8"
    assert _is_involution(lifted.expand())
    f9 = make_field(3, 2)
    lifted = lift_involution(f9, 3, 90, SparsePoly.from_pairs(f9, [(1, f9.one())]),
                             ext=f3_6)
    assert str(lifted.expand()) == "x^181"
    assert _is_involution(lifted.expand())
    print("criterion 9: PASS (500/500 agreement, 2 lifted instances)")


def test_criterion_10_search_determinism():
    # byte-identical output across two identical runs
    rc1, out1 = _main("search", "--field", "9", "--seed", "42")
    rc2, out2 = _main("search", "--field", "9", "--seed", "42")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "mismatches=0" in out1
    print("criterion 10: PASS (byte-identical)")
