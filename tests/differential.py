"""A differential corpus: every public verdict and witness of the library
on a fixed, seeded set of forms, one canonical text line each, and one
sha256 per field.

Each field gets its own generator, seeded by its name, and its own digest,
so a change in any report names the field it showed on.  The lines cover
CriterionReport, PermutationCheck, first_root, subgroup_data,
interpolate_on_subgroup and oracle.sweep's PermReport, every element as its
encoding, over the fields of the criterion's property tests, the same
fields built without exp/log tables, and fields on both sides of
gf.TABLE_LIMIT.

    PYTHONPATH=src python tests/differential.py            # print the digests
    PYTHONPATH=src python tests/differential.py --record   # rewrite differential.sha256
    PYTHONPATH=src python tests/differential.py --show 3^4 # print one field's lines
"""

from __future__ import annotations

import hashlib
import random
import sys
from math import gcd
from pathlib import Path

from invopoly import gf
from invopoly.construct import construct_from_inverse, involutory_exponents
from invopoly.criterion import check_involution, check_permutation, first_root, subgroup_data
from invopoly.gf import Element, divisors, factorize, make_field
from invopoly.oracle import sweep
from invopoly.polyring import RhsForm, SparsePoly, interpolate_on_subgroup

DIGESTS = Path(__file__).with_name("differential.sha256")

# the fields of test_criterion.SMALL_FIELDS: every field with 4 <= q <= 64
SMALL = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
         (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]
# table-backed (3^10, 2^16, 65521) and table-free (the rest) past q = 2^15
LARGE = [(3, 10), (3, 11), (5, 7), (7, 6), (2, 16), (2, 17), (65521, 1), (65537, 1)]
LARGE_D = 30       # on the large fields the criterion walks at most this many points
LARGE_FORMS = 3    # random forms per s on the large fields


def field_names() -> list[str]:
    names = [_name(p, n) for p, n in SMALL]
    return names + [name + " table-free" for name in names] + [_name(p, n) for p, n in LARGE]


def _name(p: int, n: int) -> str:
    return f"{p}^{n}" if n > 1 else str(p)


def _field(name: str) -> gf.Field:
    spec, _, tag = name.partition(" ")
    p, _, n = spec.partition("^")
    if not tag:
        return make_field(int(p), int(n or 1))
    limit, gf.TABLE_LIMIT = gf.TABLE_LIMIT, 0
    try:
        return make_field(int(p), int(n or 1))
    finally:
        gf.TABLE_LIMIT = limit


def _enc(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, Element):
        return str(x.enc)
    if isinstance(x, int):
        return str(x)
    return ",".join(_enc(y) for y in x)


def _poly(f: SparsePoly) -> str:
    return " ".join(f"{e}:{c.enc}" for e, c in sorted(f.terms.items())) or "0"


def _random_h(field, rng: random.Random, d: int, terms: int) -> SparsePoly:
    pairs = [(rng.randrange(d), field.element(rng.randrange(1, field.q))) for _ in range(terms)]
    return SparsePoly.from_pairs(field, pairs)


def _forms(field, rng: random.Random, large: bool):
    """(label, RhsForm) pairs: random sparse and dense h at every s dividing
    q - 1 (on the large fields only those with d <= LARGE_D), r at random
    and among the admissible residues, forms with gcd(r, s) > 1, and one
    constructed involution per s."""
    q = field.q
    for s in divisors(q - 1):
        d = (q - 1) // s
        if large and d > LARGE_D:
            continue
        # 1 and s - 1 are always admissible; larger s would take long to list
        admissible = involutory_exponents(s) if s <= 4096 else [1, s - 1]
        shared = factorize(s)[0][0] if s > 1 else 0   # r a multiple of it shares it with s
        for k in range(LARGE_FORMS if large else 4):
            r = rng.choice(admissible) if k % 2 else rng.randrange(1, q)
            terms = rng.randrange(1, 4) if k < 2 else d
            yield f"s={s} sparse-or-dense", RhsForm(field, r, s, _random_h(field, rng, d, terms))
        if shared:
            yield f"s={s} shared", RhsForm(field, shared * rng.randrange(1, s // shared + 1), s,
                                         _random_h(field, rng, d, 2))
        yield f"s={s} inverse", construct_from_inverse(field, s, rng.choice(admissible))


def _rhs_lines(label: str, rhs: RhsForm, large: bool, tabled: bool) -> list[str]:
    head = f"{label} r={rhs.r} h={_poly(rhs.h)}"
    # a fresh form for check_permutation, so it walks even when the
    # involution report would answer it
    fresh = RhsForm(rhs.field, rhs.r, rhs.s, rhs.h)
    perm = check_permutation(fresh)
    inv = check_involution(rhs)
    lines = [
        f"{head} criterion {inv.r_condition} {inv.gcd_condition} {inv.phi_all_one} "
        f"{_enc(inv.failing_z)} {inv.verdict}",
        f"{head} permutation {perm.ok} {perm.gcd_ok} {_enc(perm.witness)}",
        f"{head} first_root {_enc(first_root(rhs))}",
    ]
    if not large or tabled or rhs.d <= 8:
        data = subgroup_data(rhs)
        text = _enc(data) if isinstance(data, Element) else " ".join(_enc(t) for t in data)
        lines.append(f"{head} subgroup_data {text}")
    return lines


def _sweep_line(label: str, f: SparsePoly) -> str:
    rep = sweep(f)
    return (f"{label} sweep f={_poly(f)} {rep.is_permutation} {rep.is_involution} "
            f"{rep.fixed_point_count} {_enc(rep.witness)}")


def lines(name: str) -> list[str]:
    """The corpus of one field, in a fixed order."""
    field = _field(name)
    # whether make_field built the tables: the first sweep builds them on
    # the other fields up to DEFAULT_CAP, and the corpus must not follow that
    large, tabled = field.q > 64, field.log_table is not None
    rng = random.Random(f"differential/{name}")
    out = []
    forms = list(_forms(field, rng, large))
    for label, rhs in forms:
        out += _rhs_lines(label, rhs, large, tabled)
    for s in divisors(field.q - 1):
        d = (field.q - 1) // s
        if d <= (LARGE_D if large else 64):
            values = [field.element(rng.randrange(field.q) if rng.random() < 0.9 else 0)
                      for _ in range(d)]
            out.append(f"interpolate d={d} {_enc(values)} -> "
                       f"{_poly(interpolate_on_subgroup(field, values))}")
    if large:
        # one structured non-permutation x^e, gcd(e, q - 1) > 1, and the
        # sparsest constructed involution; the sparse forms too on the
        # fields made with tables, as the corpus was recorded
        e = next(e for e in range(2, field.q) if gcd(e, field.q - 1) > 1)
        out.append(_sweep_line("power", SparsePoly.from_pairs(field, [(e, field.one())])))
        label, rhs = min((item for item in forms if item[0].endswith("inverse")),
                         key=lambda item: len(item[1].h.terms))
        out.append(_sweep_line(label, rhs.expand()))
        if tabled:
            out += [_sweep_line(label, rhs.expand()) for label, rhs in forms
                    if len(rhs.h.terms) <= 3]
    else:
        out += [_sweep_line(label, rhs.expand()) for label, rhs in forms]
    return out


def digest(name: str) -> str:
    return hashlib.sha256("\n".join(lines(name)).encode()).hexdigest()


def recorded() -> dict[str, str]:
    """name -> sha256 from the committed file."""
    out = {}
    for line in DIGESTS.read_text().splitlines():
        sha, name = line.split("  ", 1)
        out[name] = sha
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--show"]:
        print("\n".join(lines(argv[1])))
        return 0
    text = "".join(f"{digest(name)}  {name}\n" for name in field_names())
    if argv[:1] == ["--record"]:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
