"""Command-line interface.

Subcommands: field (describe a field), verify (criterion + oracle on a
polynomial), construct (subgroup-interpolation constructions), family
(named explicit families), search (exhaustive small-field
cross-validation).  Every record carries the modulus and the primitive
element so results are reproducible; exit codes encode the verdict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from dataclasses import dataclass

from .construct import (
    construct_cor_r1,
    construct_cor_rq43,
    construct_d2,
    construct_d3,
    construct_general,
)
from .criterion import SubgroupInvolution, check_involution, check_permutation
from .errors import (
    AlgebraError,
    FieldTooLarge,
    HasConstantTerm,
    InternalMismatch,
    NotADivisor,
    ParseError,
    ZeroPolynomial,
)
from .families import FAMILIES, FamilySpec, validate
from .gf import Field, divisors, parse_field
from .oracle import PermReport, sweep
from .polyring import DEFAULT_CAP, RhsForm, SparsePoly, bound_subgroup_interpolation, decompose, parse_poly

EXIT_INVOLUTION = 0
EXIT_NOT_INVOLUTION = 1
EXIT_NOT_PERMUTATION = 2
EXIT_INPUT = 4
EXIT_MISMATCH = 5

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which collides with
    the not-a-permutation exit code; route usage errors through ParseError."""

    def error(self, message):
        raise ParseError(message)


@dataclass
class RunReport:
    field: Field
    poly: SparsePoly
    r: int | None = None
    s: int | None = None
    d: int | None = None
    criterion: bool | None = None
    permutation: bool | None = None
    oracle: PermReport | None = None
    label: str | None = None
    checks: list | None = None

    def involution(self) -> bool | None:
        if self.oracle is not None:
            return bool(self.oracle.is_permutation and self.oracle.is_involution)
        return self.criterion

    def exit_code(self) -> int:
        if self.oracle is not None and self.criterion is not None:
            oracle_inv = bool(self.oracle.is_permutation and self.oracle.is_involution)
            if oracle_inv != self.criterion:
                return EXIT_MISMATCH
        inv = self.involution()
        if inv is None:
            return EXIT_INPUT
        if inv:
            return EXIT_INVOLUTION
        if self.oracle is not None and not self.oracle.is_permutation:
            return EXIT_NOT_PERMUTATION
        if self.permutation is False:
            return EXIT_NOT_PERMUTATION
        return EXIT_NOT_INVOLUTION


def _field_json(field: Field) -> dict:
    return {
        "p": field.p,
        "n": field.n,
        "q": field.q,
        "modulus": list(field.modulus),
        "alpha": str(field.alpha),
        "spec": field.spec_string(),
    }


def _render_report(rep: RunReport, out) -> None:
    f = rep.field
    if rep.label:
        print(rep.label, file=out)
    print(f"field: {f.spec_string()}", file=out)
    print(f"modulus: {','.join(str(c) for c in f.modulus)}", file=out)
    print(f"alpha: {f.alpha} (enc {f.alpha.enc})", file=out)
    if rep.checks is not None:
        for c in rep.checks:
            mark = "pass" if c.ok else "fail"
            tail = f" ({c.detail})" if c.detail else ""
            print(f"check {c.name}: {mark}{tail}", file=out)
    print(f"poly: {rep.poly}", file=out)
    if rep.r is not None:
        print(f"decomposition: r={rep.r} s={rep.s} d={rep.d}", file=out)
    if rep.criterion is not None:
        print(f"criterion: {str(rep.criterion).lower()}", file=out)
    if rep.permutation is not None:
        print(f"permutation: {str(rep.permutation).lower()}", file=out)
    if rep.oracle is not None:
        o = rep.oracle
        print(f"oracle_permutation: {str(bool(o.is_permutation)).lower()}", file=out)
        if o.is_permutation:
            print(f"oracle_involution: {str(bool(o.is_involution)).lower()}", file=out)
            print(f"fixed_points: {o.fixed_point_count}", file=out)
        elif o.witness is not None:
            print(f"witness: {o.witness[0]} vs {o.witness[1]}", file=out)
    inv = rep.involution()
    if inv is not None:
        print(f"involution: {str(inv).lower()}", file=out)


def _report_json(rep: RunReport) -> dict:
    doc = {
        "schema": 1,
        "field": _field_json(rep.field),
        "poly": str(rep.poly),
    }
    if rep.label:
        doc["label"] = rep.label
    if rep.checks is not None:
        doc["checks"] = [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in rep.checks]
    if rep.r is not None:
        doc.update(r=rep.r, s=rep.s, d=rep.d)
    if rep.criterion is not None:
        doc["criterion"] = rep.criterion
    if rep.permutation is not None:
        doc["permutation"] = rep.permutation
    if rep.oracle is not None:
        o = rep.oracle
        doc["oracle"] = {
            "permutation": bool(o.is_permutation),
            "involution": bool(o.is_involution) if o.is_permutation else None,
            "fixed_points": o.fixed_point_count,
            "witness": [str(w) for w in o.witness] if o.witness else None,
        }
    doc["involution"] = rep.involution()
    return doc


def _emit(rep: RunReport, args) -> int:
    if args.json:
        print(json.dumps(_report_json(rep), sort_keys=True), file=sys.stdout)
    else:
        _render_report(rep, sys.stdout)
    code = rep.exit_code()
    if code == EXIT_INPUT:   # no form for the criterion, and the oracle was skipped
        print(f"error: no verdict: {rep.poly} has no x^r * h(x^s) form and "
              f"q = {rep.field.q} is above --cap {args.cap}", file=sys.stderr)
    return code


def _analyze(field: Field, f: SparsePoly, args, s_hint: int | None = None,
             rhs: RhsForm | None = None, label: str | None = None,
             checks=None) -> RunReport:
    rep = RunReport(field, f, label=label, checks=checks)
    try:
        rhs = rhs if rhs is not None else decompose(f, s_hint)
    except (HasConstantTerm, ZeroPolynomial):
        rhs = None
    # the oracle first: a value table it may not build is refused at once
    rep.oracle = sweep(f) if args.oracle or field.q <= args.cap else None
    if rhs is not None:
        rep.r, rep.s, rep.d = rhs.r, rhs.s, rhs.d
        # a constructor's verdict is read back; an involution is a bijection
        rep.criterion = check_involution(rhs).verdict
        rep.permutation = rep.criterion or check_permutation(rhs).ok
    return rep


# -- subcommands ------------------------------------------------------------

def cmd_field(args) -> int:
    field = parse_field(args.field)
    if args.json:
        print(json.dumps({"schema": 1, "field": _field_json(field)}, sort_keys=True))
    else:
        print(f"field: {field.spec_string()}")
        print(f"p: {field.p}")
        print(f"n: {field.n}")
        print(f"q: {field.q}")
        print(f"modulus: {','.join(str(c) for c in field.modulus)}")
        print(f"alpha: {field.alpha} (enc {field.alpha.enc})")
    return 0


def cmd_verify(args) -> int:
    field = parse_field(args.field)
    f = parse_poly(field, args.poly)
    rep = _analyze(field, f, args, s_hint=args.s)
    return _emit(rep, args)


def _parse_ints(text: str, option: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise ParseError(f"{option} must be comma-separated integers, got {text!r}") from None


def cmd_construct(args) -> int:
    field = parse_field(args.field)
    if args.mode == "general":
        if args.s is None:
            raise ParseError("construct general needs --s")
        d = (field.q - 1) // args.s if args.s >= 1 and (field.q - 1) % args.s == 0 else None
        if d is not None:
            # before the d-entry subgroup involution is built
            bound_subgroup_interpolation(d)
        if args.sigma in ("inverse", "identity"):
            if d is None:
                raise NotADivisor(f"s = {args.s} does not divide {field.q - 1}")
            sigma = (SubgroupInvolution.inversion(d) if args.sigma == "inverse"
                     else SubgroupInvolution.identity(d))
        elif args.sigma.startswith("perm:"):
            sigma = SubgroupInvolution(_parse_ints(args.sigma[5:], "--sigma perm:"))
        else:
            raise ParseError(f"bad --sigma {args.sigma!r}: use inverse, identity or perm:i0,i1,...")
        offsets = _parse_ints(args.n, "--n") if args.n else None
        rhs = construct_general(field, args.s, sigma, args.r, offsets)
        rep = _analyze(field, rhs.expand(), args, rhs=rhs, label="construction: general")
    elif args.mode == "d2":
        if args.a is None or args.b is None:
            raise ParseError("construct d2 needs --a and --b")
        f = construct_d2(field, args.r, args.a, args.b)
        rep = _analyze(field, f, args, s_hint=(field.q - 1) // 2, label="construction: d2")
    elif args.mode == "d3":
        f = construct_d3(field, args.r, args.n0, args.n1, args.n2)
        rep = _analyze(field, f, args, s_hint=(field.q - 1) // 3, label="construction: d3")
    elif args.mode == "cor-r1":
        f = construct_cor_r1(field, args.n1)
        rep = _analyze(field, f, args, s_hint=(field.q - 1) // 3, label="construction: cor-r1")
    else:
        f = construct_cor_rq43(field, args.n0, args.n1)
        s_hint = (field.q - 1) // 3 if field.q > 4 else None
        rep = _analyze(field, f, args, s_hint=s_hint, label="construction: cor-rq43")
    return _emit(rep, args)


def _parse_params(text: str) -> dict:
    """Comma-separated k=v pairs; a comma inside a value (element vectors)
    is glued back onto the previous pair."""
    parts = []
    for chunk in text.split(","):
        if "=" in chunk or not parts:
            parts.append(chunk)
        else:
            parts[-1] += "," + chunk
    out = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"bad parameter {part!r}: expected key=value")
        k, _, v = part.partition("=")
        out[k.strip()] = v.strip()
    return out


def cmd_family(args) -> int:
    if args.family_id == "list":
        if args.json:
            doc = {"schema": 1, "families": [
                {"id": fam.id, "params": fam.params} for fam in FAMILIES.values()]}
            print(json.dumps(doc, sort_keys=True))
        else:
            for fam in FAMILIES.values():
                print(f"{fam.id}: {fam.params}")
        return 0
    if args.field is None:
        raise ParseError("family generation needs --field")
    field = parse_field(args.field)
    params = _parse_params(args.params) if args.params else {}
    checks = validate(FamilySpec(args.family_id, field, params))
    rhs, f = FAMILIES[args.family_id].generate(field, params)
    rep = _analyze(field, f, args, rhs=rhs, label=f"family: {args.family_id}",
                   checks=checks)
    return _emit(rep, args)


def cmd_search(args) -> int:
    if args.sample < 0 or args.exhaustive_limit < 0:
        raise ParseError("--sample and --exhaustive-limit must be non-negative")
    field = parse_field(args.field)
    q = field.q
    if q > args.max_q:
        raise FieldTooLarge(f"search is capped at q = {args.max_q}, got {q}")
    rng = random.Random(args.seed)
    grid = [field.zero(), field.one()]
    if field.alpha not in grid:
        grid.append(field.alpha)
    out = sys.stdout
    visited = hits = 0
    hit_docs = []
    s_list = divisors(q - 1)
    if args.s is not None:
        if args.s not in s_list:
            raise NotADivisor(f"s = {args.s} does not divide {q - 1}")
        s_list = [args.s]
    for s in s_list:
        d = (q - 1) // s
        for r in range(1, q):
            if len(grid) ** d <= args.exhaustive_limit:
                # reversed so that the first coefficient varies fastest
                coeff_sets = (vec[::-1] for vec in itertools.product(grid, repeat=d))
            else:
                coeff_sets = (tuple(field.element(rng.randrange(q)) for _ in range(d))
                              for _ in range(args.sample))
            for vec in coeff_sets:
                h = SparsePoly.from_pairs(field, list(enumerate(vec)))
                if h.is_zero:
                    continue
                visited += 1
                rhs = RhsForm(field, r, s, h)
                verdict = check_involution(rhs).verdict
                f = rhs.expand()
                oracle = sweep(f)
                oracle_inv = bool(oracle.is_permutation and oracle.is_involution)
                if verdict != oracle_inv:
                    raise InternalMismatch(
                        f"criterion {verdict} vs oracle {oracle_inv} at s={s} r={r} h={h}")
                if verdict:
                    hits += 1
                    if args.json:
                        hit_docs.append({"s": s, "r": r, "h": str(h), "f": str(f),
                                         "fixed_points": oracle.fixed_point_count})
                    else:
                        print(f"s={s} r={r} h={h} f={f} fixed_points={oracle.fixed_point_count}",
                              file=out)
    if args.json:
        doc = {"schema": 1, "field": _field_json(field), "seed": args.seed,
               "visited": visited, "involutions": hits, "mismatches": 0,
               "hits": hit_docs}
        print(json.dumps(doc, sort_keys=True), file=out)
    else:
        print(f"visited={visited} involutions={hits} mismatches=0", file=out)
    return 0


@functools.cache   # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    top = _Parser(prog="invopoly",
                  description="Construct and verify involutions x^r * h(x^s) over finite fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="largest field the oracle sweeps automatically; "
                            "value tables stop at q = 2^20 whatever the cap")
        p.add_argument("--oracle", action="store_true",
                       help="force the oracle above --cap, up to q = 2^20")

    p_field = sub.add_parser("field", help="describe a field")
    p_field.add_argument("--field", required=True)
    p_field.add_argument("--json", action="store_true")
    p_field.set_defaults(func=cmd_field)

    p_verify = sub.add_parser("verify", help="check a polynomial")
    p_verify.add_argument("--field", required=True)
    p_verify.add_argument("--poly", required=True)
    p_verify.add_argument("--s", type=int, default=None,
                          help="force the subgroup index instead of the largest usable s")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("construct", help="build an involution")
    p_con.add_argument("mode", choices=["general", "d2", "d3", "cor-r1", "cor-rq43"])
    p_con.add_argument("--field", required=True)
    p_con.add_argument("--s", type=int, default=None)
    p_con.add_argument("--sigma", default="inverse")
    p_con.add_argument("--r", type=int, default=1)
    p_con.add_argument("--n", default=None, help="comma-separated offsets")
    p_con.add_argument("--a", default=None)
    p_con.add_argument("--b", default=None)
    p_con.add_argument("--n0", type=int, default=0)
    p_con.add_argument("--n1", type=int, default=0)
    p_con.add_argument("--n2", type=int, default=0)
    common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_fam = sub.add_parser("family", help="generate a named family, or list them")
    p_fam.add_argument("family_id")
    p_fam.add_argument("--field", default=None)
    p_fam.add_argument("--params", default=None, help="comma-separated key=value pairs")
    common(p_fam)
    p_fam.set_defaults(func=cmd_family)

    p_search = sub.add_parser("search", help="enumerate involutions over a small field")
    p_search.add_argument("--field", required=True)
    p_search.add_argument("--s", type=int, default=None, help="restrict to one subgroup index")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--sample", type=int, default=200,
                          help="random h per cell when the grid is too big")
    p_search.add_argument("--exhaustive-limit", type=int, default=8000,
                          help="largest coefficient grid to enumerate fully")
    p_search.add_argument("--max-q", type=int, default=64)
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "cap", 0) < 0:   # before any field is built
            raise ParseError(f"--cap must be non-negative, got {args.cap}")
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc.cli_message()}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
