"""Which library calls are traced, and the per-layer metrics made from them.

The layers are the package modules gf, polyring, criterion, oracle,
construct, families and cli (errors does no work).  Each entry below names
the span recorded around one public function or method.  Several functions
may share a span name (the four closed-form constructors are all
construct.closed_form).
"""
from __future__ import annotations

import re
from collections import defaultdict

MODULES = ("gf", "polyring", "criterion", "oracle", "construct", "families", "cli")

# (span name, module, function name, observe(args, result) -> info)
FUNCTIONS = [
    ("gf.make_field", "gf", "make_field", None),
    ("polyring.parse_poly", "polyring", "parse_poly", None),
    ("polyring.decompose", "polyring", "decompose", None),
    ("polyring.interpolate_on_subgroup", "polyring", "interpolate_on_subgroup", None),
    ("criterion.check_involution", "criterion", "check_involution",
     lambda a, r: (a[0].field.q, r.verdict)),
    ("criterion.check_permutation", "criterion", "check_permutation",
     lambda a, r: (a[0].field.q, r.ok)),
    ("criterion.induced_subgroup_involution", "criterion", "induced_subgroup_involution", None),
    ("oracle.sweep", "oracle", "sweep", lambda a, r: a[0].field.q),
    ("construct.general", "construct", "construct_general", None),
    ("construct.closed_form", "construct", "construct_d2", None),
    ("construct.closed_form", "construct", "construct_d3", None),
    ("construct.closed_form", "construct", "construct_cor_r1", None),
    ("construct.closed_form", "construct", "construct_cor_rq43", None),
    ("families.validate", "families", "validate", lambda a, r: not all(c.ok for c in r)),
    ("cli.main", "cli", "main", None),
] + [
    ("families.generate", "families", fn, None)
    for fn in ("gen_conj_symmetric", "gen_cor_qb", "gen_palindromic", "gen_cor_mdq1",
               "gen_cor_m4d4", "gen_reversal", "gen_cor_exm", "gen_geometric",
               "lift_involution")
] + [
    (f"cli.{sub}", "cli", f"cmd_{sub}", None)
    for sub in ("field", "verify", "construct", "family", "search")
]

# (span name, module, class, method, observe)
METHODS = [
    ("polyring.rhs_form", "polyring", "RhsForm", "__init__", None),
    ("polyring.expand", "polyring", "RhsForm", "expand", None),
    ("polyring.value_table", "polyring", "SparsePoly", "value_table", lambda a, r: len(r)),
    ("polyring.render", "polyring", "SparsePoly", "__str__", None),
]


def install(tracer, lib) -> None:
    namespaces = [lib.package] + [getattr(lib, m) for m in MODULES]
    for name, module, fn, observe in FUNCTIONS:
        tracer.wrap_function(name, getattr(lib, module), fn, namespaces, observe)
    for name, module, cls, method, observe in METHODS:
        tracer.wrap_method(name, getattr(getattr(lib, module), cls), method, observe)


class _Agg:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls, self.total, self.self = 0, 0.0, 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer, names, extra: dict) -> dict:
    """A value for every per-layer metric name.  A metric the workload
    never exercises reads 0.  extra supplies the values measured outside
    the spans (overhead, coverage, headroom)."""
    agg: dict[str, _Agg] = defaultdict(_Agg)
    per_q: dict[tuple[str, int], float] = defaultdict(float)      # (name, q) -> total s
    sweep_elems: dict[int, int] = defaultdict(int)
    verdicts = refused = validations = table_elems = 0
    self_times = tracer.self_times()
    for (name, start, end, _, _, info), own in zip(tracer.spans, self_times):
        a = agg[name]
        a.calls += 1
        a.total += end - start
        a.self += own
        if info == "raised":
            continue
        if name == "oracle.sweep":
            per_q[name, info] += end - start
            sweep_elems[info] += info
        elif name in ("criterion.check_involution", "criterion.check_permutation"):
            per_q["criterion", info[0]] += end - start
            if name == "criterion.check_involution":
                verdicts += info[1]
        elif name == "polyring.value_table":
            table_elems += info
        elif name == "families.validate":
            validations += 1
            refused += info
    derived = {
        "polyring.value_table.ns_per_element":
            _ratio(agg["polyring.value_table"].self * 1e9, table_elems),
        "oracle.sweep.ns_per_element":
            _ratio(agg["oracle.sweep"].total * 1e9, sum(sweep_elems.values())),
        "criterion.check_involution.true_ratio":
            _ratio(verdicts, agg["criterion.check_involution"].calls),
        "families.validate.refused_ratio": _ratio(refused, validations),
    }
    out = {}
    for metric in names:
        if metric in extra:
            out[metric] = extra[metric]
        elif metric in derived:
            out[metric] = derived[metric]
        elif m := re.fullmatch(r"criterion\.over_oracle\.q(\d+)", metric):
            q = int(m.group(1))
            out[metric] = _ratio(per_q["criterion", q], per_q["oracle.sweep", q])
        elif m := re.fullmatch(r"oracle\.sweep\.ns_per_element\.q(\d+)", metric):
            q = int(m.group(1))
            out[metric] = _ratio(per_q["oracle.sweep", q] * 1e9, sweep_elems[q])
        elif m := re.fullmatch(r"(cli\.\w+)\.wall_s", metric):
            out[metric] = agg[m.group(1)].total
        elif m := re.fullmatch(r"(.+)\.(calls|self_s)", metric):
            a = agg[m.group(1)]
            out[metric] = a.calls if m.group(2) == "calls" else a.self
        else:
            raise KeyError(f"no rule computes per-layer metric {metric!r}")
    return out
