"""Sufficient-condition checkers: each verifier evaluates the hypotheses
of one equality-or-bound statement about scramble order and gonality on
a concrete graph, reports them individually, and cross-checks the
conclusion against brute-force gonality when the graph is small enough.

All threshold comparisons are done in scaled integer arithmetic (for
example ``min valence >= (floor(n/2) + 2) / 2`` becomes ``2*delta >=
floor(n/2) + 2``), so no rounding can flip a hypothesis.
"""

import json
from dataclasses import dataclass, field

from .chipfiring import gonality_bruteforce
from .graphs import INF, count_to_json, fmt_count
from .invariants import (
    component_independence_number,
    independence_number,
    min_connected_outdegree,
    restricted_edge_connectivity,
)
from .scramble import scramble_order, uniform_order_via_invariants, uniform_scramble

DEFAULT_BRUTE_CAP = 16


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    holds: bool
    witness: object = None


@dataclass(frozen=True)
class CrossCheck:
    status: str  # verified | mismatch | informational | skipped
    value: object = None


@dataclass
class TheoremReport:
    theorem_id: str
    hypotheses: list
    applicable: bool
    conclusion_value: object = None
    conclusion: str = None
    parameter: object = None
    upper_bound: object = None
    lemma_checks: list = field(default_factory=list)
    cross_check: object = None

    def to_dict(self):
        def check_dict(c):
            return {"name": c.name, "holds": c.holds, "witness": c.witness}

        if self.conclusion_value is None:
            value = None
        elif isinstance(self.conclusion_value, tuple):
            value = {"pair": [count_to_json(x) for x in self.conclusion_value]}
        else:
            value = count_to_json(self.conclusion_value)
        return {
            "theorem_id": self.theorem_id,
            "parameter": self.parameter,
            "applicable": self.applicable,
            "hypotheses": [check_dict(c) for c in self.hypotheses],
            "conclusion_value": value,
            "conclusion": self.conclusion,
            "upper_bound": None if self.upper_bound is None else count_to_json(self.upper_bound),
            "lemma_checks": [check_dict(c) for c in self.lemma_checks],
            "cross_check": None
            if self.cross_check is None
            else {"status": self.cross_check.status, "value": self.cross_check.value},
        }


def report_to_json(report):
    """Canonical JSON text: re-serializing the parsed form is identical."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def render_report(report):
    lines = []
    head = report.theorem_id
    if report.parameter is not None:
        head += f" (parameter {report.parameter})"
    lines.append(f"{head}: {'applicable' if report.applicable else 'not applicable'}")
    for c in report.hypotheses:
        mark = "ok" if c.holds else "fail"
        extra = "" if c.witness is None else f"  [{c.witness}]"
        lines.append(f"  [{mark:4}] {c.name}{extra}")
    if report.upper_bound is not None:
        lines.append(f"  upper bound: gonality <= {fmt_count(report.upper_bound)}")
    if report.applicable and report.conclusion is not None:
        lines.append(f"  conclusion: {report.conclusion}")
    for c in report.lemma_checks:
        mark = "ok" if c.holds else "fail"
        extra = "" if c.witness is None else f"  [{c.witness}]"
        lines.append(f"  [{mark:4}] lemma {c.name}{extra}")
    if report.cross_check is not None:
        if report.theorem_id == "order_ek":
            # both computations already appear in the conclusion line
            lines.append(f"  agreement: {report.cross_check.status}")
        elif report.cross_check.status == "skipped":
            reason = (
                "conclusion asserted, not independently verified"
                if report.applicable
                else "not applicable, so no conclusion to check"
            )
            lines.append(f"  brute-force gonality: skipped ({reason})")
        else:
            value = report.cross_check.value
            shown = "-" if value is None else str(value)
            lines.append(f"  brute-force gonality: {shown} ({report.cross_check.status})")
    return "\n".join(lines)


def _require_usable(G):
    if G.n < 2:
        raise ValueError("graph must have at least 2 vertices")
    if not G.is_connected():
        raise ValueError("graph must be connected")


def _require_simple(G):
    if not G.is_simple():
        raise ValueError("parallel edges present where a simple graph is required")


def _gonality_cross_check(G, expected, cap):
    """Brute-force comparison; capped search when a value is expected so
    runtime is bounded by the claimed gonality."""
    if cap is None or G.n > cap:
        return CrossCheck("skipped")
    if expected is None:
        result = gonality_bruteforce(G)
        return CrossCheck("informational", result.value)
    result = gonality_bruteforce(G, max_degree=int(expected))
    if result.exceeded_cap or result.value != expected:
        return CrossCheck("mismatch", result.value)
    return CrossCheck("verified", result.value)


def _finish(report, G, brute_cap):
    report.applicable = all(c.holds for c in report.hypotheses)
    expected = report.conclusion_value if report.applicable else None
    report.cross_check = _gonality_cross_check(G, expected, brute_cap)
    return report


def _valence_sum_checks(G, adjacent_floor, nonadjacent_floor):
    """Scan all vertex pairs; return pass/fail plus a failing witness."""
    worst_adj = None
    worst_non = None
    for u in range(G.n):
        for v in range(u + 1, G.n):
            total = G.valence(u) + G.valence(v)
            if G.mult(u, v) > 0:
                if adjacent_floor is not None and total < adjacent_floor:
                    if worst_adj is None or total < worst_adj[2]:
                        worst_adj = [u, v, total]
            else:
                if nonadjacent_floor is not None and total < nonadjacent_floor:
                    if worst_non is None or total < worst_non[2]:
                        worst_non = [u, v, total]
    return worst_adj, worst_non


def verify_main(G, l, brute_cap=DEFAULT_BRUTE_CAP):
    """Girth at least l plus a large (l-1)-restricted edge connectivity
    force scramble order and gonality to meet at n minus the
    (l-2)-component independence number."""
    if l < 3:
        raise ValueError("parameter must be at least 3")
    _require_usable(G)
    report = TheoremReport("main", [], False, parameter=l)
    g = G.girth()
    girth_ok = g >= l
    report.hypotheses.append(
        HypothesisCheck("girth_at_least_parameter", girth_ok, f"girth={fmt_count(g)}")
    )
    if girth_ok:
        bound = G.n - component_independence_number(G, l - 2)
        report.upper_bound = bound
        lam = restricted_edge_connectivity(G, l - 1)
        report.hypotheses.append(
            HypothesisCheck(
                "restricted_connectivity_at_least_bound",
                lam >= bound,
                {"lambda": fmt_count(lam), "bound": bound},
            )
        )
        report.conclusion_value = bound
        report.conclusion = f"scramble number = gonality = {bound}"
    else:
        report.hypotheses.append(
            HypothesisCheck("restricted_connectivity_at_least_bound", False, "not evaluated")
        )
    return _finish(report, G, brute_cap)


def verify_girth_family(G, variant, brute_cap=DEFAULT_BRUTE_CAP):
    """Valence-based sufficient conditions at girth 3, 4, and 5."""
    _require_usable(G)
    n = G.n
    report = TheoremReport(variant, [], False)

    if variant == "girth3":
        _require_simple(G)
        worst_adj, worst_non = _valence_sum_checks(G, n, n + 1)
        report.hypotheses.append(
            HypothesisCheck("adjacent_valence_sums_at_least_n", worst_adj is None, worst_adj)
        )
        report.hypotheses.append(
            HypothesisCheck(
                "nonadjacent_valence_sums_at_least_n_plus_1", worst_non is None, worst_non
            )
        )
        if worst_adj is None and worst_non is None:
            value = n - independence_number(G)
            report.conclusion_value = value
            report.conclusion = f"scramble number = gonality = {value}"
    elif variant in ("girth4a", "girth4b"):
        _require_simple(G)
        g = G.girth()
        triangle_free = g >= 4
        report.hypotheses.append(
            HypothesisCheck("triangle_free", triangle_free, f"girth={fmt_count(g)}")
        )
        delta = G.min_valence()
        if variant == "girth4a":
            report.hypotheses.append(
                HypothesisCheck("min_valence_at_least_3", delta >= 3, f"delta={delta}")
            )
            xi3 = min_connected_outdegree(G, 3) if n >= 3 else INF
            report.hypotheses.append(
                HypothesisCheck(
                    "xi3_at_least_n_plus_1",
                    xi3 >= n + 1,
                    {"xi3": fmt_count(xi3), "needed": n + 1},
                )
            )
        else:
            report.hypotheses.append(HypothesisCheck("order_at_least_6", n >= 6, f"n={n}"))
            report.hypotheses.append(
                HypothesisCheck(
                    "min_valence_above_third",
                    3 * delta >= n + 3,
                    {"delta": delta, "needed_thirds": n + 3},
                )
            )
        if all(c.holds for c in report.hypotheses):
            value = n - component_independence_number(G, 2)
            report.conclusion_value = value
            report.conclusion = f"scramble number = gonality = {value}"
    elif variant == "girth5":
        g = G.girth()
        report.hypotheses.append(
            HypothesisCheck("girth_at_least_5", g >= 5, f"girth={fmt_count(g)}")
        )
        report.hypotheses.append(HypothesisCheck("order_at_least_8", n >= 8, f"n={n}"))
        delta = G.min_valence()
        report.hypotheses.append(
            HypothesisCheck(
                "min_valence_at_least_half_bound",
                2 * delta >= n // 2 + 4,
                {"delta": delta, "needed_halves": n // 2 + 4},
            )
        )
        if all(c.holds for c in report.hypotheses):
            value = n - component_independence_number(G, 3)
            report.conclusion_value = value
            report.conclusion = f"scramble number = gonality = {value}"
    else:
        raise ValueError(f"unknown girth variant {variant!r}")
    return _finish(report, G, brute_cap)


def _bipartite_lemma_checks(G, sides):
    """Independence number equals the larger side once min valence
    reaches n/4; checked outright whenever the premise holds."""
    n = G.n
    delta = G.min_valence()
    if 4 * delta < n:
        return []
    alpha = independence_number(G)
    larger = max(len(sides[0]), len(sides[1]))
    return [
        HypothesisCheck(
            "independence_number_equals_larger_side",
            alpha == larger,
            {"alpha": alpha, "larger_side": larger},
        )
    ]


def verify_bipartite(G, variant, brute_cap=DEFAULT_BRUTE_CAP):
    """Valence-based sufficient conditions for bipartite graphs."""
    _require_usable(G)
    sides = G.bipartition()
    if sides is None:
        raise ValueError("graph is not bipartite")
    n = G.n
    report = TheoremReport(variant, [], False)
    report.hypotheses.append(HypothesisCheck("simple", G.is_simple()))

    if variant == "bipartite1":
        report.hypotheses.append(HypothesisCheck("order_at_least_4", n >= 4, f"n={n}"))
        delta = G.min_valence()
        report.hypotheses.append(
            HypothesisCheck(
                "min_valence_at_least_half_bound",
                2 * delta >= n // 2 + 2,
                {"delta": delta, "needed_halves": n // 2 + 2},
            )
        )
        if all(c.holds for c in report.hypotheses):
            value = min(len(sides[0]), len(sides[1]))
            report.conclusion_value = value
            report.conclusion = f"scramble number = gonality = {value}"
    elif variant == "bipartite2":
        report.hypotheses.append(HypothesisCheck("order_at_least_6", n >= 6, f"n={n}"))
        floor = 2 * (n // 4) + 3
        _, worst_non = _valence_sum_checks(G, None, floor)
        report.hypotheses.append(
            HypothesisCheck(
                "nonadjacent_valence_sums_at_least_bound",
                worst_non is None,
                worst_non if worst_non is not None else {"needed": floor},
            )
        )
        if all(c.holds for c in report.hypotheses):
            value = n - component_independence_number(G, 2)
            report.conclusion_value = value
            report.conclusion = f"scramble number = gonality = {value}"
    else:
        raise ValueError(f"unknown bipartite variant {variant!r}")
    report.lemma_checks = _bipartite_lemma_checks(G, sides)
    return _finish(report, G, brute_cap)


def verify_order_ek(G, k):
    """Uniform-scramble order computed twice: directly from the scramble
    and from the invariant formula; the two must agree."""
    formula = uniform_order_via_invariants(G, k)
    direct = scramble_order(uniform_scramble(G, k))
    report = TheoremReport("order_ek", [], True, parameter=k)
    report.conclusion_value = (direct, formula)
    report.conclusion = (
        f"uniform order = {fmt_count(direct)} (scramble) / {fmt_count(formula)} (invariants)"
    )
    report.applicable = True
    report.cross_check = CrossCheck(
        "verified" if direct == formula else "mismatch",
        None if direct == INF else int(direct) if direct == formula else None,
    )
    return report
