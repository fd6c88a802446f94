"""Sufficient-condition checkers: each verifier evaluates the hypotheses
of one equality-or-bound statement about scramble order and gonality on
a concrete graph, reports them individually, and cross-checks the
conclusion against brute-force gonality when the graph is small enough.

All threshold comparisons are done in scaled integer arithmetic (for
example ``min valence >= (floor(n/2) + 2) / 2`` becomes ``2*delta >=
floor(n/2) + 2``), so no rounding can flip a hypothesis.

A report is applicable when every hypothesis holds, and only then is its
conclusion computed.  Every conclusion but bipartite1's is n - alpha_c,
the hitting number of the uniform (c + 1)-scramble.
"""

from .chipfiring import gonality_bruteforce
from .flow import _max_flow
from .graphs import INF, _Record, count_to_json, fmt_count
from .invariants import independence_number, min_connected_outdegree, restricted_edge_connectivity
from .scramble import (
    hitting_number,
    uniform_hitting_number,
    uniform_order_via_invariants,
    uniform_scramble,
)

DEFAULT_BRUTE_CAP = 16


class HypothesisCheck(_Record):
    """One named hypothesis, whether it ``holds``, and the ``witness``
    the report prints for it."""

    __slots__ = ()
    _fields = ("name", "holds", "witness")
    _field_defaults = {"witness": None}


class CrossCheck(_Record):
    """``status`` is verified, mismatch, informational or skipped;
    ``value`` is the number the check computed, when it has one."""

    __slots__ = ()
    _fields = ("status", "value")
    _field_defaults = {"value": None}


class TheoremReport(_Record):
    """One theorem's hypotheses, its conclusion (set only when every
    hypothesis holds) and the cross-check of that conclusion, built in
    one call; ``lemma_checks`` is ``()`` when omitted."""

    __slots__ = ()
    _fields = (
        "theorem_id",
        "hypotheses",
        "conclusion_value",
        "parameter",
        "upper_bound",
        "lemma_checks",
        "cross_check",
    )
    _field_defaults = {
        "conclusion_value": None,
        "parameter": None,
        "upper_bound": None,
        "lemma_checks": (),
        "cross_check": None,
    }

    @property
    def applicable(self):
        return all(c.holds for c in self.hypotheses)

    @property
    def conclusion(self):
        value = self.conclusion_value
        if isinstance(value, tuple):
            direct, formula = map(fmt_count, value)
            return f"uniform order = {direct} (scramble) / {formula} (invariants)"
        return None if value is None else f"scramble number = gonality = {value}"

    def to_dict(self):
        value = self.conclusion_value
        if isinstance(value, tuple):
            value = {"pair": [count_to_json(x) for x in value]}
        elif value is not None:
            value = count_to_json(value)
        return {
            "theorem_id": self.theorem_id,
            "parameter": self.parameter,
            "applicable": self.applicable,
            "hypotheses": [c._asdict() for c in self.hypotheses],
            "conclusion_value": value,
            "conclusion": self.conclusion,
            "upper_bound": None if self.upper_bound is None else count_to_json(self.upper_bound),
            "lemma_checks": [c._asdict() for c in self.lemma_checks],
            "cross_check": None if self.cross_check is None else self.cross_check._asdict(),
        }


def report_to_json(report):
    """Canonical JSON text: re-serializing the parsed form is identical."""
    import json  # loaded here, so that only a report pays for it
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _check_line(c, prefix=""):
    mark = "ok" if c.holds else "fail"
    extra = "" if c.witness is None else f"  [{c.witness}]"
    return f"  [{mark:4}] {prefix}{c.name}{extra}"


def render_report(report):
    lines = []
    head = report.theorem_id
    if report.parameter is not None:
        head += f" (parameter {report.parameter})"
    lines.append(f"{head}: {'applicable' if report.applicable else 'not applicable'}")
    lines += [_check_line(c) for c in report.hypotheses]
    if report.upper_bound is not None:
        lines.append(f"  upper bound: gonality <= {fmt_count(report.upper_bound)}")
    if report.conclusion is not None:
        lines.append(f"  conclusion: {report.conclusion}")
    lines += [_check_line(c, "lemma ") for c in report.lemma_checks]
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
    G._check_connected()


def _require_simple(G):
    if not G.is_simple():
        raise ValueError("parallel edges present where a simple graph is required")


def _gonality_cross_check(G, expected, cap):
    """Brute-force comparison, skipped above ``cap`` vertices (so 0 skips
    all); capped at the claimed gonality when a value is expected."""
    if G.n > cap:
        return CrossCheck("skipped")
    if expected is None:
        result = gonality_bruteforce(G)
        return CrossCheck("informational", result.value)
    result = gonality_bruteforce(G, max_degree=expected)
    if result.exceeded_cap or result.value != expected:
        return CrossCheck("mismatch", result.value)
    return CrossCheck("verified", result.value)


def _report(theorem_id, G, hypotheses, conclude, brute_cap, **fields):
    """The report on one theorem; ``conclude()`` runs only when it is
    applicable, and brute force checks the value it gives."""
    value = conclude() if all(c.holds for c in hypotheses) else None
    check = _gonality_cross_check(G, value, brute_cap)
    return TheoremReport(theorem_id, tuple(hypotheses), value, cross_check=check, **fields)


def _valence_sum_checks(G, adjacent_floor, nonadjacent_floor):
    """Scan all vertex pairs; for adjacent, then nonadjacent pairs, the first
    of least valence sum below its floor as [u, v, sum], else None."""
    low = {True: None, False: None}
    for u in range(G.n):
        for v in range(u + 1, G.n):
            adjacent = G._mask[u] >> v & 1 == 1
            floor = adjacent_floor if adjacent else nonadjacent_floor
            total = G.valence(u) + G.valence(v)
            if floor is not None and total < floor:
                if low[adjacent] is None or total < low[adjacent][2]:
                    low[adjacent] = [u, v, total]
    return low[True], low[False]


def verify_main(G, l, brute_cap=DEFAULT_BRUTE_CAP):
    """Girth at least l plus a large (l-1)-restricted edge connectivity
    force scramble order and gonality to meet at n minus the
    (l-2)-component independence number.  Needs 3 <= l <= n + 1, so
    that a connected (l-1)-set exists."""
    if l < 3:
        raise ValueError("parameter must be at least 3")
    _require_usable(G)
    G._check_subset_size(l - 1)
    g = G.girth()
    bound, holds, witness = None, False, "not evaluated"
    if g >= l:
        bound = uniform_hitting_number(G, l - 1)
        lam = restricted_edge_connectivity(G, l - 1)
        holds, witness = lam >= bound, {"lambda": fmt_count(lam), "bound": bound}
    hypotheses = [
        HypothesisCheck("girth_at_least_parameter", g >= l, f"girth={fmt_count(g)}"),
        HypothesisCheck("restricted_connectivity_at_least_bound", holds, witness),
    ]
    return _report("main", G, hypotheses, lambda: bound, brute_cap, parameter=l, upper_bound=bound)


def _girth3(G):
    _require_simple(G)
    low_adj, low_non = _valence_sum_checks(G, G.n, G.n + 1)
    return [
        HypothesisCheck("adjacent_valence_sums_at_least_n", low_adj is None, low_adj),
        HypothesisCheck("nonadjacent_valence_sums_at_least_n_plus_1", low_non is None, low_non),
    ], lambda: uniform_hitting_number(G, 2)


def _triangle_free(G):
    _require_simple(G)
    g = G.girth()
    return HypothesisCheck("triangle_free", g >= 4, f"girth={fmt_count(g)}")


def _girth4a(G):
    n = G.n
    triangle_free = _triangle_free(G)
    delta = G.min_valence()
    xi3 = min_connected_outdegree(G, 3)
    return [
        triangle_free,
        HypothesisCheck("min_valence_at_least_3", delta >= 3, f"delta={delta}"),
        HypothesisCheck(
            "xi3_at_least_n_plus_1", xi3 >= n + 1, {"xi3": fmt_count(xi3), "needed": n + 1}
        ),
    ], lambda: uniform_hitting_number(G, 3)


def _girth4b(G):
    n = G.n
    triangle_free = _triangle_free(G)
    delta = G.min_valence()
    return [
        triangle_free,
        HypothesisCheck("order_at_least_6", n >= 6, f"n={n}"),
        HypothesisCheck(
            "min_valence_above_third", 3 * delta >= n + 3, {"delta": delta, "needed_thirds": n + 3}
        ),
    ], lambda: uniform_hitting_number(G, 3)


def _girth5(G):
    n = G.n
    g = G.girth()
    delta = G.min_valence()
    return [
        HypothesisCheck("girth_at_least_5", g >= 5, f"girth={fmt_count(g)}"),
        HypothesisCheck("order_at_least_8", n >= 8, f"n={n}"),
        HypothesisCheck(
            "min_valence_at_least_half_bound",
            2 * delta >= n // 2 + 4,
            {"delta": delta, "needed_halves": n // 2 + 4},
        ),
    ], lambda: uniform_hitting_number(G, 4)


def verify_girth_family(G, variant, brute_cap=DEFAULT_BRUTE_CAP):
    """Valence-based sufficient conditions at girth 3, 4, and 5.

    girth5 never applies as encoded: girth at least 5 forces
    n >= delta^2 + 1 (the Moore bound), and then 2*delta >= floor(n/2) + 4
    would need (delta - 2)^2 + 4 <= 0.  The condition is kept as
    transcribed; ROADMAP.md lists it as an open question."""
    _require_usable(G)
    hypotheses, conclude = _variant(variant, "verify_girth_family", "girth")(G)
    return _report(variant, G, hypotheses, conclude, brute_cap)


def _bipartite_lemma_checks(G, sides):
    """Independence number equals the larger side once min valence
    reaches n/4; checked outright whenever the premise holds."""
    if 4 * G.min_valence() < G.n:
        return ()
    alpha = independence_number(G)
    larger = max(len(sides[0]), len(sides[1]))
    witness = {"alpha": alpha, "larger_side": larger}
    return (HypothesisCheck("independence_number_equals_larger_side", alpha == larger, witness),)


def _bipartite1(G, sides):
    n = G.n
    delta = G.min_valence()
    return [
        HypothesisCheck("order_at_least_4", n >= 4, f"n={n}"),
        HypothesisCheck(
            "min_valence_at_least_half_bound",
            2 * delta >= n // 2 + 2,
            {"delta": delta, "needed_halves": n // 2 + 2},
        ),
    ], lambda: min(len(sides[0]), len(sides[1]))


def _bipartite2(G, sides):
    n = G.n
    floor = 2 * (n // 4) + 3
    _, low_non = _valence_sum_checks(G, None, floor)
    return [
        HypothesisCheck("order_at_least_6", n >= 6, f"n={n}"),
        HypothesisCheck(
            "nonadjacent_valence_sums_at_least_bound",
            low_non is None,
            low_non if low_non is not None else {"needed": floor},
        ),
    ], lambda: uniform_hitting_number(G, 3)


def verify_bipartite(G, variant, brute_cap=DEFAULT_BRUTE_CAP):
    """Valence-based sufficient conditions for bipartite graphs."""
    _require_usable(G)
    sides = G.bipartition()
    if sides is None:
        raise ValueError("graph is not bipartite")
    checks, conclude = _variant(variant, "verify_bipartite", "bipartite")(G, sides)
    hypotheses = (HypothesisCheck("simple", G.is_simple()), *checks)
    lemmas = _bipartite_lemma_checks(G, sides)
    return _report(variant, G, hypotheses, conclude, brute_cap, lemma_checks=lemmas)


def _egg_cut_by_pairs(S):
    """Egg-cut number by one max flow per disjoint egg pair, each capped
    at the best cut so far.  Quadratic in the eggs, but it shares no
    code with the split search behind ``egg_cut_number`` and lambda_k,
    so order-ek compares two independent computations."""
    masks = S.masks
    best = INF
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if not a & b:
                best = min(best, _max_flow(S.graph, a, b, best))
    return best


def verify_order_ek(G, k):
    """Uniform-scramble order computed twice: directly from the eggs, as
    the smaller of the hitting number and the egg cut by pairwise max
    flows, and from the invariant formula; the two must agree."""
    formula = uniform_order_via_invariants(G, k)
    S = uniform_scramble(G, k)
    direct = min(hitting_number(S), _egg_cut_by_pairs(S))
    agreed = int(direct) if direct == formula != INF else None
    check = CrossCheck("verified" if direct == formula else "mismatch", agreed)
    return TheoremReport("order_ek", (), (direct, formula), parameter=k, cross_check=check)


class Theorem(_Record):
    """One row per theorem token.  ``verifier`` names the public function
    to run, looked up on the module when called so that wrappers bound
    there see the call; it gets K when the token takes ``:K``
    (``example`` is a sample K), else the token, and ``brute_cap`` when
    ``cross_checked``.  ``hypotheses`` is a girth or bipartite variant's
    own part."""

    __slots__ = ()
    _fields = ("verifier", "example", "hypotheses", "cross_checked")
    _field_defaults = {"example": None, "hypotheses": None, "cross_checked": True}

THEOREMS = {
    "main": Theorem("verify_main", example=4),
    "girth3": Theorem("verify_girth_family", hypotheses=_girth3),
    "girth4a": Theorem("verify_girth_family", hypotheses=_girth4a),
    "girth4b": Theorem("verify_girth_family", hypotheses=_girth4b),
    "girth5": Theorem("verify_girth_family", hypotheses=_girth5),
    "bipartite1": Theorem("verify_bipartite", hypotheses=_bipartite1),
    "bipartite2": Theorem("verify_bipartite", hypotheses=_bipartite2),
    "order_ek": Theorem("verify_order_ek", example=3, cross_checked=False),
}


def _variant(variant, verifier, family):
    theorem = THEOREMS.get(variant)
    if theorem is None or theorem.verifier != verifier:
        raise ValueError(f"unknown {family} variant {variant!r}")
    return theorem.hypotheses
