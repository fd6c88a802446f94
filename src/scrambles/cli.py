"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 invalid or unreadable input
file or unwritable output file, 3 resource cap exceeded.
"""

import argparse
import sys

from . import chipfiring, graphs, invariants, scramble, verify
from .graphs import INF, InputFormatError, fmt_count

# invariant kinds that take K, by the name of their function in invariants,
# looked up per call so that a rebound attribute is what runs; girth takes no K
_INVARIANTS = {
    "lambda-k": "restricted_edge_connectivity",
    "xi-k": "min_connected_outdegree",
    "alpha-c": "component_independence_number",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse catches only its own ArgumentError, so this reaches run_cli
        raise ValueError(message)


def _read(path):
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


def build_parser():
    parser = _Parser(prog="scrambles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named graph as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("info", help="summarize an edge-list file")
    p.add_argument("file")

    p = sub.add_parser("invariant", help="compute one graph invariant")
    p.add_argument("kind", choices=[*_INVARIANTS, "girth"])
    p.add_argument("args", nargs="+", metavar="[K] FILE")

    p = sub.add_parser("scramble", help="scramble quantities")
    ssub = p.add_subparsers(dest="scramble_command", required=True)

    u = ssub.add_parser("uniform", help="uniform k-scramble quantities")
    u.add_argument("k", type=int)
    u.add_argument("file")
    which = u.add_mutually_exclusive_group()
    which.add_argument("--order", action="store_true")
    which.add_argument("--hitting", action="store_true")
    which.add_argument("--eggcut", action="store_true")
    u.add_argument("--long-running", action="store_true",
                   help="with --hitting: progress lines on stderr")
    u.add_argument("--budget", type=float,
                   help="with --hitting: seconds (>= 0, inf for none) before giving up")
    u.add_argument("--prove-at-least", type=int,
                   help="with --hitting: stop once the hitting number is proven >= this")

    o = ssub.add_parser("order", help="order of a scramble from a file")
    o.add_argument("file")
    o.add_argument("scramblefile")

    f = ssub.add_parser("finite", help="is the egg-cut number finite")
    f.add_argument("file")
    f.add_argument("scramblefile")

    p = sub.add_parser("gonality", help="chip-firing gonality")
    gsub = p.add_subparsers(dest="gonality_command", required=True)

    b = gsub.add_parser("brute", help="exact search over 0-reduced divisors")
    b.add_argument("file")
    b.add_argument("--max-degree", type=int, default=INF)

    c = gsub.add_parser("check", help="does a divisor have positive rank")
    c.add_argument("file")
    c.add_argument("divfile")

    up = gsub.add_parser("upper", help="separator-based upper bound")
    up.add_argument("file")

    p = sub.add_parser("reduce", help="q-reduced form of a divisor")
    p.add_argument("file")
    p.add_argument("divfile")
    p.add_argument("q", type=int)

    p = sub.add_parser("verify", help="check one sufficient condition")
    p.add_argument("theorem", metavar="THEOREM",
                   help="main:L, girth3, girth4a, girth4b, girth5, "
                        "bipartite1, bipartite2, or order-ek:K")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--brute-cap", type=int, default=verify.DEFAULT_BRUTE_CAP)
    return parser


def _cmd_gen(args):
    graph = graphs.generate(args.family, args.params)
    text = graphs.format_edge_list(graph)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_info(args):
    G = graphs.parse_edge_list(_read(args.file))
    print(f"vertices: {G.n}")
    print(f"edges: {G.edge_count}")
    print(f"simple: {'yes' if G.is_simple() else 'no'}")
    print(f"connected: {'yes' if G.is_connected() else 'no'}")
    if G.n:
        valences = [G.valence(v) for v in range(G.n)]
        print(f"min valence: {min(valences)}")
        print(f"max valence: {max(valences)}")
    print(f"girth: {fmt_count(G.girth())}")
    sides = G.bipartition()
    if sides is None:
        print("bipartite: no")
    else:
        print(f"bipartite: yes ({len(sides[0])} + {len(sides[1])})")
    return 0


def _cmd_invariant(args):
    if args.kind == "girth":
        if len(args.args) != 1:
            raise ValueError("girth takes no parameter, just a file")
        print(fmt_count(graphs.parse_edge_list(_read(args.args[0])).girth()))
        return 0
    if len(args.args) != 2:
        raise ValueError(f"{args.kind} needs a parameter K and a file")
    try:
        parameter = int(args.args[0])
    except ValueError:
        raise ValueError("parameter K must be an integer") from None
    G = graphs.parse_edge_list(_read(args.args[1]))
    print(fmt_count(getattr(invariants, _INVARIANTS[args.kind])(G, parameter)))
    return 0


def _cmd_scramble_uniform(args):
    if not args.hitting:
        for flag, given in (
            ("--long-running", args.long_running),
            ("--budget", args.budget is not None),
            ("--prove-at-least", args.prove_at_least is not None),
        ):
            if given:
                raise ValueError(f"{flag} only applies to --hitting")
    G = graphs.parse_edge_list(_read(args.file))
    if args.hitting:
        progress = None
        if args.long_running:
            def progress(message):
                print(message, file=sys.stderr, flush=True)

        target = INF if args.prove_at_least is None else args.prove_at_least
        result = scramble.uniform_hitting_search(
            G,
            args.k,
            target=target,
            budget=INF if args.budget is None else args.budget,
            progress=progress,
        )
        if result.optimum is not None:
            print(result.optimum)
            return 0
        if result.proved_lower >= target:
            print(f"hitting number >= {result.proved_lower}")
            return 0
        print(f"hitting number >= {result.proved_lower} (search incomplete)")
        return 3
    e = scramble.uniform_egg_cut_number(G, args.k)
    if args.eggcut:
        print(fmt_count(e))
        return 0
    h = scramble.uniform_hitting_number(G, args.k)
    if args.order:
        print(fmt_count(min(h, e)))
        return 0
    print(f"hitting number: {h}")
    print(f"egg-cut number: {fmt_count(e)}")
    print(f"order: {fmt_count(min(h, e))}")
    return 0


def _cmd_scramble(args):
    if args.scramble_command == "uniform":
        return _cmd_scramble_uniform(args)
    G = graphs.parse_edge_list(_read(args.file))
    S = scramble.parse_scramble(_read(args.scramblefile), G)
    if args.scramble_command == "order":
        print(fmt_count(scramble.scramble_order(S)))
        return 0
    finite, pair = scramble.has_finite_egg_cut(S)
    if finite:
        print("yes")
        for egg in pair:
            print("egg: " + " ".join(str(v) for v in sorted(egg)))
    else:
        print("no")
    return 0


def _cmd_gonality(args):
    G = graphs.parse_edge_list(_read(args.file))
    if args.gonality_command == "brute":
        # the bound stops once it passes the cap, which then cannot be met
        lower = 0
        for lower in scramble._uniform_orders_so_far(G):
            if lower > args.max_degree:
                break
        result = chipfiring.gonality_bruteforce(G, args.max_degree, lower=lower)
        if result.exceeded_cap:
            print(f"no positive-rank divisor up to degree {result.max_degree}",
                  file=sys.stderr)
            return 3
        print(result.value)
        print("witness: " + chipfiring.format_divisor(result.witness))
        return 0
    if args.gonality_command == "check":
        D = chipfiring.parse_divisor(_read(args.divfile), G.n)
        positive = chipfiring.has_positive_rank(G, D)
        print(f"positive rank: {'yes' if positive else 'no'}")
        return 0
    bound = chipfiring.gonality_upper_by_separator(G)
    print(bound.size)
    print("separator: " + " ".join(str(v) for v in sorted(bound.separator)))
    return 0


def _cmd_reduce(args):
    G = graphs.parse_edge_list(_read(args.file))
    D = chipfiring.parse_divisor(_read(args.divfile), G.n)
    print(chipfiring.format_divisor(chipfiring.q_reduce(G, D, args.q)))
    return 0


def _cmd_verify(args):
    token, colon, raw = args.theorem.partition(":")
    parameter = None
    if colon:
        try:
            parameter = int(raw)
        except ValueError:
            raise ValueError(f"bad theorem parameter {raw!r}") from None
    token = token.replace("-", "_")
    theorem = verify.THEOREMS.get(token)
    if theorem is None:
        raise ValueError(f"unknown theorem {args.theorem!r}")
    name = token.replace("_", "-")
    if theorem.example is None and parameter is not None:
        raise ValueError(f"{name} takes no parameter")
    if theorem.example is not None and parameter is None:
        raise ValueError(f"{name} needs a parameter, e.g. {name}:{theorem.example}")
    G = graphs.parse_edge_list(_read(args.file))
    verifier = getattr(verify, theorem.verifier)
    caps = {"brute_cap": args.brute_cap} if theorem.cross_checked else {}
    report = verifier(G, token if parameter is None else parameter, **caps)
    print(verify.report_to_json(report) if args.json else verify.render_report(report))
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "info": _cmd_info,
    "invariant": _cmd_invariant,
    "scramble": _cmd_scramble,
    "gonality": _cmd_gonality,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except InputFormatError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
