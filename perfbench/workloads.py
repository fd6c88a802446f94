"""The four workloads: their inputs, their operations and the checks on
their outputs.

A workload writes its input files, names which of them set-up parses,
lists its operations as callables over the parsed objects, and checks a
round of outputs with ``checker`` and the stored reference figures.
Every round runs the same operations in the same order.
"""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checker
import inputs

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
FAULT_MESSAGE = "burning loop failed to converge"
# graphs in the seeded random-survey corpus
SURVEY_SIZE = 180


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def ref_count(value):
    return checker.INF if value == "inf" else value


class Op:
    """One timed call.  ``fault`` marks the operations allowed to fail
    with the known round-cap fault."""

    def __init__(self, label, run, fault=False):
        self.label = label
        self.run = run
        self.fault = fault


class Workload:
    name = None

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(f"{self.name}/{seed}")
        self.files = []  # (path, kind, graph path) in parse order
        self.graphs = {}  # path -> (n, edges), the generator's own copy
        self.reference = load_reference()

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add_graph(self, name, n, edges, shuffle=True):
        path = self.write(f"{name}.edges", inputs.edge_list_text(n, edges, self.rng if shuffle else None))
        self.files.append((path, "graph", None))
        self.graphs[path] = (n, edges)
        return path

    def add_named(self, name):
        return self.add_graph(name, *inputs.named_graph(name))

    def add_scramble(self, name, graph_path, egg_masks):
        sets = [inputs.mask_vertices(m) for m in egg_masks]
        path = self.write(f"{name}.eggs", inputs.sets_text(sets, self.rng))
        self.files.append((path, "scramble", graph_path))
        return path

    def add_divisor(self, name, graph_path, D):
        path = self.write(f"{name}.div", inputs.divisor_text(D))
        self.files.append((path, "divisor", graph_path))
        return path

    def ops(self, pkg, parsed):
        raise NotImplementedError

    def check(self, outputs):
        """Problems found in one round's outputs (an empty list when all
        pass).  ``outputs`` maps op label to its output; failed ops are
        absent."""
        raise NotImplementedError

    # -- helpers shared by the workloads --

    def ref(self, path):
        return self.reference["graphs"][Path(path).stem]

    def checker_graph(self, path):
        return checker.Graph(*self.graphs[path])


def cli_op(pkg, label, argv):
    """A CLI command run in-process; its output is (exit code, stdout)."""

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = pkg.cli.run_cli(argv)
        return code, out.getvalue()

    return Op(label, run)


def cli_lines(output):
    code, text = output
    if code != 0:
        raise ValueError(f"exit code {code}")
    return text.splitlines()


def _expect(problems, label, ok, detail):
    if not ok:
        problems.append(f"{label}: {detail}")


def bipartite_sides(g):
    """The two colour classes, or None on an odd cycle."""
    colour = [None] * g.n
    for root in range(g.n):
        if colour[root] is not None:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b in g.mult[a]:
                if colour[b] is None:
                    colour[b] = 1 - colour[a]
                    stack.append(b)
                elif colour[b] == colour[a]:
                    return None
    side = [v for v in range(g.n) if colour[v] == 0]
    return side, [v for v in range(g.n) if colour[v] == 1]


def hitting_figures(workload, path, k):
    """(exact, ceiling) for the k-uniform hitting number.  The exact
    figure is n - alpha_{k-1} from the stored figures; for Q5 it rests on
    the stored alpha_5.  The ceiling is the stored exhaustive figure, or,
    for a graph too large for it, the smaller colour class: in a
    bipartite graph each class meets every connected set of two or more
    vertices."""
    ref = workload.ref(path)
    exact = ref["n"] - ref["alpha"][str(k - 1)]
    if "uniform" in ref:
        return exact, ref["uniform"][str(k)]["hitting"]
    sides = bipartite_sides(workload.checker_graph(path))
    if sides is None or k < 2:
        return exact, ref["n"]
    return exact, min(len(s) for s in sides)


def alpha_check(workload, path, c, value):
    """Compare alpha_c with the stored figure; on a bipartite graph also
    with the larger colour class, an independent set and so a lower
    bound for every c >= 1."""
    ref = workload.ref(path)
    problems = []
    if str(c) in ref.get("alpha", {}):
        _expect(problems, "alpha", value == ref["alpha"][str(c)], f"{value} != {ref['alpha'][str(c)]}")
    sides = bipartite_sides(workload.checker_graph(path))
    if sides is not None and c >= 1:
        g = workload.checker_graph(path)
        big = max(sides, key=len)
        _expect(problems, "alpha", checker.is_independent(g, big), "colour class not independent")
        _expect(problems, "alpha", value >= len(big), f"{value} below colour class {len(big)}")
    return problems


def check_witness(workload, path, value, witness, label, problems):
    """A printed gonality witness: effective, of the printed degree, and
    of positive rank by the checker's own chip-firing."""
    g = workload.checker_graph(path)
    _expect(problems, label, len(witness) == g.n and min(witness) >= 0, "witness not effective")
    _expect(problems, label, sum(witness) == value, "witness degree differs from value")
    _expect(problems, label, checker.has_positive_rank(g, witness), "witness has rank 0")


def check_separator(workload, path, size, separator, label, problems):
    g = workload.checker_graph(path)
    _expect(problems, label, len(set(separator)) == size, "separator size differs")
    _expect(problems, label, checker.is_strong_separator(g, separator), "not a strong separator")


class UniformNamed(Workload):
    """The uniform scrambles on the named graphs, through the CLI."""

    name = "uniform-named"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.cases = [("herschel", 3), ("q3", 2)]
            self.big, self.big_k, self.floor, self.big_c = "q3", 3, 2, 2
        else:
            self.cases = [("herschel", 3), ("q3", 2), ("q4", 2), ("fq4", 2), ("crown7", 2)]
            self.big, self.big_k, self.floor, self.big_c = "q5", 6, 8, 2
        self.paths = {}
        for name in sorted({c[0] for c in self.cases} | {self.big}):
            self.paths[name] = self.add_named(name)

    def ops(self, pkg, parsed):
        ops = []
        for name, k in self.cases:
            path = self.paths[name]
            ops.append(cli_op(pkg, f"uniform {name} {k}", ["scramble", "uniform", str(k), path]))
            ops.append(cli_op(pkg, f"lambda {name} {k}", ["invariant", "lambda-k", str(k), path]))
            ops.append(cli_op(pkg, f"alpha {name} {k - 1}", ["invariant", "alpha-c", str(k - 1), path]))
        big = self.paths[self.big]
        ops.append(cli_op(pkg, f"hitting {self.big} {self.big_k}", [
            "scramble", "uniform", str(self.big_k), big, "--hitting", "--long-running",
            "--prove-at-least", str(self.floor)]))
        ops.append(cli_op(pkg, f"alpha {self.big} {self.big_c}", ["invariant", "alpha-c", str(self.big_c), big]))
        return ops

    def check(self, outputs):
        problems = []
        for name, k in self.cases:
            path = self.paths[name]
            figures = self.ref(path)["uniform"][str(k)]
            label = f"uniform {name} {k}"
            lines = cli_lines(outputs[label])
            want = [
                f"hitting number: {figures['hitting']}",
                f"egg-cut number: {figures['egg_cut']}",
                f"order: {min(figures['hitting'], ref_count(figures['egg_cut']))}",
            ]
            _expect(problems, label, lines == want, f"{lines} != {want}")
            label = f"lambda {name} {k}"
            lam = cli_lines(outputs[label])
            _expect(problems, label, lam == [str(figures["lambda"])], f"{lam} != {figures['lambda']}")
            label = f"alpha {name} {k - 1}"
            problems += [f"{label}: {p}" for p in alpha_check(self, path, k - 1, int(cli_lines(outputs[label])[0]))]
        big = self.paths[self.big]
        label = f"hitting {self.big} {self.big_k}"
        line = cli_lines(outputs[label])[0]
        exact, ceiling = hitting_figures(self, big, self.big_k)
        match = re.fullmatch(r"hitting number >= (\d+)", line)
        if match:
            floor = int(match.group(1))
            _expect(problems, label, self.floor <= floor <= ceiling, f"floor {floor} outside [{self.floor}, {ceiling}]")
        else:
            _expect(problems, label, int(line) == exact <= ceiling, f"{line} != {exact}")
        label = f"alpha {self.big} {self.big_c}"
        value = int(cli_lines(outputs[label])[0])
        problems += [f"{label}: {p}" for p in alpha_check(self, big, self.big_c, value)]
        return problems


class ExplicitEggs(Workload):
    """Explicit scramble files: the Q5 6-vertex connected sets, the
    3-vertex connected sets of two named graphs, and seeded random
    scrambles."""

    name = "explicit-eggs"
    egg_size = 3

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.big, self.big_k, self.target = "q3", 3, 2
            named, count = ["herschel"], 2
        else:
            self.big, self.big_k, self.target = "q5", 6, 8
            named, count = ["q4", "crown6"], 108
        n, edges = inputs.named_graph(self.big)
        self.big_graph = self.add_graph(self.big, n, edges)
        self.big_eggs = self.add_scramble(self.big, self.big_graph, inputs.connected_sets(n, edges, self.big_k))
        self.named = []
        for name in named:
            n, edges = inputs.named_graph(name)
            gpath = self.add_graph(name, n, edges)
            masks = inputs.connected_sets(n, edges, self.egg_size)
            self.named.append((name, gpath, self.add_scramble(name, gpath, masks), set(masks)))
        self.randoms = []
        for i in range(count):
            n, edges, eggs = inputs.random_scramble(self.rng, i)
            gpath = self.add_graph(f"random{i}", n, edges, shuffle=False)
            self.randoms.append((gpath, self.add_scramble(f"random{i}", gpath, eggs), eggs))

    def ops(self, pkg, parsed):
        S = parsed[self.big_eggs]

        def big_search():
            result = pkg.scramble.hitting_search(S, target=self.target)
            return result.proved_lower, result.optimum

        ops = [Op(f"hitting {self.big} eggs", big_search)]
        for name, gpath, spath, _ in self.named:
            ops.append(cli_op(pkg, f"order {name}", ["scramble", "order", gpath, spath]))
            ops.append(cli_op(pkg, f"finite {name}", ["scramble", "finite", gpath, spath]))
        for i, (gpath, spath, _) in enumerate(self.randoms):
            ops.append(Op(f"order random{i}", lambda S=parsed[spath]: pkg.scramble.scramble_order(S)))
        return ops

    def check(self, outputs):
        problems = []
        label = f"hitting {self.big} eggs"
        proved, optimum = outputs[label]
        exact, ceiling = hitting_figures(self, self.big_graph, self.big_k)
        _expect(problems, label, self.target <= proved <= ceiling, f"floor {proved} outside [{self.target}, {ceiling}]")
        _expect(problems, label, optimum in (None, exact), f"optimum {optimum} != {exact}")
        for name, gpath, _, masks in self.named:
            figures = self.ref(gpath)["uniform"][str(self.egg_size)]
            order = min(figures["hitting"], ref_count(figures["egg_cut"]))
            lines = cli_lines(outputs[f"order {name}"])
            _expect(problems, f"order {name}", lines == [str(order)], f"{lines} != {order}")
            lines = cli_lines(outputs[f"finite {name}"])
            eggs = [sum(1 << int(v) for v in line.split()[1:]) for line in lines[1:]]
            ok = lines[0] == "yes" and len(eggs) == 2 and checker.disjoint_pair(masks, *eggs)
            _expect(problems, f"finite {name}", ok, f"{lines}")
        for i, (gpath, _, eggs) in enumerate(self.randoms):
            g = self.checker_graph(gpath)
            want = min(checker.hitting_exhaustive(g.n, eggs), checker.egg_cut_exhaustive(g, eggs))
            got = outputs[f"order random{i}"]
            _expect(problems, f"order random{i}", got == want, f"{got} != {want}")
        return problems


class GonalityNamed(Workload):
    """Brute-force gonality, the separator bound and two verifiers on the
    named graphs, through the CLI."""

    name = "gonality-named"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.brute = ["q3", "herschel"]
            self.upper = ["q3", "herschel"]
            self.verify = [("main:4", "q3", ["--brute-cap", "16"]), ("bipartite1", "crown6", [])]
        else:
            self.brute = ["q3", "herschel", "crown6", "crown7"]
            self.upper = self.brute + ["q4", "fq4", "q5"]
            self.verify = [("main:4", "crown6", ["--brute-cap", "16"]), ("bipartite1", "crown6", [])]
        names = set(self.brute) | set(self.upper) | {v[1] for v in self.verify}
        self.paths = {name: self.add_named(name) for name in sorted(names)}

    def ops(self, pkg, parsed):
        ops = [cli_op(pkg, f"brute {g}", ["gonality", "brute", self.paths[g]]) for g in self.brute]
        ops += [cli_op(pkg, f"upper {g}", ["gonality", "upper", self.paths[g]]) for g in self.upper]
        for token, g, extra in self.verify:
            ops.append(cli_op(pkg, f"verify {token} {g}", ["verify", token, self.paths[g]] + extra))
        return ops

    def check(self, outputs):
        problems = []
        for g in self.brute:
            path, label = self.paths[g], f"brute {g}"
            lines = cli_lines(outputs[label])
            value = int(lines[0])
            witness = tuple(int(x) for x in lines[1].split(":")[1].split())
            _expect(problems, label, value == self.ref(path)["gonality"], f"{value} != {self.ref(path)['gonality']}")
            check_witness(self, path, value, witness, label, problems)
        for g in self.upper:
            path, label = self.paths[g], f"upper {g}"
            lines = cli_lines(outputs[label])
            size = int(lines[0])
            separator = [int(x) for x in lines[1].split(":")[1].split()]
            check_separator(self, path, size, separator, label, problems)
            gonality = self.ref(path).get("gonality")
            if gonality is not None:
                _expect(problems, label, size >= gonality, f"bound {size} below gonality {gonality}")
        for token, g, _ in self.verify:
            path, label = self.paths[g], f"verify {token} {g}"
            text = "\n".join(cli_lines(outputs[label]))
            gonality = self.ref(path)["gonality"]
            _expect(problems, label, ": applicable" in text.splitlines()[0], "not applicable")
            _expect(problems, label, f"conclusion: scramble number = gonality = {gonality}" in text, "conclusion")
            _expect(problems, label, f"brute-force gonality: {gonality} (verified)" in text, "cross-check")
            if token.startswith("main:"):
                lam = re.search(r"\{'lambda': '(\w+)', 'bound': (\d+)\}", text)
                ell = int(token.split(":")[1])
                ref = self.ref(path)
                want = (str(ref["uniform"][str(ell - 1)]["lambda"]), ref["n"] - ref["alpha"][str(ell - 2)])
                got = lam and (lam.group(1), int(lam.group(2)))
                _expect(problems, label, got == want, f"hypothesis figures {got} != {want}")
        return problems


class RandomSurvey(Workload):
    """A seeded corpus of small random multigraphs through library calls,
    plus the fixed reduction block that holds the round-cap fault."""

    name = "random-survey"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        size, block = (12, 6) if tiny else (SURVEY_SIZE, inputs.FAULT_BLOCK_SIZE)
        self.cases = []
        for i, (n, edges, D, q) in enumerate(inputs.survey_corpus(seed, size)):
            gpath = self.add_graph(f"g{i}", n, edges, shuffle=False)
            self.cases.append((f"g{i}", gpath, self.add_divisor(f"g{i}", gpath, D), D, q))
        self.block = []
        for i, (n, edges, D, q) in enumerate(inputs.fault_block(block)):
            gpath = self.add_graph(f"fault{i}", n, edges, shuffle=False)
            self.block.append((f"fault{i}", gpath, self.add_divisor(f"fault{i}", gpath, D), D, q))

    def ops(self, pkg, parsed):
        sc, cf = pkg.scramble, pkg.chipfiring

        def orders(G):
            return tuple(sc.scramble_order(sc.uniform_scramble(G, k)) for k in range(1, G.n + 1))

        def gonality(G):
            result = cf.gonality_bruteforce(G)
            bound = cf.gonality_upper_by_separator(G)
            return result.value, result.witness, bound.size, sorted(bound.separator)

        ops = []
        for name, gpath, dpath, _, q in self.cases:
            G, D = parsed[gpath], parsed[dpath]
            ops.append(Op(f"orders {name}", lambda G=G: orders(G)))
            ops.append(Op(f"gonality {name}", lambda G=G: gonality(G)))
            ops.append(Op(f"reduce {name}", lambda G=G, D=D, q=q: cf.q_reduce(G, D, q)))
        for name, gpath, dpath, _, q in self.block:
            G, D = parsed[gpath], parsed[dpath]
            ops.append(Op(f"reduce {name}", lambda G=G, D=D, q=q: cf.q_reduce(G, D, q), fault=True))
        return ops

    def check(self, outputs):
        problems = []
        for name, gpath, _, D, q in self.cases + self.block:
            g = self.checker_graph(gpath)
            if f"orders {name}" in outputs:
                want = checker.uniform_orders(g)
                got = outputs[f"orders {name}"]
                _expect(problems, name, list(got) == [want[k] for k in range(1, g.n + 1)], f"orders {got}")
                value, witness, size, separator = outputs[f"gonality {name}"]
                _expect(problems, name, max(want.values()) <= value <= size, "order <= gonality <= bound")
                check_witness(self, gpath, value, witness, name, problems)
                check_separator(self, gpath, size, separator, name, problems)
            label = f"reduce {name}"
            if label in outputs:
                reduced = outputs[label]
                _expect(problems, label, checker.is_q_reduced(g, reduced, q), "not q-reduced")
                _expect(problems, label, checker.lattice_equivalent(g, reduced, D), "not equivalent")
        return problems


WORKLOADS = {w.name: w for w in (UniformNamed, ExplicitEggs, GonalityNamed, RandomSurvey)}
