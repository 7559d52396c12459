"""Seeded input generator for the fed benchmark.

`generate(workload, seed, fixtures_dir, out_dir)` writes every edge-list
file a workload needs into `out_dir` and returns the job list together with
the input properties that drive cost. The program under test later sees only
these files and command-line arguments. The same workload and seed always
give byte-identical files and the same job list.

Random graphs use a fixed edge count M = 2n, the expected size of
G(n, 4/(n-1)), so that seeds change the structure but not the size of the
problem and run-to-run spread stays small. Jobs marked `fixed` (fixtures,
tables, the dense member, the large certify members, the iterative oracle
members, the variational jobs) get the same input for every seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("certify-batch", "closed-form", "oracle-exact")
RECORDED_SEEDS = range(20)  # seeds whose outputs expected/ holds (record.py)

FIXTURES = (
    "k2", "c4", "k22", "c5", "k36", "triangle_book", "hub_triangles", "edge_degree_34",
)
# Fixture jobs whose exact values the paper and the fixture README state.
FIXTURE_EXACT = {
    ("hub_triangles", "constrained:1.25,5"): {"matching_value": "13/5"},
    ("hub_triangles", "qhfm"): {"s_hat": "9/10"},
    ("triangle_book", "qhfm"): {"s_hat": "54/55"},
    ("edge_degree_34", "qhfm"): {"s_hat": "47/48"},
}
REGULAR_FIXTURES = {"k2": 1, "c4": 2, "k22": 2, "c5": 2}

# certify-batch random members: (vertices n, variant, strategy), M = 2n edges.
# One graph's simplex time varies by 20-30 % (up to 2x) from graph to graph,
# so the seed draws only the small members; the larger ones, whose spread
# would dominate the pass time, are drawn once from a fixed seed.
_COMBOS = (
    ("plain", "qhfm"), ("plain", "mwfm"), ("weighted", "qhfm"),
    ("parallel", "qhfm"), ("plain", "constrained"), ("weighted", "constrained"),
)
CERTIFY_SEEDED = tuple((n, *c) for n in (10, 12) for c in _COMBOS)
CERTIFY_LARGE = tuple(
    (n, *c) for n, count in ((15, 6), (20, 6), (25, 4), (30, 2), (35, 1)) for c in _COMBOS[:count]
)
CERTIFY_REGULAR = (12, 16)  # random 3-regular members, certified with hfm:3
DENSE_COMMON = 21  # the dense member: two adjacent hubs sharing 21 neighbours

TABLE_DEGREES = (10, 20, 30, 40, 50, 60)
SWEEP_EDGES = (1000, 2000, 4000, 7000, 10000)
SWEEP_KAPPAS = (0.1, 0.3, 0.5, 0.8)
# Known failure of every sweep at the commit that added the benchmark:
# total_energy gives each parallel copy a floor derived from its own
# fraction, but the copies' angles add, so the pair's energy can fall below it.
BELOW_FLOOR = "below_floor"

ORACLE_DENSE = (8, 9, 10, 11)  # fed.oracle.DENSE_QUBIT_CAP is 12
# A dense solve costs the same on every graph of its size, so the seed draws
# the dense members. The Lanczos matvec count varies from graph to graph
# (71-141 at 15 qubits), so the iterative members are drawn once from a
# fixed seed, as are the variational jobs, whose optimiser takes a different
# number of steps from each seed's starting angles.
ORACLE_ITERATIVE = (13, 14, 15, 16, 17, 18)
ORACLE_WEIGHTED = 10  # this member also gets rational weights and a parallel edge
VARIATIONAL = ("k22", "c5", "c6")
VARIATIONAL_RESTARTS = 2
VARIATIONAL_SEED = 0


def _fmt(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def _rational(rng: random.Random) -> Fraction:
    q = rng.randint(2, 6)
    return Fraction(rng.randint(1, 2 * q), q)


def _random_pairs(rng: random.Random, n: int, m: int, taken: set | None = None) -> list:
    pairs = set() if taken is None else set(taken)
    out = []
    while len(out) < m:
        u, v = rng.sample(range(n), 2)
        p = (min(u, v), max(u, v))
        if p not in pairs:
            pairs.add(p)
            out.append(p)
    return out


def _cycle_plus(rng: random.Random, n: int, m: int) -> list:
    """A random Hamiltonian cycle plus random chords: every vertex is a qubit."""
    order = list(range(n))
    rng.shuffle(order)
    cycle = [(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])]
    return cycle + _random_pairs(rng, n, m - n, set(cycle))


def _random_regular(rng: random.Random, n: int, d: int) -> list:
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(pairs) == n * d // 2:
            return sorted(pairs)


def _with_variant(rng: random.Random, pairs: list, variant: str) -> list:
    """Edges as (u, v, weight); 'weighted' makes half the weights rational,
    'parallel' adds a second copy with its own weight to a fifth of the pairs."""
    edges = [(u, v, Fraction(1)) for u, v in pairs]
    if variant == "weighted":
        edges = [(u, v, _rational(rng) if rng.random() < 0.5 else w) for u, v, w in edges]
    elif variant == "parallel":
        edges += [(u, v, _rational(rng)) for u, v in rng.sample(pairs, len(pairs) // 5)]
    return edges


def graph_properties(edges: list) -> dict:
    """Cost drivers of one edge list: size, degrees, common neighbours, shares."""
    deg: dict = {}
    nbrs: dict = {}
    count: dict = {}
    for u, v, _ in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
        key = (min(u, v), max(u, v))
        count[key] = count.get(key, 0) + 1
    common = max(len((nbrs[u] & nbrs[v]) - {u, v}) for u, v in count)
    return {
        "vertices": len(deg),
        "edges": len(edges),
        "pairs": len(count),
        "max_degree": max(deg.values()),
        "max_common_neighbours": common,
        "weighted_share": sum(w != 1 for _, _, w in edges) / len(edges),
        "parallel_share": sum(c for c in count.values() if c > 1) / len(edges),
    }


def _write(out_dir: Path, name: str, edges: list, rng: random.Random | None) -> tuple[str, dict]:
    """Write an edge list, in a seeded random line order unless rng is None."""
    lines = [f"{u} {v}" if w == 1 else f"{u} {v} {_fmt(w)}" for u, v, w in edges]
    if rng is not None:
        rng.shuffle(lines)
    path = out_dir / f"{name}.edges"
    path.write_text("\n".join(lines) + "\n")
    return str(path), graph_properties(edges)


def read_edge_list(path: Path) -> list:
    """Edges of an edge-list file as (u, v, Fraction weight) label triples."""
    edges = []
    for raw in path.read_text().splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            w = Fraction(parts[2]) if len(parts) == 3 else Fraction(1)
            edges.append((parts[0], parts[1], w))
    return edges


def _certify_jobs(rng, fixtures_dir: Path, out_dir: Path) -> list:
    jobs = []

    def add(name, path, props, strategy, **extra):
        argv = ["certify", path, "--matching", strategy, "--format", "json"]
        jobs.append({"id": f"{name}/{strategy}", "kind": "certify", "argv": argv,
                     "graph": path, "props": props, **extra})

    for name in FIXTURES:
        src = fixtures_dir / f"{name}.edges"
        path, props = _write(out_dir, f"fixture_{name}", read_edge_list(src), None)
        box = f"constrained:1.25,{max(5, props['max_degree'])}"
        strategies = ["qhfm", "mwfm", box]
        if name in REGULAR_FIXTURES:
            strategies.append(f"hfm:{REGULAR_FIXTURES[name]}")
        for s in strategies:
            add(name, path, props, s, fixed=True, exact=FIXTURE_EXACT.get((name, s), {}))
    large = random.Random("certify-batch:large")
    members = [(m, rng, False) for m in CERTIFY_SEEDED] + [(m, large, True) for m in CERTIFY_LARGE]
    for k, ((n, variant, strategy), r, fixed) in enumerate(members):
        name = f"gnm{n}_{k}_{variant}"
        path, props = _write(out_dir, name, _with_variant(r, _random_pairs(r, n, 2 * n), variant), r)
        if strategy == "constrained":  # the lower bound 1/Delta is feasible at every vertex
            strategy = f"constrained:1.25,{props['max_degree']}"
        add(name, path, props, strategy, id=f"{name}/{strategy.split(':')[0]}", fixed=fixed)
    for n in CERTIFY_REGULAR:
        name = f"regular3_{n}"
        path, props = _write(out_dir, name, _with_variant(rng, _random_regular(rng, n, 3), "plain"), rng)
        add(name, path, props, "hfm:3")
    dense = [("h0", "h1", Fraction(1))]
    dense += [(h, f"c{i}", Fraction(1)) for i in range(DENSE_COMMON) for h in ("h0", "h1")]
    path, props = _write(out_dir, "dense_hubs", dense, None)
    # Known failure: certify exits 1 with MagicStateError (21 common
    # neighbours exceed the closed-form cap of 20). Kept so it stays visible.
    add("dense_hubs", path, props, "qhfm", fixed=True, known_failure="MagicStateError")
    return jobs


def _sweep_graph(rng: random.Random, m: int) -> list:
    """Sparse random graph with two non-adjacent hubs, rational weights on a
    quarter of the edges and parallel copies of a tenth of them."""
    n = m // 2
    hub_deg = min(200, n // 10)
    parallel = m // 10
    hub_pairs = [(h, v) for h in (0, 1) for v in rng.sample(range(2, n), hub_deg)]
    base = _random_pairs(rng, n - 2, m - len(hub_pairs) - parallel)
    pairs = [(u + 2, v + 2) for u, v in base] + hub_pairs
    edges = [(u, v, _rational(rng) if rng.random() < 0.25 else Fraction(1)) for u, v in pairs]
    edges += [(u, v, Fraction(1)) for u, v in rng.sample(pairs, parallel)]
    return edges


def _closed_form_jobs(rng, out_dir: Path) -> list:
    jobs = [{"id": f"table{d}", "kind": "table", "d": d, "fixed": True,
             "argv": ["table", "--max-degree", str(d), "--format", "json"]}
            for d in TABLE_DEGREES]
    for m in SWEEP_EDGES:
        path, props = _write(out_dir, f"sweep{m}", _sweep_graph(rng, m), rng)
        # Kept with its known failure (BELOW_FLOOR), so that it stays visible.
        jobs.append({"id": f"sweep{m}", "kind": "energy", "graph": path,
                     "kappas": list(SWEEP_KAPPAS), "props": props, "known_failure": BELOW_FLOOR})
    return jobs


def _oracle_jobs(rng, fixtures_dir: Path, out_dir: Path) -> list:
    jobs = []
    large = random.Random("oracle-exact:iterative")
    members = [(n, rng, False) for n in ORACLE_DENSE] + [(n, large, True) for n in ORACLE_ITERATIVE]
    for n, r, fixed in members:
        edges = [(u, v, Fraction(1)) for u, v in _cycle_plus(r, n, 2 * n)]
        if n == ORACLE_WEIGHTED:
            edges = [(u, v, _rational(r)) for u, v, _ in edges]
            u, v, _ = edges[0]
            edges.append((u, v, Fraction(1, 2)))
        path, props = _write(out_dir, f"oracle{n}", edges, r)
        jobs.append({"id": f"oracle{n}", "kind": "oracle", "graph": path, "props": props,
                     "argv": ["oracle", path, "--format", "json"], "fixed": fixed})
    for name in VARIATIONAL:
        if name in FIXTURES:
            edges = read_edge_list(fixtures_dir / f"{name}.edges")
        else:  # a cycle C_k named "c<k>"
            k = int(name[1:])
            edges = [(i, (i + 1) % k, Fraction(1)) for i in range(k)]
        path, props = _write(out_dir, f"variational_{name}", edges, None)
        argv = ["oracle", path, "--variational", "--restarts", str(VARIATIONAL_RESTARTS),
                "--seed", str(VARIATIONAL_SEED), "--format", "json"]
        jobs.append({"id": f"variational_{name}", "kind": "variational", "graph": path,
                     "props": props, "argv": argv, "fixed": True})
    return jobs


def summarize(jobs: list) -> dict:
    """Workload-level input properties, aggregated over distinct graphs."""
    graphs = {j["graph"]: j["props"] for j in jobs if "graph" in j}
    props = list(graphs.values())
    total = sum(p["edges"] for p in props)
    out = {"jobs": len(jobs), "graphs": len(props)}
    if props:
        out.update({
            "edges_min": min(p["edges"] for p in props),
            "edges_max": max(p["edges"] for p in props),
            "edges_total": total,
            "max_degree": max(p["max_degree"] for p in props),
            "max_common_neighbours": max(p["max_common_neighbours"] for p in props),
            "weighted_share": sum(p["weighted_share"] * p["edges"] for p in props) / total,
            "parallel_share": sum(p["parallel_share"] * p["edges"] for p in props) / total,
        })
    qubits = sorted({j["props"]["vertices"] for j in jobs if j["kind"] in ("oracle", "variational")})
    if qubits:
        out["qubits"] = qubits
    out["known_failures"] = [j["id"] for j in jobs if "known_failure" in j]
    return out


def generate(workload: str, seed: int, fixtures_dir: Path, out_dir: Path) -> tuple[list, dict]:
    """Write the workload's inputs for `seed`; return (jobs, input properties)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-batch":
        jobs = _certify_jobs(rng, fixtures_dir, out_dir)
    elif workload == "closed-form":
        jobs = _closed_form_jobs(rng, out_dir)
    else:
        jobs = _oracle_jobs(rng, fixtures_dir, out_dir)
    return jobs, summarize(jobs)
