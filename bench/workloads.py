"""The benchmark's workloads: input generation, one timed pass, and the
correctness gate that checks a pass's output.

Every workload is a closed loop with one caller. A pass returns its wall
time, one latency per operation and its output, with times taken on the
HostSpeed clock and scaled to the nominal host speed (see hostspeed.py). The
gate runs after the timed region and counts operations that are wrong,
unresolved or wrongly counted. The gates share no code with `rigikit.canon`:
isomorphism is decided with networkx.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from hostspeed import HostSpeed

# enum-deg23: graphs on 11 vertices with every degree in {2, 3}
DEG23_N, DEG23_MIN, DEG23_MAX, DEG23_CLASSES = 11, 2, 3, 1530
# classify-d3: the d=3 window on at most 9 vertices
CLASSIFY_D, CLASSIFY_N_MAX, CLASSIFY_SURVIVORS = 3, 9, 2709
SHARDS = 4


@dataclass
class Pass:
    wall: float  # seconds, reference samples excluded
    scaled_wall: float  # the same at the nominal host speed
    latencies: list[float]  # per operation, at the nominal host speed
    output: object


def _finish(hs: HostSpeed, stamps: list[float], output) -> Pass:
    """stamps: the start, then the end of each operation."""
    end = hs.now()
    lat = [hs.scaled(a, b) for a, b in zip(stamps, stamps[1:])]
    return Pass(end - stamps[0], hs.scaled(stamps[0], end), lat, output)


# --- enum-deg23 -------------------------------------------------------------


def enum_setup(rk, seed: int):
    # the stream has no random input; the seed only labels the run
    return rk.SearchSpec(n=DEG23_N, degree_min=DEG23_MIN, degree_max=DEG23_MAX)


def enum_pass(rk, spec, hs: HostSpeed) -> Pass:
    out = []
    stamps = [hs.now()]
    for g in rk.enumerate_constrained(spec):
        stamps.append(hs.now())
        out.append(g)
    return _finish(hs, stamps, out)


def enum_gate(rk, spec, graphs) -> tuple[int, int, list[str]]:
    notes = []
    missing = abs(len(graphs) - DEG23_CLASSES)
    if missing:
        notes.append(f"{len(graphs)} classes, expected {DEG23_CLASSES}")
    outside = 0
    for g in graphs:
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        if g.n != DEG23_N or not all(DEG23_MIN <= x <= DEG23_MAX for x in deg):
            outside += 1
    if outside:
        notes.append(f"{outside} graphs outside the degree window")
    dups = iso_duplicates(graphs)
    if dups:
        notes.append(f"{dups} classes isomorphic to an earlier class")
    attempted = max(len(graphs), DEG23_CLASSES)
    return attempted, missing + outside + dups, notes


# --- classify-d3 ------------------------------------------------------------


@dataclass
class ClassifyInputs:
    seed: int
    families: list  # the constructed flexible circuits on <= 9 vertices


def classify_setup(rk, seed: int) -> ClassifyInputs:
    fams = [rk.build_glued_cliques(CLASSIFY_D, 2).graph]
    fams += [c.graph for c in rk.enumerate_glued_cliques_plus(CLASSIFY_D)]
    return ClassifyInputs(seed, [g for g in fams if g.n <= CLASSIFY_N_MAX])


def classify_run(rk, seed: int, hs: HostSpeed, partition=(0, 1)) -> Pass:
    """One classification call. An operation is one survivor: the time from
    the previous survivor's verdict (or the start) to this one's verdict,
    which covers generating the survivor and testing it."""
    verify = rk.verify
    inner = verify.is_flexible_circuit
    survivors, stamps = [], []

    def timed_verdict(g, d, *args, **kwargs):
        survivors.append(g)
        result = inner(g, d, *args, **kwargs)
        stamps.append(hs.now())
        return result

    verify.is_flexible_circuit = timed_verdict
    try:
        stamps.append(hs.now())
        report, found = verify.classify_flexible_circuits(
            CLASSIFY_D, CLASSIFY_N_MAX, seed=seed, partition=partition)
    finally:
        verify.is_flexible_circuit = inner
    return _finish(hs, stamps, (report, found, survivors))


def classify_pass(rk, inputs: ClassifyInputs, hs: HostSpeed) -> Pass:
    return classify_run(rk, inputs.seed, hs)


def classify_gate(rk, inputs: ClassifyInputs, output) -> tuple[int, int, list[str]]:
    report, found, survivors = output
    notes = []
    failed = 0
    if report.status != "pass":
        failed += 1
        notes.append(f"report status {report.status}")
    tested = next((c["count"] for c in report.details
                   if c.get("name") == "survivors-tested"), -1)
    if tested != len(survivors):
        failed += 1
        notes.append(f"report counts {tested} survivors, {len(survivors)} were tested")
    miscount = abs(len(survivors) - CLASSIFY_SURVIVORS)
    if miscount:
        failed += miscount
        notes.append(f"{len(survivors)} survivors, expected {CLASSIFY_SURVIVORS}")
    unresolved = sum(1 for c in report.details if c.get("ok") is None)
    if unresolved:
        failed += unresolved
        notes.append(f"{unresolved} unresolved verdicts")
    found_graphs = [rk.Graph.from_graph6(s) for s in found]
    unmatched = iso_unmatched(found_graphs, inputs.families)
    if unmatched:
        failed += unmatched
        notes.append(f"{unmatched} flexible circuits differ from the constructed families")
    return max(len(survivors), CLASSIFY_SURVIVORS), failed, notes


def shard_probe(rk, inputs: ClassifyInputs, hs: HostSpeed,
                unsharded) -> tuple[dict, int, list[str]]:
    """Run the classify-d3 window as SHARDS partitions in turn and check that
    their union is the unsharded run."""
    metrics: dict[str, float] = {}
    codes: list[str] = []
    found: list[str] = []
    counts = []
    for i in range(SHARDS):
        p = classify_run(rk, inputs.seed, hs, partition=(i, SHARDS))
        _, f, survivors = p.output
        counts.append(len(survivors))
        codes += [g.to_graph6() for g in survivors]
        found += f
        metrics[f"enumeration.shard{i}_survivors"] = len(survivors)
        metrics[f"enumeration.shard{i}_s"] = p.scaled_wall
    mean = sum(counts) / SHARDS
    metrics["enumeration.shard_max_over_mean"] = max(counts) / mean if mean else 0.0
    _, whole_found, whole = unsharded
    failed, notes = 0, []
    if sorted(codes) != sorted(g.to_graph6() for g in whole):
        failed += 1
        notes.append("shard survivors differ from the unsharded survivors")
    if sorted(found) != sorted(whole_found):
        failed += 1
        notes.append("shard flexible circuits differ from the unsharded ones")
    return metrics, failed, notes


# --- oracle-mix -------------------------------------------------------------


@dataclass(frozen=True)
class OracleItem:
    kind: str
    d: int
    graph: object
    expected: bool
    seed: int


def _minimally_rigid(rk, rng: random.Random, d: int, n: int):
    """K_{d+1} grown by random 0-/1-extensions, which keep the graph
    independent with d|V| - C(d+1,2) edges; then randomly relabeled."""
    g = rk.complete_graph(d + 1)
    while g.n < n:
        if rng.random() < 0.5:
            g = rk.zero_extension(g, d, rng.sample(range(g.n), d))
        else:
            e = g.edges[rng.randrange(g.m)]
            others = [v for v in range(g.n) if v not in e]
            g = rk.one_extension(g, d, list(e) + rng.sample(others, d - 1), e)
    perm = list(range(n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _dependent(rk, rng: random.Random, d: int, n: int):
    """A minimally rigid graph plus one edge, 0-extended by a vertex that is
    relabeled 0 and joined to the d highest labels.

    The labels fix how much work the verdict takes, which otherwise varied
    by about 20% from seed to seed. A vertex of degree d lies in no circuit,
    so the first edge in edge order, (0, n-d), is outside the unique circuit
    and the per-edge fallback of is_circuit stops at that deletion. The
    deletion leaves vertex 0 with the d-1 highest labels as its neighbours,
    the last cut in the order the subset search tries them, so that search
    runs to its end."""
    h = _minimally_rigid(rk, rng, d, n - 1)
    non_edges = [e for e in itertools.combinations(range(n - 1), 2) if not h.has_edge(*e)]
    g = rk.zero_extension(h.with_edge(*rng.choice(non_edges)), d, range(n - 1 - d, n - 1))
    return g.relabel([v + 1 for v in range(n - 1)] + [0])


def oracle_setup(rk, seed: int) -> list[OracleItem]:
    """265 graphs with d = 3..7 and at most 16 vertices. The mix of
    kinds, dimensions and sizes is fixed; the seed draws the extensions, the
    added edges, the labels, the order and the oracle's random points."""
    rng = random.Random(seed)
    items = []

    def add(kind, d, g, expected):
        items.append(OracleItem(kind, d, g, expected, rng.getrandbits(32)))

    # independent (one rank) and independent plus one edge (dependent, rigid,
    # so never a flexible circuit): 24 of each per dimension
    for d in range(3, 8):
        for n in itertools.islice(itertools.cycle(range(d + 2, 17)), 24):
            add("independent", d, _minimally_rigid(rk, rng, d, n), False)
        for n in itertools.islice(itertools.cycle(range(d + 3, 17)), 24):
            add("dependent", d, _dependent(rk, rng, d, n), False)
    # flexible circuits settled by a small cut
    for d in range(3, 8):
        for t in (d - 1, d - 2):
            if t >= 2:
                add("cut-family", d, rk.build_glued_cliques(d, t).graph, True)
    for d in (3, 4):
        for c in rk.enumerate_glued_cliques_plus(d):
            add("cut-family", d, c.graph, True)
    # Monte Carlo circuits: the cone ladder over K_{6,6}, and the rigid
    # circuit K_{5,5} at d=3
    g = rk.complete_bipartite(6, 6)
    for d in range(4, 8):
        add("monte-carlo", d, g, True)
        g = rk.cone(g)
    add("monte-carlo", 3, rk.complete_bipartite(5, 5), False)
    rng.shuffle(items)
    return items


def oracle_pass(rk, items: list[OracleItem], hs: HostSpeed) -> Pass:
    out = []
    stamps = [hs.now()]
    for it in items:
        flex, _ = rk.is_flexible_circuit(it.graph, it.d, seed=it.seed)
        stamps.append(hs.now())
        out.append(flex)
    return _finish(hs, stamps, out)


def oracle_gate(rk, items: list[OracleItem], verdicts) -> tuple[int, int, list[str]]:
    wrong: dict[str, int] = {}
    for it, flex in zip(items, verdicts):
        if flex is not it.expected:  # an unresolved verdict (None) is a failure
            wrong[it.kind] = wrong.get(it.kind, 0) + 1
    failed = sum(wrong.values()) + abs(len(items) - len(verdicts))
    notes = [f"{k}: {v} wrong or unresolved" for k, v in sorted(wrong.items())]
    return len(items), failed, notes


# --- isomorphism checks independent of rigikit.canon ------------------------


def _nx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def iso_duplicates(graphs) -> int:
    """How many graphs are isomorphic to an earlier one in the list."""
    import warnings

    import networkx as nx

    # the hash only buckets graphs within this run, so its version-dependent
    # values do not matter
    warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)
    buckets: dict[str, list] = {}
    dups = 0
    for g in graphs:
        h = _nx(g)
        key = nx.weisfeiler_lehman_graph_hash(h)
        same = buckets.setdefault(key, [])
        if any(nx.is_isomorphic(h, o) for o in same):
            dups += 1
        else:
            same.append(h)
    return dups


def iso_unmatched(found, expected) -> int:
    """Graphs on either side with no isomorphic partner on the other."""
    import networkx as nx

    left = [_nx(g) for g in found]
    right = [_nx(g) for g in expected]
    unmatched = 0
    for h in left:
        j = next((j for j, o in enumerate(right) if nx.is_isomorphic(h, o)), None)
        if j is None:
            unmatched += 1
        else:
            right.pop(j)
    return unmatched + len(right)


WORKLOADS = {
    "enum-deg23": (enum_setup, enum_pass, enum_gate),
    "classify-d3": (classify_setup, classify_pass, classify_gate),
    "oracle-mix": (oracle_setup, oracle_pass, oracle_gate),
}
