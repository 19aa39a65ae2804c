"""Command-line interface.

Subcommands: rank, check, family, op, enumerate, verify. Graph I/O is
graph6, one graph per line, on stdin/stdout or files. Exit codes: 0 pass,
1 fail, 2 unresolved, 3 usage error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterator, Optional

from . import __version__
from .constructions import (
    LabeledConstruction,
    build_glued_cliques,
    cone,
    enumerate_glued_cliques_plus,
    one_extension,
    t_sum,
    two_sum,
    vertex_split,
    zero_extension,
)
from .enumeration import SearchSpec, enumerate_constrained
from .graph import Graph, complement, complete_bipartite, complete_graph, contract_edge
from .rigidity import (
    DEFAULT_TRIALS,
    MatroidVerdict,
    generic_rank,
    is_circuit,
    is_flexible_circuit,
    is_independent,
    is_rigid,
)
from .verify import CLAIMS, SHARDED, default_seed, run_all

EXIT_PASS, EXIT_FAIL, EXIT_UNRESOLVED, EXIT_USAGE = 0, 1, 2, 3
EXIT_SIGPIPE = 128 + 13  # stdout closed by its reader
_MAX_COORDINATES = 1000  # d*|V| per point; the scales in scope stay near 150
# points per verdict: under the coordinate limit each point at the default
# prime multiplies the failure bound by less than 2^-52, so 21 points take it
# below the least positive double and no threshold tells more points apart
_MAX_TRIALS = 64


class _ArgumentParser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE, not argparse's 2, on a rejected command line."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graphs(path: Optional[str]) -> Iterator[Graph]:
    source = nullcontext(sys.stdin) if path in (None, "-") else open(path)
    with source as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield Graph.from_graph6(line)


def _oracle_graphs(args) -> Iterator[Graph]:
    """The input of `rank` and `check`, refused before a point is drawn."""
    for g in _read_graphs(args.input):
        if args.dim * g.n > _MAX_COORDINATES:
            raise ValueError(f"d*|V| = {args.dim}*{g.n} exceeds {_MAX_COORDINATES}")
        yield g


def _parse_partition(text: str) -> tuple[int, int]:
    try:
        i, m = text.split("/")
        return int(i), int(m)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected i/m, got {text!r}") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


_WORD = {True: "yes", False: "no", None: "unresolved"}


def _verdict_line(g: Graph, v: MatroidVerdict) -> str:
    """A verdict as one readable line, for `--format text`."""
    flags = " ".join(f"{k}={_WORD[x]}" for k, x in v.flags().items())
    return (f"{g.to_graph6()} d={v.d} rank>={v.rank_lb} count<={v.count_ub} "
            f"{flags} certificate={v.certificate.kind}")


def _oracle_options(args) -> dict:
    """The oracle's keywords for `rank` and `check`, refused before a graph
    is read."""
    if args.trials > _MAX_TRIALS:
        raise ValueError(f"--trials {args.trials} exceeds {_MAX_TRIALS}")
    kw = {"trials": args.trials,
          "seed": default_seed() if args.seed is None else args.seed}
    if args.threshold is not None:
        kw["threshold"] = args.threshold
    return kw


def main(argv: Optional[list[str]] = None) -> int:
    ap = _ArgumentParser(prog="rigikit", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--dim", "-d", type=int, default=3, help="matroid dimension d")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--threshold", type=float, default=None,
                       help="Monte Carlo failure bound above which claims are unresolved")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--input", "-i", default=None, help="graph6 file (default stdin)")

    p_rank = sub.add_parser("rank", help="generic rank verdicts for graph6 input")
    add_common(p_rank)

    p_check = sub.add_parser("check", help="decide a matroid predicate")
    p_check.add_argument("predicate",
                         choices=("independent", "rigid", "circuit", "flexible-circuit"))
    add_common(p_check)

    p_fam = sub.add_parser("family", help="emit a named family with its role map")
    p_fam.add_argument("name", choices=("glued-cliques", "glued-cliques-plus",
                                        "complete", "complete-bipartite"))
    p_fam.add_argument("--dim", "-d", type=int, default=3)
    p_fam.add_argument("--overlap", "-t", type=int, default=None)
    p_fam.add_argument("--n", type=int, default=None)
    p_fam.add_argument("--parts", type=int, nargs=2, default=None)
    p_fam.add_argument("--format", choices=("json", "g6"), default="json")

    p_op = sub.add_parser("op", help="apply a graph operation to graph6 input")
    p_op.add_argument("name", choices=("cone", "zero-extension", "one-extension",
                                       "vertex-split", "two-sum", "t-sum",
                                       "complement", "contract"))
    p_op.add_argument("--dim", "-d", type=int, default=3)
    p_op.add_argument("--neighbors", type=int, nargs="*", default=None)
    p_op.add_argument("--removed", type=int, nargs=2, default=None)
    p_op.add_argument("--vertex", type=int, default=None)
    p_op.add_argument("--hinge", type=int, nargs="*", default=None)
    p_op.add_argument("--part1", type=int, nargs="*", default=[])
    p_op.add_argument("--shared", type=int, nargs="*", default=None)
    p_op.add_argument("--edge", type=int, nargs=2, default=None)
    p_op.add_argument("--input", "-i", default=None)

    p_enum = sub.add_parser("enumerate", help="stream graph6 classes under constraints")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--regular", type=int, default=None, metavar="k",
                        help="shorthand for the k-regular window; combines with the filters")
    p_enum.add_argument("--degree-min", type=int, default=None)
    p_enum.add_argument("--degree-max", type=int, default=None)
    p_enum.add_argument("--edge-min", type=int, default=None)
    p_enum.add_argument("--edge-max", type=int, default=None)
    p_enum.add_argument("--sparse", type=int, default=None, help="d-sparsity filter")
    p_enum.add_argument("--connectivity", type=int, default=None)
    p_enum.add_argument("--partition", type=_parse_partition, default=(0, 1),
                        metavar="i/m")

    p_ver = sub.add_parser("verify", help="reproduce a computational claim")
    p_ver.add_argument("claim", choices=(*CLAIMS, "all"))
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--partition", type=_parse_partition, default=(0, 1),
                       metavar="i/m",
                       help=f"run shard i of m; only {', '.join(SHARDED)} split")
    p_ver.add_argument("--format", choices=("json", "text"), default="json")
    p_ver.add_argument("--out", default=None, help="write the JSON report here")

    args = ap.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed stdout shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader stopped reading, which is no usage error: point stdout
        # at devnull so the interpreter's last flush stays silent, and exit
        # as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.cmd == "rank":
        kw = _oracle_options(args)
        for g in _oracle_graphs(args):
            v = generic_rank(g, args.dim, **kw)
            if args.format == "text":
                print(_verdict_line(g, v))
            else:
                _emit(v.to_json(g))
        return EXIT_PASS

    if args.cmd == "check":
        fn = {"independent": is_independent, "rigid": is_rigid,
              "circuit": is_circuit, "flexible-circuit": is_flexible_circuit}[args.predicate]
        kw = _oracle_options(args)
        worst = EXIT_PASS
        for g in _oracle_graphs(args):
            verdict, v = fn(g, args.dim, **kw)
            if args.format == "text":
                print(f"{args.predicate}={_WORD[verdict]} {_verdict_line(g, v)}")
            else:
                _emit({"predicate": args.predicate, "value": verdict, **v.to_json(g)})
            if verdict is None:
                worst = max(worst, EXIT_UNRESOLVED)
        return worst

    if args.cmd == "family":
        return _family(args)

    if args.cmd == "op":
        return _op(args)

    if args.cmd == "enumerate":
        # every line is graph6, which holds at most 62 vertices, so a larger
        # n is refused before the generator runs
        if args.n > 62:
            raise ValueError(f"enumerate --n {args.n}: graph6 holds at most 62 vertices")
        if args.regular is not None:
            if {args.degree_min, args.degree_max, args.edge_min, args.edge_max} != {None}:
                raise ValueError("--regular sets the degree and edge window")
            args.degree_min = args.degree_max = args.regular
        spec = SearchSpec(n=args.n, degree_min=args.degree_min or 0,
                          degree_max=args.degree_max, edge_min=args.edge_min or 0,
                          edge_max=args.edge_max, d_sparse_filter=args.sparse,
                          connectivity_min=args.connectivity)
        for g in enumerate_constrained(spec, partition=args.partition):
            print(g.to_graph6())
        return EXIT_PASS

    if args.cmd == "verify":
        return _verify(args)

    return EXIT_USAGE


def _family(args) -> int:
    # every family prints as graph6, which holds at most 62 vertices, so a
    # larger n is refused before anything is built
    if args.name == "glued-cliques":
        t = args.overlap if args.overlap is not None else args.dim - 1
        n, build = 2 * (args.dim + 2) - t, lambda: [build_glued_cliques(args.dim, t)]
    elif args.name == "glued-cliques-plus":
        n, build = args.dim + 6, lambda: enumerate_glued_cliques_plus(args.dim)
    elif args.name == "complete":
        if args.n is None:
            raise ValueError("complete needs --n")
        n, build = args.n, lambda: [LabeledConstruction(complete_graph(args.n))]
    else:
        if args.parts is None:
            raise ValueError("complete-bipartite needs --parts s t")
        n, build = sum(args.parts), lambda: [LabeledConstruction(complete_bipartite(*args.parts))]
    if n > 62:
        raise ValueError(f"{args.name} would have {n} vertices; graph6 holds at most 62")
    out = build()
    for c in out:
        if args.format == "g6":
            print(c.graph.to_graph6())
        else:
            print(json.dumps({"graph6": c.graph.to_graph6(), "roles": c.role_json()},
                             sort_keys=True))
    return EXIT_PASS


# the flags each operation needs, checked before any input is read
_OP_FLAGS = {
    "contract": ("edge",),
    "zero-extension": ("neighbors",),
    "one-extension": ("neighbors", "removed"),
    "vertex-split": ("vertex", "hinge"),
    "two-sum": ("edge",),
    "t-sum": ("shared", "edge"),
}


def _op(args) -> int:
    name = args.name
    missing = [f"--{flag}" for flag in _OP_FLAGS.get(name, ()) if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{name} needs {' and '.join(missing)}")
    graphs = list(_read_graphs(args.input))
    if not graphs:
        raise ValueError("no input graphs")
    if name in ("two-sum", "t-sum") and len(graphs) < 2:
        raise ValueError(f"{name} needs two input graphs")
    g = graphs[0]
    if name == "cone":
        result = cone(g)
    elif name == "complement":
        result = complement(g)
    elif name == "contract":
        result = contract_edge(g, *args.edge)
    elif name == "zero-extension":
        result = zero_extension(g, args.dim, args.neighbors)
    elif name == "one-extension":
        result = one_extension(g, args.dim, args.neighbors, tuple(args.removed))
    elif name == "vertex-split":
        result = vertex_split(g, args.dim, args.vertex, args.hinge, args.part1)
    elif name == "two-sum":
        result = two_sum(graphs[0], graphs[1], *args.edge).graph
    else:  # t-sum
        result = t_sum(graphs[0], graphs[1], args.shared, tuple(args.edge)).graph
    print(result.to_graph6())
    return EXIT_PASS


def _verify(args) -> int:
    if args.partition != (0, 1) and args.claim not in SHARDED:
        raise ValueError(f"--partition splits only {', '.join(SHARDED)}; "
                         f"{args.claim} runs whole")
    # "a" opens without truncating: a bad path fails at once, a failed claim keeps the old file
    with open(args.out, "a") if args.out else nullcontext() as fh:
        reports = (run_all(seed=args.seed) if args.claim == "all"
                   else [CLAIMS[args.claim](args.seed, args.partition)])
        if fh is not None:
            fh.truncate(0)
            payload = [r.to_json() for r in reports]
            json.dump(payload if len(payload) > 1 else payload[0], fh, indent=2, sort_keys=True)
    for r in reports:
        if args.format == "text":
            print(f"{r.claim}: {r.status} ({r.instances} instances, "
                  f"{r.wall_time_s}s, seed {r.seed})")
        else:
            print(json.dumps(r.to_json(), sort_keys=True))
    return max(r.exit_code() for r in reports)


if __name__ == "__main__":
    sys.exit(main())
