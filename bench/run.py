#!/usr/bin/env python3
"""rigikit benchmark: enumeration, classification and oracle workloads.

Run from the repository root; the library is imported from ./src, so nothing
needs installing beyond networkx, which the correctness gates use.

    python3 bench/run.py --workload enum-deg23 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all        # every workload, fresh process each
    python3 bench/run.py --check-determinism   # per-layer counts repeat exactly
    python3 bench/run.py --write-spec          # regenerate BENCHMARK.json

With --trace 0 a run prints the end-to-end metrics; with --trace 1 it prints
the per-layer metrics of a traced pass (see bench/METRICS.md). The line
before the result records the seed, Python version, nproc, git commit and
any gate notes. The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from hostspeed import HostSpeed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

RUN_SECONDS = 25
# a fixed count: every import leaves some memory behind, so peak RSS
# follows the number of set-ups
SETUP_REPEATS = 9
HELD_OUT_SEED = 918273

WORKLOAD_WHY = {
    "enum-deg23": "orderly generation of sparse graphs, n=11, degrees 2-3: "
                  "canonical labeling and the generator only, the oracle is never called",
    "classify-d3": "the paper's headline claim: d=3 flexible-circuit classification, "
                   "n<=9; complement branch, sparsity filter and one verdict per survivor",
    "oracle-mix": "265 seeded verdicts, d=3..7, n<=16, over four certificate paths: "
                  "rank, sparsity and null space, small cut, subset search; never canonizes",
}

# (name, unit, bound): every end-to-end metric is better when lower
END_TO_END = [
    ("wall_s", "s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("op_p95_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("setup_s", "s", 0.25),
]

# (name, unit, better, groups the metric reads); see bench/METRICS.md
PER_LAYER = [
    ("canon.calls", "count", "lower", {"canon"}),
    ("canon.self_s", "s", "lower", {"canon"}),
    ("canon.us_per_call", "us", "lower", {"canon"}),
    ("enumeration.classes", "count", "higher", {"enumeration"}),
    ("enumeration.self_s", "s", "lower", {"enumeration"}),
    ("enumeration.canon_per_class", "ratio", "lower", {"canon", "enumeration"}),
    ("enumeration.decode_s", "s", "lower", {"decode"}),
    ("enumeration.filter_calls", "count", "lower", {"filter"}),
    ("enumeration.filter_s", "s", "lower", {"filter"}),
    ("enumeration.shard_max_over_mean", "ratio", "lower", set()),
    ("linalg.rank_calls", "count", "lower", {"rank"}),
    ("linalg.rank_s", "s", "lower", {"rank"}),
    ("linalg.null_calls", "count", "lower", {"null"}),
    ("linalg.null_s", "s", "lower", {"null"}),
    ("linalg.us_per_rank", "us", "lower", {"rank"}),
    ("rigidity.verdicts", "count", "higher", {"rigidity"}),
    ("rigidity.matrix_calls", "count", "lower", {"matrix"}),
    ("rigidity.matrix_s", "s", "lower", {"matrix"}),
    ("rigidity.sparsity_calls", "count", "lower", {"sparsity"}),
    ("rigidity.sparsity_s", "s", "lower", {"sparsity"}),
    ("rigidity.cut_calls", "count", "lower", {"cut"}),
    ("rigidity.cut_s", "s", "lower", {"cut"}),
    ("rigidity.evals_per_verdict", "ratio", "lower", {"rank", "null", "rigidity"}),
    ("rigidity.facts_per_verdict", "ratio", "lower", {"sparsity", "cut", "rigidity"}),
    ("rigidity.self_s", "s", "lower", {"rigidity"}),
    ("verify.self_s", "s", "lower", {"verify"}),
    ("verify.survivors", "count", "higher", set()),
    ("trace.overhead_pct", "%", "lower", set()),
    ("trace.spans", "count", "lower", set()),
]

# per-layer metrics that are exact counts or ratios of counts: they must
# repeat exactly for the same code and seed
DETERMINISTIC = [n for n, unit, _, _ in PER_LAYER if unit in ("count", "ratio")]


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def load_library():
    """Import rigikit afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "rigikit" or m.startswith("rigikit.")]:
        del sys.modules[name]
    importlib.import_module("rigikit.verify")
    return sys.modules["rigikit"]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(xs: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    setup, run_pass, gate = workloads.WORKLOADS[name]
    info: dict = {
        "workload": name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    setup_times = []
    passes = []
    probe_failed, notes = 0, []
    with HostSpeed() as hs:
        for _ in range(SETUP_REPEATS):
            t0 = hs.now()
            rk = load_library()
            inputs = setup(rk, seed)
            setup_times.append(hs.scaled(t0, hs.now()))
        if not trace:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(rk, inputs, hs))
                if time.perf_counter() - start + passes[-1].wall > seconds:
                    break
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            passes.append(run_pass(rk, inputs, hs))  # untraced, for the overhead
            tracer = Tracer(clock=hs.now)
            tracer.install()
            try:
                passes.append(run_pass(rk, inputs, hs))
            finally:
                tracer.uninstall()
            if name == "classify-d3":
                shard_metrics, probe_failed, notes = workloads.shard_probe(
                    rk, inputs, hs, passes[0].output)
                info["shards"] = shard_metrics

    attempted = failed = 0
    for p in passes:
        a, f, n = gate(rk, inputs, p.output)
        attempted += a
        failed += f
        notes += [x for x in n if x not in notes]
    failed += probe_failed
    latencies = [x for p in passes for x in p.latencies]
    info.update(passes=len(passes), op_samples=len(latencies),
                error_rate=failed / attempted, notes=notes,
                unscaled_wall_s=[p.wall for p in passes],
                host_speed=statistics.fmean(hostspeed.REF_NOMINAL / r for r in hs.durations),
                reference_samples=len(hs.durations))

    if not trace:
        metrics = {
            "wall_s": statistics.median(p.scaled_wall for p in passes),
            "op_p50_ms": quantile(latencies, 50) * 1e3,
            "op_p95_ms": quantile(latencies, 95) * 1e3,
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = {n: u for n, u, _ in END_TO_END}
    else:
        values = layer_values(tracer, passes[0], passes[1], name, info.get("shards", {}))
        present = set(tracer.groups)
        absent = [n for n, _, _, groups in PER_LAYER if not groups <= present]
        metrics = {n: values[n] for n, _, _, _ in PER_LAYER if n not in absent}
        units = {n: u for n, u, _, _ in PER_LAYER}
        info.update(absent_names=tracer.absent, absent_metrics=absent)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{name}-{seed}.txt"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))

    print("info: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_values(tracer: Tracer, base, traced, name: str, shards: dict) -> dict:
    s = tracer.summarize()
    scale = traced.scaled_wall / traced.wall  # span times to nominal host speed

    def get(group: str, key: str) -> float:
        v = s.get(group, {}).get(key, 0)
        return v if key == "calls" else v * scale

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    canon_calls = get("canon", "calls")
    classes = tracer.yields["enumeration"]
    verdicts = get("rigidity", "calls")
    rank_calls, null_calls = get("rank", "calls"), get("null", "calls")
    return {
        "canon.calls": canon_calls,
        "canon.self_s": get("canon", "self"),
        "canon.us_per_call": ratio(get("canon", "time"), canon_calls) * 1e6,
        "enumeration.classes": classes,
        "enumeration.self_s": get("enumeration", "self"),
        "enumeration.canon_per_class": ratio(canon_calls, classes),
        "enumeration.decode_s": get("decode", "time"),
        "enumeration.filter_calls": get("filter", "calls"),
        "enumeration.filter_s": get("filter", "time"),
        "enumeration.shard_max_over_mean": shards.get("enumeration.shard_max_over_mean", 0.0),
        "linalg.rank_calls": rank_calls,
        "linalg.rank_s": get("rank", "time"),
        "linalg.null_calls": null_calls,
        "linalg.null_s": get("null", "time"),
        "linalg.us_per_rank": ratio(get("rank", "time"), rank_calls) * 1e6,
        "rigidity.verdicts": verdicts,
        "rigidity.matrix_calls": get("matrix", "calls"),
        "rigidity.matrix_s": get("matrix", "time"),
        "rigidity.sparsity_calls": get("sparsity", "calls"),
        "rigidity.sparsity_s": get("sparsity", "time"),
        "rigidity.cut_calls": get("cut", "calls"),
        "rigidity.cut_s": get("cut", "time"),
        "rigidity.evals_per_verdict": ratio(rank_calls + null_calls, verdicts),
        "rigidity.facts_per_verdict": ratio(
            get("sparsity", "calls") + get("cut", "calls"), verdicts),
        "rigidity.self_s": get("rigidity", "self"),
        "verify.self_s": get("verify", "self"),
        "verify.survivors": len(traced.output[2]) if name == "classify-d3" else 0,
        "trace.overhead_pct": (traced.scaled_wall - base.scaled_wall) / base.scaled_wall * 100,
        "trace.spans": len(tracer.spans),
    }


def child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; return its info and result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-2][len("info: "):]), json.loads(lines[-1])


def run_all(seed: int, seconds: int, trace: int) -> int:
    ok = True
    for w in workloads.WORKLOADS:
        info, res = child(w, seed, seconds, trace)
        ok = ok and res["correct"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} error_rate={info['error_rate']:.4g}")
        for n, m in res["metrics"].items():
            print(f"  {n:34s} {m['value']:14.6g} {m['unit']}")
        for note in info["notes"]:
            print(f"  note: {note}")
    return 0 if ok else 1


def check_determinism(seed: int, seconds: int) -> int:
    """Run each workload's traced run twice on the seed and twice on the
    held-out seed, each in a fresh process, and compare every count."""
    differences = 0
    for w in workloads.WORKLOADS:
        for s in (seed, HELD_OUT_SEED):
            runs = [child(w, s, seconds, 1)[1]["metrics"] for _ in range(2)]
            for n in DETERMINISTIC:
                a, b = (r.get(n, {}).get("value") for r in runs)
                if a != b:
                    differences += 1
                    print(f"NONDETERMINISTIC {w} seed {s} {n}: {a} != {b}")
            print(f"{w} seed {s}: " + ", ".join(
                f"{n}={runs[0][n]['value']:g}" for n in DETERMINISTIC if n in runs[0]))
    print("counts repeat exactly" if not differences else f"{differences} differences")
    return 0 if not differences else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (SRC / "rigikit" / "__init__.py").is_file():
        print(f"no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.check_determinism:
        return check_determinism(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
