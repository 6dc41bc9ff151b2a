"""causalid benchmark: one seeded workload, closed loop, one client.

Usage (from the repository root)::

    python3 bench/run.py --workload corpus|scale|nonident --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` first runs
the workload untraced for half the time, then runs the same queries again
with every layer traced, and reports the per-layer metrics together with
the tracing overhead; its spans are written to ``bench/_out/``.

Each metric is printed on its own line as ``name value unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics, step_counts  # noqa: E402

DEFAULT_SEED = wl.SPEC["default_seed"]
SETUP_REPEATS = 5
REFERENCE = HERE / "reference.json"
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import causalid.cli"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- set-up -------------------------------------------------------------------------


def import_seconds() -> float:
    """Interpreter start-up plus ``import causalid.cli`` in a fresh
    process, median of a few starts."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def prepare(workload: str, seed: int, work: Path) -> tuple[list, list[Path]]:
    """Generate the query pool, write its graph files and warm up on the
    first query."""
    pool = wl.make_pool(workload, seed)
    graphs = [gen.write_cg(q, work) for q in pool]
    wl.run_query(workload, wl.Ops(), pool[0], graphs[0], work)
    return pool, graphs


def setup(workload: str, seed: int, work: Path) -> tuple[list, list[Path], float]:
    """Set up ``SETUP_REPEATS`` times, each into a fresh directory: on
    ext4, overwriting a file forces its data out to disk on close, which
    would dominate the set-up time."""
    times = []
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh = work / f"setup{r}"
        fresh.mkdir()
        pool, graphs = prepare(workload, seed, fresh)
        times.append(time.perf_counter() - start)
    return pool, graphs, import_seconds() + statistics.median(times)


# -- measurement --------------------------------------------------------------------


def run_loop(workload, ops, pool, graphs, work, seconds=None, count=None, tracer=None):
    """Closed loop over the pool, in order and wrapping around, until
    ``seconds`` have passed or ``count`` queries have run."""
    results = []
    start = time.perf_counter()
    while True:
        i = len(results)
        q = pool[i % len(pool)]
        if tracer is None:
            results.append(wl.run_query(workload, ops, q, graphs[i % len(pool)], work))
        else:
            tracer.qid = f"{i}:{q.qid}"
            with tracer.span("query"):
                results.append(wl.run_query(workload, ops, q, graphs[i % len(pool)], work))
            if tracer.last_derivation is not None:
                unique, inlined = step_counts(tracer.last_derivation)
                tracer.steps_unique += unique
                tracer.steps_inlined += inlined
                tracer.last_derivation = None
        if count is not None and len(results) >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return results, time.perf_counter() - start


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) of a percentile."""
    xs = sorted(values)
    k = min(int(len(xs) * percentile / 100.0), len(xs) - 1)
    return xs[k], len(xs) - 1 - k


def p50_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def end_to_end(workload, results, wall, ops, setup_s) -> tuple[dict, list[str]]:
    qtimes = [r.seconds for r in results]
    tail_p = wl.SPEC["workloads"][workload]["tail_percentile"]
    tail_v, beyond = tail(qtimes, tail_p)
    wrote = [r.derivation_bytes for r in results if r.derivation_bytes]
    certs = [r for r in results if r.verdict is False]
    m = {
        "queries_per_s": len(results) / wall,
        "query_p50_ms": p50_ms(qtimes),
        "query_tail_ms": 1000.0 * tail_v,
        "identify_p50_ms": p50_ms(ops.times["identify"]),
        "derive_p50_ms": p50_ms(ops.times["derive"]),
        "check_p50_ms": p50_ms(ops.times["check"]),
        "oracle_p50_ms": p50_ms(ops.times["oracle"]),
        "derivation_mb": statistics.median(wrote) / 1e6 if wrote else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "fail_ratio": ops.failed / max(ops.attempted, 1),
        "certificate_rate": (sum(r.certificate for r in certs) / len(certs)) if certs else 0.0,
    }
    notes = [f"query_tail_ms is p{tail_p:g} of {len(qtimes)} queries, {beyond} beyond it"]
    return m, notes


def measure(workload, seed, seconds, trace, work) -> tuple[dict, dict, wl.Ops, list[str]]:
    pool, graphs, setup_s = setup(workload, seed, work)
    work = graphs[0].parent  # the last set-up's directory
    reference = {}
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(workload, {})
    ops = wl.Ops(reference=reference)
    if not trace:
        results, wall = run_loop(workload, ops, pool, graphs, work, seconds=seconds)
        metrics, notes = end_to_end(workload, results, wall, ops, setup_s)
        return metrics, {}, ops, notes

    results, wall = run_loop(workload, ops, pool, graphs, work, seconds=seconds / 2)
    metrics, notes = end_to_end(workload, results, wall, ops, setup_s)
    tracer = Tracer()
    tracer.install()
    ops.tracer = tracer
    try:
        traced_results, traced_wall = run_loop(workload, ops, pool, graphs, work,
                                               count=len(results), tracer=tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, len(traced_results), {
        "ident.unidentifiable": tracer.unidentifiable,
        "docalc.steps_unique": tracer.steps_unique,
        "docalc.steps_inlined": tracer.steps_inlined,
    })
    layers["trace.overhead_ratio"] = traced_wall / wall
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    dump = {"workload": workload, "seed": seed, "queries": len(traced_results),
            "metrics": layers, "end_to_end": metrics,
            "spans": [list(s) for s in tracer.spans]}
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(dump))
    return metrics, layers, ops, notes


def write_reference(work: Path) -> None:
    """Record verdicts and estimand hashes of the default seed's pools."""
    ref = {}
    for workload in wl.WORKLOADS:
        pool = wl.make_pool(workload, DEFAULT_SEED)
        ops = wl.Ops()
        ref[workload] = {}
        for q in pool:
            res = wl.QueryResult(q.qid, 0.0)
            ops.identify(q.qid, gen.write_cg(q, work), q, res)
            ref[workload][q.qid] = [res.verdict, res.estimand_sha]
        if ops.failed:
            sys.exit(f"error: identify failed while recording: {ops.failures}")
    blocks = []
    for workload, entries in ref.items():
        rows = ",\n".join(f"  {json.dumps(qid)}: {json.dumps(v)}" for qid, v in entries.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")  # one query a line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's verdicts and estimands")
    args = parser.parse_args(argv)
    if not (SRC / "causalid" / "cli.py").is_file():
        sys.exit(f"error: no causalid sources under {SRC}")

    spec = load_spec()
    work = HERE / "_work" / f"{args.workload or 'reference'}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            write_reference(work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        metrics, layers, ops, notes = measure(args.workload, args.seed, args.seconds,
                                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {**metrics, **layers}
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units.get(name, '')}".rstrip())
    for line in notes + [f"failure: {f}" for f in ops.failures[:20]]:
        print(line)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
