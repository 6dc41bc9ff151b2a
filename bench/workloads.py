"""Workloads: their fixed inputs, query pools and per-query command
sequences, with the correctness gate behind ``fail_ratio``.

Every command runs in-process through ``causalid.cli.main`` with its
standard output captured, so a command's time is what a CLI user sees
minus interpreter start-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen

# Fixed inputs of each workload.  Changing any of them changes the
# benchmark, not the program.
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
CORPUS = SPEC["workloads"]["corpus"]["inputs"]
SCALE = SPEC["workloads"]["scale"]["inputs"]
NONIDENT = SPEC["workloads"]["nonident"]["inputs"]
WORKLOADS = tuple(SPEC["workloads"])


@dataclass
class Command:
    code: int | None  # None when the command raised
    out: str
    seconds: float
    error: str = ""


@dataclass
class QueryResult:
    qid: str
    seconds: float
    verdict: bool | None = None
    estimand_sha: str | None = None
    derivation_bytes: int = 0
    certificate: bool = False


@dataclass
class Ops:
    """Runs commands, applies the correctness gate and keeps the counts.

    ``reference`` maps query ids to the (verdict, estimand hash) recorded
    at the seed commit for the default seed; it is empty for other seeds.
    """

    tracer: object = None
    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0  # seconds spent inside commands
    times: dict = field(default_factory=lambda: {
        "identify": [], "derive": [], "check": [], "oracle": []})
    failures: list = field(default_factory=list)

    def run(self, kind: str, argv: list[str]) -> Command:
        out, err = io.StringIO(), io.StringIO()
        from causalid import cli

        span = self.tracer.span(f"cli.{kind}") if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation, not a crash
                code = None
                err.write(traceback.format_exc())
        seconds = perf_counter() - start
        self.busy += seconds
        self.attempted += 1
        self.times[kind].append(seconds)
        return Command(code, out.getvalue(), seconds, err.getvalue())

    def fail(self, qid: str, what: str, cmd: Command | None = None) -> None:
        self.failed += 1
        detail = "" if cmd is None else f" (exit {cmd.code}) {cmd.error.strip()[-300:]}"
        self.failures.append(f"{qid}: {what}{detail}")

    # -- commands with their gate ---------------------------------------------

    def identify(self, qid: str, graph: Path, q: gen.Query, res: QueryResult) -> bool | None:
        cmd = self.run("identify", ["identify", "--graph", str(graph), "--do", *q.do,
                                    "--on", *q.on, "--json"])
        if cmd.code not in (0, 2):
            self.fail(qid, "identify did not reach a verdict", cmd)
            return None
        data = json.loads(cmd.out)
        res.verdict = bool(data["identifiable"])
        if res.verdict != (cmd.code == 0):
            self.fail(qid, "identify exit code contradicts its verdict", cmd)
            return None
        if res.verdict:
            blob = json.dumps(data["estimand"], sort_keys=True).encode()
            res.estimand_sha = hashlib.sha256(blob).hexdigest()[:16]
        want = self.reference.get(q.qid)
        if want is not None and want != [res.verdict, res.estimand_sha]:
            self.fail(qid, f"verdict/estimand {[res.verdict, res.estimand_sha]} "
                           f"differs from reference {want}")
            return None
        return res.verdict

    def derive(self, qid: str, graph: Path, q: gen.Query, out: Path,
               expect: bool, res: QueryResult) -> bool:
        cmd = self.run("derive", ["derive", "--graph", str(graph), "--do", *q.do,
                                  "--on", *q.on, "--out", str(out), "--json"])
        if cmd.code not in (0, 2):
            self.fail(qid, "derive failed", cmd)
            return False
        if (cmd.code == 0) != expect:
            self.fail(qid, "identify and derive disagree on the verdict", cmd)
            return False
        if expect:
            if not out.is_file():
                self.fail(qid, "derive wrote no derivation file", cmd)
                return False
            res.derivation_bytes += out.stat().st_size
        return True

    def check(self, qid: str, path: Path, models: int) -> bool:
        cmd = self.run("check", ["check", "--derivation", str(path),
                                 "--models", str(models), "--json"])
        if cmd.code != 0 or not json.loads(cmd.out)["accepted"]:
            self.fail(qid, "check rejected the derivation", cmd)
            return False
        return True

    def oracle_verify(self, qid: str, graph: Path, q: gen.Query, trials: int) -> bool:
        cmd = self.run("oracle", ["oracle", "verify", "--graph", str(graph), "--do", *q.do,
                                  "--on", *q.on, "--trials", str(trials), "--seed", "0",
                                  "--json"])
        if cmd.code != 0 or not json.loads(cmd.out)["report"]["all_passed"]:
            self.fail(qid, "oracle verify did not pass", cmd)
            return False
        return True

    def witness(self, qid: str, graph: Path, q: gen.Query, budget: int,
                res: QueryResult) -> bool:
        cmd = self.run("oracle", ["oracle", "witness", "--graph", str(graph), "--do", *q.do,
                                  "--on", *q.on, "--budget", str(budget), "--seed", "0",
                                  "--json"])
        if cmd.code != 0:
            self.fail(qid, "oracle witness failed", cmd)
            return False
        res.certificate = bool(json.loads(cmd.out)["found"])
        return True


# -- query pools -----------------------------------------------------------------


def _is_identifiable(q: gen.Query) -> bool:
    from causalid.graph import parse_graph_text
    from causalid.ident import causal_effect

    return causal_effect(q.do, q.on, parse_graph_text(q.graph.text())).identifiable


def make_pool(workload: str, seed: int) -> list[gen.Query]:
    """The workload's queries for ``seed``.  The nonident pool keeps the
    draws that ``causal_effect`` finds non-identifiable, so it follows the
    program's verdicts; the reference check on the default seed catches a
    verdict that changes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "corpus":
        sizes = gen.CORPUS_SIZES
        return [gen.corpus_query(rng, f"c{i:04d}", sizes[i % len(sizes)])
                for i in range(CORPUS["pool"])]
    if workload == "scale":
        strata = SCALE["strata"]
        return [gen.scale_query(rng, f"s{i:04d}", SCALE["observables"], SCALE["window"],
                                SCALE["latent_children"], strata[i % len(strata)])
                for i in range(SCALE["pool"])]
    if workload == "nonident":
        # Without latents every query is identifiable.
        sizes = [size for size in gen.CORPUS_SIZES if size[1] > 0]
        pool = [gen.bow_query("n0000")]
        while len(pool) < NONIDENT["pool"]:
            size = sizes[len(pool) % len(sizes)]
            q = gen.corpus_query(rng, f"n{len(pool):04d}", size)
            while _is_identifiable(q):
                q = gen.corpus_query(rng, q.qid, size)
            pool.append(q)
        return pool
    raise ValueError(f"unknown workload {workload!r}")


# -- one query ----------------------------------------------------------------------


def run_query(workload: str, ops: Ops, q: gen.Query, graph: Path, work: Path) -> QueryResult:
    """The workload's command sequence for one query; the query's time is
    the sum of its commands' times."""
    res = QueryResult(q.qid, 0.0)
    out = work / f"{q.qid}.json"
    busy = ops.busy
    verdict = ops.identify(q.qid, graph, q, res)
    if workload == "nonident":
        if verdict is True:
            ops.fail(q.qid, "a non-identifiable query was found identifiable")
        elif verdict is False:
            ops.derive(q.qid, graph, q, out, False, res)
            ops.witness(q.qid, graph, q, NONIDENT["witness_budget"], res)
    elif verdict:
        cfg = CORPUS if workload == "corpus" else SCALE
        if ops.derive(q.qid, graph, q, out, True, res):
            ops.check(q.qid, out, cfg["check_models"])
        # A fresh file per derive: overwriting one forces a flush on ext4.
        out.unlink(missing_ok=True)
        if workload == "corpus":
            ops.oracle_verify(q.qid, graph, q, CORPUS["oracle_trials"])
    res.seconds = ops.busy - busy
    return res
