"""The default-seed ``corpus`` and ``scale`` estimands match
``bench/reference.json``.

The benchmark fails a query whose verdict or estimand hash differs from
that file; this test recomputes both the same way (``identify --json``, the
sha256 of the sorted-key ``estimand`` JSON cut to 16 characters), so that a
drift in the normal form fails here and not only as a benchmark
``fail_ratio``.  It reads the reference file and writes nothing beside it.
"""

import contextlib
import hashlib
import io
import json

import gen
import pytest
import workloads as wl

from causalid.cli import main

from conftest import BENCH


def identify_hash(q: gen.Query, graph) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["identify", "--graph", str(graph), "--do", *q.do, "--on", *q.on,
                     "--json"])
    assert code in (0, 2), q.qid
    data = json.loads(out.getvalue())
    if not data["identifiable"]:
        return [False, None]
    blob = json.dumps(data["estimand"], sort_keys=True).encode()
    return [True, hashlib.sha256(blob).hexdigest()[:16]]


@pytest.mark.parametrize("workload", ["corpus", "scale"])
def test_default_seed_estimands_match_reference(workload, tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    pool = wl.make_pool(workload, wl.SPEC["default_seed"])
    assert [q.qid for q in pool] == list(reference)
    got = {q.qid: identify_hash(q, gen.write_cg(q, tmp_path)) for q in pool}
    differ = [qid for qid in reference if got[qid] != reference[qid]]
    assert not differ, f"{len(differ)} queries differ, first {differ[:5]}"
