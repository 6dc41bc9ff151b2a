"""End-to-end CLI behaviour: subcommands, exit codes, and determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalid
from causalid import cli
from causalid.cli import main

from conftest import random_dag

BOW = """\
node X obs
node Y obs
node U lat
edge X Y
edge U X
edge U Y
"""

# The failing pair of P_X(C, Y) is ({R, C}, {X, R, W, C}).  Every directed
# path from its forest root R into the outcome passes through W, so its
# parity pair cannot be built; that of the smaller hedge ({R, C}, {X, R, C})
# can.
LIFT = """\
node X obs
node R obs
node W obs
node C obs
node Y obs
node U1 lat
node U2 lat
node U3 lat
edge X R
edge R W
edge W C
edge W Y
edge U1 R
edge U1 C
edge U2 W
edge U2 X
edge U3 X
edge U3 R
"""

FRONTDOOR = """\
node X obs
node Z obs
node Y obs
node U lat
edge X Z
edge Z Y
edge U X
edge U Y
"""

BACKDOOR = """\
node Z obs
node X obs
node Y obs
edge Z X
edge Z Y
edge X Y
"""


@pytest.fixture
def graphs(tmp_path):
    paths = {}
    for name, text in [("bow", BOW), ("fd", FRONTDOOR), ("bd", BACKDOOR), ("lift", LIFT)]:
        p = tmp_path / f"{name}.cg"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestIdentify:
    def test_frontdoor_exit_zero(self, graphs, capsys):
        code = main(["identify", "--graph", graphs["fd"], "--do", "X", "--on", "Y"])
        assert code == 0
        assert "identifiable" in capsys.readouterr().out

    def test_bow_exit_two(self, graphs, capsys):
        code = main(["identify", "--graph", graphs["bow"], "--do", "X", "--on", "Y"])
        assert code == 2
        assert "not identifiable" in capsys.readouterr().out

    def test_unknown_node_exit_one(self, graphs, capsys):
        code = main(["identify", "--graph", graphs["bd"], "--do", "Q", "--on", "Y"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_json_output_parses(self, graphs, capsys):
        code = main(
            ["identify", "--graph", graphs["fd"], "--do", "X", "--on", "Y", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identifiable"] is True
        assert data["estimand"]["kind"] in ("sum", "product", "quotient", "marginal")

    def test_deterministic_output(self, graphs, capsys):
        main(["identify", "--graph", graphs["fd"], "--do", "X", "--on", "Y", "--json"])
        first = capsys.readouterr().out
        main(["identify", "--graph", graphs["fd"], "--do", "X", "--on", "Y", "--json"])
        assert capsys.readouterr().out == first


class TestDeriveAndCheck:
    def test_round_trip(self, graphs, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = main(
            ["derive", "--graph", graphs["bd"], "--do", "X", "--on", "Y",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["check", "--derivation", str(out), "--models", "2"])
        assert code == 0
        assert "accepted" in capsys.readouterr().out

    def test_tampered_derivation_exit_three(self, graphs, tmp_path, capsys):
        out = tmp_path / "d.json"
        main(["derive", "--graph", graphs["bd"], "--do", "X", "--on", "Y",
              "--out", str(out)])
        data = json.loads(out.read_text())
        data["steps"][0]["after"] = data["steps"][0]["before"]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["check", "--derivation", str(tampered), "--models", "0"])
        assert code == 3
        assert "rejected" in capsys.readouterr().out

    def test_json_builds_no_human_text(self, graphs, tmp_path, monkeypatch, capsys):
        def no_pretty(e):
            raise AssertionError("pretty called under --json")

        monkeypatch.setattr(cli, "pretty", no_pretty)
        assert main(["derive", "--graph", graphs["fd"], "--do", "X", "--on", "Y",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["identifiable"] is True

    def test_derive_bow_exit_two(self, graphs):
        assert main(["derive", "--graph", graphs["bow"], "--do", "X", "--on", "Y"]) == 2


class TestUsageErrors:
    """Exit 2 means "not identifiable", so invalid usage must exit 1."""

    @pytest.mark.parametrize("argv", [
        ["identify", "--graph", "FD", "--on", "Y"],
        ["derive", "--graph", "FD", "--do", "X"],
        ["identify", "--graph", "FD", "--do", "X", "--on", "Y", "--frobnicate"],
        ["oracle", "verify", "--graph", "FD", "--do", "X", "--on", "Y", "--trials", "many"],
        [],
    ], ids=["missing --do", "missing --on", "unknown flag", "non-integer", "no command"])
    def test_argparse_error_exit_one(self, graphs, capsys, argv):
        assert main([graphs["fd"] if a == "FD" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_verify_needs_a_trial(self, graphs, capsys, trials):
        code = main(["oracle", "verify", "--graph", graphs["fd"], "--do", "X", "--on", "Y",
                     "--trials", trials])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be at least 1, got {trials}\n"

    def test_negative_models_rejected(self, graphs, tmp_path, capsys):
        out = tmp_path / "d.json"
        main(["derive", "--graph", graphs["bd"], "--do", "X", "--on", "Y", "--out", str(out)])
        capsys.readouterr()
        assert main(["check", "--derivation", str(out), "--models", "-1"]) == 1
        assert capsys.readouterr().err == "error: --models must be at least 0, got -1\n"
        assert main(["check", "--derivation", str(out), "--models", "0"]) == 0

    def test_negative_seed_rejected(self, graphs, tmp_path, capsys):
        # numpy refused a negative seed with a message that named no flag.
        out = tmp_path / "d.json"
        main(["derive", "--graph", graphs["bd"], "--do", "X", "--on", "Y", "--out", str(out)])
        capsys.readouterr()
        for argv in (["check", "--derivation", str(out)],
                     ["oracle", "verify", "--graph", graphs["bd"], "--do", "X", "--on", "Y"]):
            assert main(argv + ["--seed", "-1"]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: --seed must be at least 0, got -1\n")
            assert main(argv + ["--seed", "0"]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, graphs, tmp_path, capsys,
                                                      tolerance):
        # A NaN or infinite tolerance made the numeric checks vacuous, and a
        # negative one rejected sides that agree exactly.
        out = tmp_path / "d.json"
        main(["derive", "--graph", graphs["fd"], "--do", "X", "--on", "Y", "--out", str(out)])
        capsys.readouterr()
        want = f"error: --tolerance must be a finite number >= 0, got {float(tolerance)}\n"
        for argv in (["check", "--derivation", str(out)],
                     ["oracle", "verify", "--graph", graphs["fd"], "--do", "X", "--on", "Y"]):
            assert main(argv + ["--tolerance", tolerance]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", want)

    def test_negative_budget_rejected(self, graphs, capsys):
        code = main(["oracle", "witness", "--graph", graphs["bd"], "--do", "X", "--on", "Y",
                     "--budget", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: --budget must be at least 0, got -1\n"


class TestDsep:
    def test_chain(self, tmp_path, capsys):
        p = tmp_path / "chain.cg"
        p.write_text("node X obs\nnode Z obs\nnode Y obs\nedge X Z\nedge Z Y\n")
        code = main(["dsep", "--graph", str(p), "--x", "X", "--y", "Y",
                     "--given", "Z"])
        assert code == 0
        assert "true" in capsys.readouterr().out

    def test_overlap_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "chain.cg"
        p.write_text("node X obs\nnode Y obs\nedge X Y\n")
        code = main(["dsep", "--graph", str(p), "--x", "X", "--y", "X"])
        assert code == 1


class TestCComp:
    def test_frontdoor_blocks(self, graphs, capsys):
        code = main(["ccomp", "--graph", graphs["fd"]])
        assert code == 0
        blocks = json.loads(capsys.readouterr().out)
        assert blocks == [["X", "Y", "U"], ["Z"]]

    def test_scope_restriction(self, graphs, capsys):
        code = main(["ccomp", "--graph", graphs["fd"], "--scope", "Z", "Y"])
        assert code == 0
        blocks = json.loads(capsys.readouterr().out)
        assert blocks == [["Z"], ["Y", "U"]]

    def test_empty_scope_has_no_blocks(self, graphs, capsys):
        # The latent subgraph over no observables has no blocks; it is not
        # the whole graph.
        assert main(["ccomp", "--graph", graphs["fd"], "--scope"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_latent_scope_names_the_command(self, graphs, capsys):
        code = main(["ccomp", "--graph", graphs["fd"], "--scope", "U"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: c_components() requires observable nodes, got latent 'U'\n"


class TestOracle:
    def test_verify_frontdoor(self, graphs, capsys):
        code = main(
            ["oracle", "verify", "--graph", graphs["fd"], "--do", "X", "--on", "Y",
             "--trials", "20", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"]["all_passed"] is True
        assert data["report"]["max_abs_error"] <= 1e-9

    def test_verify_not_identifiable(self, graphs):
        code = main(
            ["oracle", "verify", "--graph", graphs["bow"], "--do", "X", "--on", "Y"]
        )
        assert code == 2

    def test_witness_bow(self, graphs, capsys):
        code = main(
            ["oracle", "witness", "--graph", graphs["bow"], "--do", "X", "--on", "Y",
             "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert data["observational_gap"] <= 1e-6
        assert data["causal_gap"] >= 1e-2

    def test_witness_human_line_names_pair(self, graphs, capsys):
        code = main(["oracle", "witness", "--graph", graphs["bow"], "--do", "X", "--on", "Y"])
        assert code == 0
        assert capsys.readouterr().out.startswith("witness found for c=['Y'], t=['X', 'Y']: ")

    def test_witness_lift_uses_smaller_hedge(self, graphs, capsys):
        query = ["oracle", "witness", "--graph", graphs["lift"], "--do", "X", "--on", "C", "Y"]
        assert main([*query, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert data["pair"] == {"c": ["R", "C"], "t": ["X", "R", "C"]}
        assert data["observational_gap"] <= 1e-9 and data["causal_gap"] >= 1e-2
        assert main(query) == 0
        assert capsys.readouterr().out.startswith(
            "witness found for c=['R', 'C'], t=['X', 'R', 'C']: ")

    def test_witness_identifiable_not_found(self, graphs, capsys):
        code = main(["oracle", "witness", "--graph", graphs["bd"], "--do", "X", "--on", "Y",
                     "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"found": False}

    def test_witness_imports_no_scipy(self, graphs):
        # The certificate is constructed, not optimized: nothing pulls in scipy.
        src = str(Path(causalid.__file__).parents[1])
        script = ("import sys; from causalid.cli import main; "
                  f"code = main(['oracle', 'witness', '--graph', {graphs['bow']!r}, "
                  "'--do', 'X', '--on', 'Y']); print(code, 'scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.splitlines()[-1] == "0 False"

    def test_witness_zero_budget(self, graphs, capsys):
        code = main(
            ["oracle", "witness", "--graph", graphs["bd"], "--do", "X", "--on", "Y",
             "--budget", "0", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["found"] is False


def json_sweep_value(rng, depth=0):
    """A seeded nested value of the kinds the CLI's JSON writer takes."""
    scalars = [
        None, True, False, 0, -7, 2**70, -(2**65) + 1, 0.1, -0.0, 1e-300, 1.5e300,
        float("nan"), float("inf"), float("-inf"), np.float64(2.5e-9), np.float64("nan"),
        "", "plain", "Ünïcödé ∑ 𝔛", "ctl \x00\x01\x1f \t\n\r \" \\ /", " \ud800",
    ]
    kind = rng.integers(5) if depth < 4 else 4
    if kind == 0:
        return {str(rng.choice(["a", "B", "é", "", "z\n", "10", "9"])) + str(k):
                json_sweep_value(rng, depth + 1) for k in range(rng.integers(4))}
    if kind == 1:
        return [json_sweep_value(rng, depth + 1) for _ in range(rng.integers(4))]
    if kind == 2:
        return tuple(json_sweep_value(rng, depth + 1) for _ in range(rng.integers(3)))
    return scalars[rng.integers(len(scalars))]


class TestJsonWriter:
    def test_matches_json_dumps(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            value = json_sweep_value(rng)
            assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_oracle_payload_matches_json_dumps(self, graphs, capsys):
        assert main(["oracle", "verify", "--graph", graphs["fd"], "--do", "X", "--on", "Y",
                     "--trials", "30", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("key", [1, None, ("a",)])
    def test_non_str_key_rejected(self, key):
        with pytest.raises(TypeError):
            cli._json_text({"x": [{key: 1}]})

    def test_other_values_rejected_like_json_dumps(self):
        for value in ({"a": np.int64(3)}, [object()], {"s": {1, 2}}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                cli._json_text(value)


class TestParserBuiltOnce:
    def test_one_build_over_many_calls(self, graphs, monkeypatch, capsys):
        argvs = [
            ["identify", "--graph", graphs["fd"], "--do", "X", "--on", "Y", "--json"],
            ["identify", "--graph", graphs["fd"], "--do", "X", "--frobnicate"],
            ["derive", "--graph", graphs["bow"], "--do", "X", "--on", "Y"],
            ["ccomp", "--graph", graphs["fd"], "--scope", "Z", "Y"],
            ["dsep", "--graph", graphs["bd"], "--x", "X", "--y", "Y", "--given", "Z"],
            ["identify", "--graph", graphs["bd"], "--do", "X", "--on", "Y"],
        ]

        def run(argv):
            return (main(argv), *capsys.readouterr())

        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert fresh[1][0] == 1 and fresh[1][2].startswith("usage: ")

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        shared = [run(argv) for argv in argvs]
        assert len(builds) == 1
        assert shared == fresh


class TestExportDot:
    def test_latents_dashed(self, graphs, capsys):
        code = main(["export-dot", "--graph", graphs["bow"]])
        assert code == 0
        out = capsys.readouterr().out
        assert '"U" [style=dashed];' in out
        assert '"X" -> "Y";' in out

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.cg"
        p.write_text("node X obs\nedge X Y\n")
        code = main(["export-dot", "--graph", str(p)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


@pytest.fixture
def fd_derivation(graphs, tmp_path):
    """The front-door derivation file as parsed JSON."""
    out = tmp_path / "fd.json"
    assert main(["derive", "--graph", graphs["fd"], "--do", "X", "--on", "Y",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def check_file(data, tmp_path, capsys) -> tuple[int, str, str]:
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["check", "--derivation", str(path), "--models", "0"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def substitution_in_fragment(data):
    """(fragment index, step) of a substitution step inside a fragment."""
    for k, frag in enumerate(data["fragments"]):
        for step in frag["steps"]:
            if step["justification"]["type"] == "substitution":
                return k, step
    raise AssertionError("no nested substitution")


def _set_fragment_ref(offset):
    def edit(data):
        k, step = substitution_in_fragment(data)
        step["justification"]["fragment"] = k + offset
    return edit


def _top_substitution(data):
    return next(s for s in data["steps"] if s["kind"] == "FactorSubstitute")


def _sentences(*outcomes):
    """A product of one sentence per outcome name."""
    return {"kind": "product", "factors": [
        {"kind": "sentence", "outcome": [v], "do": [], "given": []} for v in outcomes]}


# name -> (in-place edit of the front-door file, text the error must contain)
MALFORMED = {
    "format missing": (lambda d: d.pop("format"), "missing key 'format'"),
    "format 1": (lambda d: d.update(format=1), "unsupported version 1"),
    "format as string": (lambda d: d.update(format="2"), "'format' must be an integer"),
    "steps missing": (lambda d: d.pop("steps"), "missing key 'steps'"),
    "graph missing": (lambda d: d.pop("graph"), "missing key 'graph'"),
    "fragments missing": (lambda d: d.pop("fragments"), "missing key 'fragments'"),
    "step kind missing": (lambda d: d["steps"][0].pop("kind"), "missing key 'kind'"),
    "site missing": (lambda d: d["fragments"][0]["steps"][0].pop("after"),
                     "fragments[0]: steps[0]: missing key 'after'"),
    "path not a list": (lambda d: d["steps"][1].update(path="body"),
                        "'path' must be a list"),
    "names not strings": (lambda d: d["steps"][0]["before"].update(outcome=[1]),
                          "'outcome' must be a list of strings"),
    "names holding an object": (lambda d: d["steps"][0]["before"].update(outcome=[{"X": 1}]),
                                "'outcome' must be a list of strings"),
    "names holding a list": (lambda d: d["steps"][0]["before"].update(do=[["X"]]),
                             "'do' must be a list of strings"),
    "unknown variable": (lambda d: d["steps"][0]["before"].update(outcome=["Q"]),
                         "'Q' is not an observable node"),
    # The nodes are checked from the last factor back.
    "two unknown variables": (lambda d: d["steps"][0].update(before=_sentences("Q", "R")),
                              "'R' is not an observable node"),
    "unknown variable twice": (
        lambda d: d["steps"][0].update(before=_sentences("Q", "R", "Q")),
        "'Q' is not an observable node"),
    "latent variable": (lambda d: d["steps"][0]["before"].update(outcome=["U"]),
                        "'U' is not an observable node"),
    "unknown expression kind": (lambda d: d["steps"][0]["before"].update(kind="cube"),
                                "unknown expression kind 'cube'"),
    "unknown justification": (
        lambda d: d["steps"][0]["justification"].update(type="hunch"),
        "unknown justification type 'hunch'"),
    "unknown path element": (lambda d: d["steps"][1].update(path=["f"]),
                             "unknown path element 'f'"),
    "negative path element": (lambda d: d["steps"][1].update(path=[-1]),
                              "unknown path element -1"),
    "boolean path element": (lambda d: d["steps"][1].update(path=[True]),
                             "unknown path element True"),
    "graph node not an object": (lambda d: d["graph"]["nodes"].append("X"),
                                 "graph: expected an object"),
    "fragment out of range": (
        lambda d: _top_substitution(d)["justification"].update(fragment=99),
        "fragment 99 is out of range"),
    "negative fragment": (
        lambda d: _top_substitution(d)["justification"].update(fragment=-1),
        "fragment -1 is out of range"),
    "fragment refers to itself": (_set_fragment_ref(0), "refers to itself"),
    "fragment refers forward": (_set_fragment_ref(1), "before it is defined"),
    "query do empty": (lambda d: d["query"].update(do=[]),
                       "query: 'do' and 'on' must be nonempty"),
    "query on empty": (lambda d: d["query"].update(on=[]),
                       "query: 'do' and 'on' must be nonempty"),
    "query sets overlap": (lambda d: d["query"].update(on=["X", "Y"]),
                           "query: 'X' is in both 'do' and 'on'"),
    "query unknown variable": (lambda d: d["query"].update(on=["Q"]),
                               "query: 'Q' is not an observable node"),
    "query latent variable": (lambda d: d["query"].update(do=["U"]),
                              "query: 'U' is not an observable node"),
}


class TestMalformedDerivation:
    @pytest.mark.parametrize("edit, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exit_one_with_message(self, fd_derivation, tmp_path, capsys, edit, message):
        edit(fd_derivation)
        code, out, err = check_file(fd_derivation, tmp_path, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err, err

    def test_not_an_object(self, fd_derivation, tmp_path, capsys):
        code, out, err = check_file([fd_derivation], tmp_path, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: format: expected an object")

    def test_nested_too_deeply(self, fd_derivation, tmp_path, capsys):
        text = json.dumps(fd_derivation)
        deep = '{"kind":"sum","bound":[],"body":' * 5000 + '{"kind":"one"}' + "}" * 5000
        path = tmp_path / "deep.json"
        path.write_text(text.replace('"initial": ', f'"initial": {deep}, "old": ', 1))
        code = main(["check", "--derivation", str(path), "--models", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestClaimedEvidence:
    """Every step but a substitution is justified by its rewrite: the claim
    keys that older files store with it are ignored."""

    def test_older_rule_claims_ignored(self, fd_derivation, tmp_path, capsys):
        claim = {"rule": 2, "x": [], "y": ["Y"], "z": ["X"], "w": ["Z"],
                 "cut_incoming": ["X"], "cut_outgoing": ["Z"], "holds": False}
        rules = 0
        for frag in fd_derivation["fragments"] + [fd_derivation]:
            for step in frag["steps"]:
                if step["justification"]["type"] == "rule":
                    assert step["justification"] == {"type": "rule"}
                    step["justification"].update(claim)
                    rules += 1
        assert rules
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 0, out

    @pytest.mark.parametrize("true_claims", [True, False], ids=["true", "false"])
    def test_older_params_claims_ignored(self, fd_derivation, tmp_path, capsys, true_claims):
        # Older files store the set that a chain-rule or marginalization
        # step moves and the direction of its rewrite.  The false claims
        # flip the direction and name the rewritten sentence's outcome.
        claimed = set()
        for frag in fd_derivation["fragments"] + [fd_derivation]:
            for step in frag["steps"]:
                after = step["after"]
                if step["kind"] == "Marginalize":
                    direction, moved = "introduce", after["bound"]
                elif step["kind"] == "ChainRule" and after["kind"] == "product":
                    direction, moved = "split", after["factors"][1]["outcome"]
                elif step["kind"] == "ChainRule":
                    direction, moved = "quotient", after["den"]["outcome"]
                else:
                    continue
                if not true_claims:
                    direction = {"introduce": "collapse"}.get(direction, "merge")
                    moved = step["before"]["outcome"]
                step["justification"] = {"type": "params", "vars": moved,
                                         "direction": direction}
                claimed.add(step["kind"])
        assert claimed == {"ChainRule", "Marginalize"}
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 0, out

    def test_dropped_bound_member_exit_three(self, fd_derivation, tmp_path, capsys):
        after = next(
            s["after"] for frag in fd_derivation["fragments"] for s in frag["steps"]
            if s["kind"] == "Marginalize" and len(s["after"]["bound"]) >= 2)
        del after["bound"][0]
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 3
        assert out.startswith("derivation rejected at step ")
        assert out.endswith(": not a Marginalize rewrite\n")


class TestUnresolvedPath:
    def test_path_into_a_sentence_exit_three(self, fd_derivation, tmp_path, capsys):
        # A well-formed path that the previous state has no subexpression at.
        i, step = next((i, s) for i, s in enumerate(fd_derivation["steps"])
                       if s["before"]["kind"] == "sentence")
        step["path"] = step["path"] + [7]
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 3
        assert f"rejected at step {i}: step does not chain" in out


class TestQuerylessFile:
    def test_null_query_exit_three(self, fd_derivation, tmp_path, capsys):
        fd_derivation["query"] = None
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 3
        assert out == 'derivation rejected: derivation file has no query ("query" is null)\n'


class TestNestedRejection:
    def test_reason_names_the_inner_step(self, fd_derivation, tmp_path, capsys):
        i, step = next(
            (i, s)
            for frag in fd_derivation["fragments"]
            for i, s in enumerate(frag["steps"])
            if s["kind"] == "Rule3" and i > 0
        )
        step["kind"] = "Rule2"
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 3
        assert f"nested derivation rejected at step {i}: sets do not match" in out

    def test_empty_fragment_rejected(self, fd_derivation, tmp_path, capsys):
        fd_derivation["fragments"][0].update(initial=None, steps=[])
        code, out, _ = check_file(fd_derivation, tmp_path, capsys)
        assert code == 3
        assert "nested derivation has no steps" in out


def graph_text(g) -> str:
    lines = [f"node {n} {'obs' if g.is_observable(n) else 'lat'}" for n in g.names]
    lines += [f"edge {p} {c}" for p, c in g.edges]
    return "\n".join(lines) + "\n"


def golden_queries():
    """(graph text, treatment, outcome): the front-door and bow graphs, then
    30 seeded random graphs with latents, 7 of them not identifiable."""
    yield FRONTDOOR, ["X"], ["Y"]
    yield BOW, ["X"], ["Y"]
    rng = np.random.default_rng(5)
    for i in range(30):
        g = random_dag(rng, n_obs=3 + i % 3, n_lat=1 + i % 4, p_edge=0.5)
        picks = [str(v) for v in rng.permutation(g.observable_names)]
        yield graph_text(g), picks[:1 + i % 2], picks[2:]


def golden_digests(tmp_path) -> tuple[str, str]:
    """sha256 over the exit code and stdout of `identify --json`,
    `derive --json --out` and `check --json` on each golden query, and
    sha256 over the bytes of each derivation file."""
    digest, files = hashlib.sha256(), hashlib.sha256()

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digest.update(f"{code}\n{out.getvalue()}".encode())
        return code

    for k, (text, do, on) in enumerate(golden_queries()):
        graph = tmp_path / f"g{k}.cg"
        graph.write_text(text)
        query = ["--graph", str(graph), "--do", *do, "--on", *on, "--json"]
        run(["identify", *query])
        out = tmp_path / f"d{k}.json"
        if run(["derive", *query, "--out", str(out)]) == 0:
            files.update(out.read_bytes())
            run(["check", "--derivation", str(out), "--json"])
    return digest.hexdigest(), files.hexdigest()


class TestGoldenOutput:
    """CLI output and derivation files are byte-identical to those recorded
    in STDOUT and FILES.

    The hashes cover float-free outputs only, so they do not depend on the
    numpy build.  A change that alters output or files on purpose
    re-records the digest it moves: run this test, copy the digest from its
    failure message, and say in the change what changed and why.  Keeping
    the two apart shows whether a change to the file format left the
    command output alone.
    """

    STDOUT = "d276d05bf008f03889c9179b3aae8f0606d7d38900ced2cc322e6fe55941a40c"
    FILES = "9de56cd44c91e72a666d2c3668b3b0c8e1612e2939e8a71df70030b747dad26e"

    def test_outputs_match_recorded_hash(self, tmp_path):
        stdout, files = golden_digests(tmp_path)
        assert (stdout, files) == (self.STDOUT, self.FILES)
