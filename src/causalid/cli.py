"""Command-line interface.

Subcommands::

    identify        decide identifiability, print the estimand
    derive          compile a do-calculus derivation for the estimand
    check           re-verify a derivation file
    dsep            test d-separation
    ccomp           print the confounded-component partition
    oracle verify   check an identified estimand against random models
    oracle witness  construct and check a non-identifiability witness pair
    export-dot      write the graph in GraphViz DOT format

Exit codes: 0 success (and identifiable), 2 not identifiable, 3 derivation
rejected, 1 usage or input error.  Identical inputs and seeds produce
byte-identical output.

``derive --out`` writes a format-2 derivation file (see
:func:`causalid.docalc.derivation_to_text`) as compact JSON with sorted
keys: the graph once, a table of nested fragments each written once, and
steps that store only a path and the rewritten subexpression.  The file is
joined from the JSON text that each expression node keeps, with no dict
tree built for it.  ``check`` reads format 2 only, into one shared node per
distinct subexpression; any other version, or a malformed file, exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from .ccomp import c_components
from .docalc import (
    Derivation,
    Verdict,
    derivation_from_json,
    derivation_to_text,
    derive_effect,
    verify_derivation,
)
from .expr import expr_to_json, pretty
from .graph import CausalGraph, GraphError, parse_graph_text
from .ident import causal_effect
from .oracle import _check_tolerance, check_estimand, witness_search
from .sep import SeparationQuery, d_separated
from .tables import EnumerationLimitError

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_IDENTIFIABLE = 2
EXIT_REJECTED = 3


def _load_graph(path: str) -> CausalGraph:
    text = Path(path).read_text()
    return parse_graph_text(text)


def _json_text(o, indent: str = "") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` for a value nested at
    ``indent``, without the pure-Python encoder that ``indent`` selects.
    Keys must be strings; a value that is not a dict, list, tuple, str,
    int, float, bool or None goes to ``json.dumps``, which rejects it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    inner = indent + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = (f"{encode_basestring_ascii(k)}: {_json_text(o[k], inner)}" for k in sorted(o))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = (_json_text(v, inner) for v in o)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(o)


def _emit(data: dict, as_json: bool, human: str | Callable[[], str]) -> None:
    """Print ``data`` as JSON, or the human text; a callable ``human`` is
    called only when its text is printed."""
    if as_json:
        print(_json_text(data))
    else:
        print(human() if callable(human) else human)


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def _names(g: CausalGraph, names) -> frozenset[str]:
    for n in names:
        g.index(n)  # raises GraphError with the offending name
    return frozenset(names)


def _pair_json(g: CausalGraph, pair) -> dict:
    """A failing (c, t) pair of the identification procedure as sorted names."""
    c, t = pair
    return {"c": list(g.sorted_nodes(c)), "t": list(g.sorted_nodes(t))}


def _cmd_identify(args) -> int:
    g = _load_graph(args.graph)
    t = _names(g, args.do)
    s = _names(g, args.on)
    res = causal_effect(t, s, g)
    if res.identifiable:
        text = pretty(res.estimand)
        _emit(
            {"identifiable": True, "estimand": expr_to_json(res.estimand), "pretty": text},
            args.json,
            f"identifiable\n  P_t(s) = {text}",
        )
        return EXIT_OK
    pair = _pair_json(g, res.witness)
    _emit({"identifiable": False, "witness": pair}, args.json,
          f"not identifiable (failing pair: c={pair['c']}, t={pair['t']})")
    return EXIT_NOT_IDENTIFIABLE


def _cmd_derive(args) -> int:
    g = _load_graph(args.graph)
    t = _names(g, args.do)
    s = _names(g, args.on)
    d = derive_effect(t, s, g)
    if not isinstance(d, Derivation):
        _emit({"identifiable": False, "witness": _pair_json(g, d.witness)}, args.json,
              "not identifiable")
        return EXIT_NOT_IDENTIFIABLE
    if args.out:
        Path(args.out).write_text(derivation_to_text(d) + "\n")
    final = d.final
    _emit(
        {"identifiable": True, "steps": len(d.steps), "final": expr_to_json(final)},
        args.json,
        lambda: f"derivation with {len(d.steps)} steps\n  final = {pretty(final)}",
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    _at_least("--models", args.models, 0)
    _at_least("--seed", args.seed, 0)
    _check_tolerance(args.tolerance, "--tolerance")
    data = json.loads(Path(args.derivation).read_text())
    d = derivation_from_json(data)
    if d.query is None:
        # The verifier accepts a free-standing fragment, but a file must
        # tie its chain to the effect it claims to identify.
        verdict = Verdict(False, None, 'derivation file has no query ("query" is null)')
    else:
        verdict = verify_derivation(
            d, models=args.models, seed=args.seed, tolerance=args.tolerance
        )
    if verdict.accepted:
        _emit(
            {"accepted": True, "steps": len(d.steps)},
            args.json,
            f"derivation accepted ({len(d.steps)} steps)",
        )
        return EXIT_OK
    _emit(
        {"accepted": False, "step": verdict.step, "reason": verdict.reason},
        args.json,
        "derivation rejected"
        + ("" if verdict.step is None else f" at step {verdict.step}")
        + f": {verdict.reason}",
    )
    return EXIT_REJECTED


def _cmd_dsep(args) -> int:
    g = _load_graph(args.graph)
    q = SeparationQuery(
        x=_names(g, args.x),
        y=_names(g, args.y),
        z=_names(g, args.given or []),
        graph=g,
    )
    separated = d_separated(q)
    _emit(
        {"separated": separated, **q.to_json()},
        args.json,
        f"d-separated: {str(separated).lower()}",
    )
    return EXIT_OK


def _cmd_ccomp(args) -> int:
    g = _load_graph(args.graph)
    partition = c_components(g, _names(g, args.scope) if args.scope is not None else None)
    blocks = [list(g.sorted_nodes(b)) for b in partition.blocks]
    print(json.dumps(blocks))
    return EXIT_OK


def _cmd_oracle_verify(args) -> int:
    _at_least("--trials", args.trials, 1)
    _at_least("--seed", args.seed, 0)
    _check_tolerance(args.tolerance, "--tolerance")
    g = _load_graph(args.graph)
    t = _names(g, args.do)
    s = _names(g, args.on)
    res = causal_effect(t, s, g)
    if not res.identifiable:
        _emit({"identifiable": False}, args.json, "not identifiable")
        return EXIT_NOT_IDENTIFIABLE
    report = check_estimand(
        res.estimand,
        g,
        t,
        s,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    data = {"identifiable": True, "report": report.to_json()}
    human = (
        f"{report.trials} models: max error {report.max_abs_error:.3e} "
        f"({'pass' if report.all_passed else 'FAIL'} at {report.tolerance:g})"
    )
    _emit(data, args.json, human)
    return EXIT_OK if report.all_passed else EXIT_ERROR


def _cmd_oracle_witness(args) -> int:
    _at_least("--budget", args.budget, 0)
    g = _load_graph(args.graph)
    t = _names(g, args.do)
    s = _names(g, args.on)
    rep = witness_search(g, t, s)
    if rep is None:
        _emit({"found": False}, args.json, "no witness found")
        return EXIT_OK
    data = rep.to_json()
    pair = data["pair"]
    _emit(data, args.json,
          f"witness found for c={pair['c']}, t={pair['t']}: observational gap "
          f"{rep.observational_gap:.3e}, causal gap {rep.causal_gap:.3e}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    dot = g.to_dot()
    if args.out:
        Path(args.out).write_text(dot)
    else:
        print(dot, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalid",
        description="Causal effect identification with checkable derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True, help="graph file (text format)")

    def add_query(p):
        p.add_argument("--do", nargs="+", required=True, metavar="NAME",
                       help="intervened variables")
        p.add_argument("--on", nargs="+", required=True, metavar="NAME",
                       help="outcome variables")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("identify", help="decide identifiability of P_t(s)")
    add_graph(p); add_query(p); add_json(p)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("derive", help="compile a do-calculus derivation")
    add_graph(p); add_query(p); add_json(p)
    p.add_argument("--out", help="write the derivation JSON here")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("check", help="re-verify a derivation file")
    p.add_argument("--derivation", required=True)
    p.add_argument("--models", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dsep", help="test d-separation")
    add_graph(p)
    p.add_argument("--x", nargs="+", required=True, metavar="NAME")
    p.add_argument("--y", nargs="+", required=True, metavar="NAME")
    p.add_argument("--given", nargs="*", metavar="NAME")
    add_json(p)
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("ccomp", help="print the confounded-component partition")
    add_graph(p)
    p.add_argument("--scope", nargs="*", metavar="NAME",
                   help="restrict to the latent subgraph over these observables")
    p.set_defaults(func=_cmd_ccomp)

    p = sub.add_parser("oracle", help="numerical ground-truth checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    p2 = osub.add_parser("verify", help="check the estimand on random models")
    add_graph(p2); add_query(p2); add_json(p2)
    p2.add_argument("--trials", type=int, default=100)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("--tolerance", type=float, default=1e-9)
    p2.set_defaults(func=_cmd_oracle_verify)

    p2 = osub.add_parser("witness",
                         help="construct and check a non-identifiability witness")
    add_graph(p2); add_query(p2); add_json(p2)
    p2.add_argument("--budget", type=int, default=40000,
                    help="no effect; the witness is constructed, not searched for")
    p2.add_argument("--seed", type=int, default=0, help="no effect")
    p2.set_defaults(func=_cmd_oracle_witness)

    p = sub.add_parser("export-dot", help="write GraphViz DOT (latents dashed)")
    add_graph(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built once."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:  # --help
            raise
        # argparse has printed the usage and the error; exit 2 means "not
        # identifiable", so a usage error must not reach the caller as 2.
        return EXIT_ERROR
    try:
        return args.func(args)
    except (GraphError, EnumerationLimitError, ValueError, OSError,
            json.JSONDecodeError, RecursionError) as err:
        # RecursionError: an input file nested too deeply to decode.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
