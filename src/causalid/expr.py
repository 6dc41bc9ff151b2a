"""Symbolic estimand trees over the observational joint distribution.

An estimand is built from marginals of the observational joint
(:class:`JointMarginal`), sums over finite variable domains (:class:`Sum`),
products, quotients, and the constant :class:`One`.  Expressions are kept at
the variable level; evaluation yields an array over the grid of
assignments of the free variables.

Nested sums may rebind a variable that is free (or bound) further out; the
semantics is lexical, with the innermost binding winning.  The pretty
printer disambiguates such shadowed variables with primes, e.g. ``x'``.

The derivation machinery reuses the same interior node classes with
interventional sentences (:class:`DoSentence`) at the leaves; the walkers
here treat any non-``One`` leaf through its ``leaf_vars`` attribute.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .graph import GraphError, json_field, json_names
from .tables import JointTable

__all__ = [
    "One",
    "JointMarginal",
    "DoSentence",
    "Sum",
    "Product",
    "Quotient",
    "ProbExpr",
    "PositivityError",
    "free_vars",
    "evaluate_grid",
    "canonicalize",
    "simplify",
    "expr_to_text",
    "expr_to_json",
    "expr_from_json",
    "pretty",
]


class PositivityError(ValueError):
    """A quotient denominator evaluated to zero.

    The engine targets strictly positive observational distributions, so a
    zero denominator signals invalid input rather than a computable result.
    The offending (partial) assignment is attached when known.
    """

    def __init__(self, assignment: Mapping[str, int] | None = None):
        self.assignment = dict(assignment) if assignment else {}
        where = f" at {self.assignment}" if self.assignment else ""
        super().__init__(f"denominator is zero{where}")


@dataclass(frozen=True)
class One:
    """The constant 1."""


@dataclass(frozen=True)
class JointMarginal:
    """The observational marginal P(vars), read as a function of an
    assignment of ``vars``."""

    vars: frozenset[str]

    def __init__(self, vars: Iterable[str]):
        object.__setattr__(self, "vars", frozenset(vars))

    @property
    def leaf_vars(self) -> frozenset[str]:
        return self.vars


@dataclass(frozen=True)
class DoSentence:
    """An interventional sentence P(outcome | do(interventions), observations).

    The three sets are pairwise disjoint and observable.  A sentence with an
    empty intervention set is an ordinary observational conditional."""

    outcome: frozenset[str]
    do: frozenset[str]
    given: frozenset[str]

    def __post_init__(self):
        for name in ("outcome", "do", "given"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if (self.outcome & self.do) or (self.outcome & self.given) or (self.do & self.given):
            raise GraphError("sentence parts must be pairwise disjoint")

    @property
    def leaf_vars(self) -> frozenset[str]:
        return self.outcome | self.do | self.given


@dataclass(frozen=True)
class Sum:
    """Sum of ``body`` over the full domains of the ``bound`` variables."""

    bound: frozenset[str]
    body: "ProbExpr"

    def __init__(self, bound: Iterable[str], body: "ProbExpr"):
        object.__setattr__(self, "bound", frozenset(bound))
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class Product:
    factors: tuple["ProbExpr", ...]

    def __init__(self, factors: Iterable["ProbExpr"]):
        object.__setattr__(self, "factors", tuple(factors))


@dataclass(frozen=True)
class Quotient:
    num: "ProbExpr"
    den: "ProbExpr"


ProbExpr = One | JointMarginal | Sum | Product | Quotient


# -- structure ----------------------------------------------------------------


def free_vars(e) -> frozenset[str]:
    """Variables whose values the expression depends on."""
    if isinstance(e, One):
        return frozenset()
    if isinstance(e, Sum):
        return free_vars(e.body) - e.bound
    if isinstance(e, Product):
        out: frozenset[str] = frozenset()
        for f in e.factors:
            out |= free_vars(f)
        return out
    if isinstance(e, Quotient):
        return free_vars(e.num) | free_vars(e.den)
    return e.leaf_vars


def iter_leaves(e):
    if isinstance(e, One):
        return
    elif isinstance(e, Sum):
        yield from iter_leaves(e.body)
    elif isinstance(e, Product):
        for f in e.factors:
            yield from iter_leaves(f)
    elif isinstance(e, Quotient):
        yield from iter_leaves(e.num)
        yield from iter_leaves(e.den)
    else:
        yield e


# -- evaluation ---------------------------------------------------------------


def evaluate_grid(e, joint: JointTable, free: Sequence[str]) -> np.ndarray:
    """Vectorized evaluation over the full grid of ``free`` assignments.

    Returns an array with one axis per entry of ``free`` (in that order),
    after one leading axis per model axis of ``joint``.  ``joint`` must be
    the full observational table; summation ranges come from its variable
    domains.
    """

    def leaf(e, env, ndim):
        if not isinstance(e, JointMarginal):
            raise TypeError(f"cannot evaluate leaf {e!r} against an observational table")
        return joint.placed(e.vars, env, ndim)

    return _grid(e, joint, leaf, free)


def _grid(e, joint: JointTable, leaf_fn: Callable, free: Sequence[str]) -> np.ndarray:
    """Evaluate ``e`` over the grid of ``free``, whose domains and model
    axes come from ``joint``; ``leaf_fn(leaf, env, ndim)`` returns each
    non-``One`` leaf shaped to broadcast into the grid."""
    if not free_vars(e) <= set(free):
        raise ValueError("free must cover the expression's free variables")
    env = {v: i for i, v in enumerate(free)}
    shape = joint.batch + tuple(joint.card(v) for v in free)
    out = _eval_nd(e, joint, leaf_fn, env, len(free))
    return np.broadcast_to(out, shape).copy() if shape else np.asarray(out)


def _eval_nd(e, joint, leaf_fn, env: dict[str, int], ndim: int) -> np.ndarray:
    """``e`` over a grid of ``ndim`` axes, with variable ``v`` on axis
    ``env[v]``.  The grid axes are the last ``ndim`` of each array, so model
    axes in front of them ride along; axes below are counted from the end."""
    if isinstance(e, One):
        return np.ones((1,) * ndim) if ndim else np.float64(1.0)
    if isinstance(e, Sum):
        bound = sorted(e.bound)
        env2 = dict(env)
        for i, v in enumerate(bound):
            env2[v] = ndim + i
        inner_ndim = ndim + len(bound)
        res = np.asarray(_eval_nd(e.body, joint, leaf_fn, env2, inner_ndim))
        if res.ndim < inner_ndim:
            res = res.reshape((1,) * (inner_ndim - res.ndim) + res.shape)
        # A bound variable the body ignores still multiplies by its domain
        # size, so broadcast before reducing.
        want = res.shape[:res.ndim - len(bound)] + tuple(joint.card(v) for v in bound)
        res = np.broadcast_to(res, want)
        return res.sum(axis=tuple(range(-len(bound), 0)))
    if isinstance(e, Product):
        out = np.ones((1,) * ndim) if ndim else np.float64(1.0)
        for f in e.factors:
            out = out * _eval_nd(f, joint, leaf_fn, env, ndim)
        return out
    if isinstance(e, Quotient):
        num = _eval_nd(e.num, joint, leaf_fn, env, ndim)
        den = np.asarray(_eval_nd(e.den, joint, leaf_fn, env, ndim))
        if np.any(den == 0.0):
            # The first zero in model order; the model axes name no variable.
            idx = np.unravel_index(int(np.argmax(den == 0.0)), den.shape)
            bad = {
                v: int(idx[ax - ndim])
                for v, ax in env.items()
                if ndim - ax <= den.ndim and den.shape[ax - ndim] > 1
            }
            raise PositivityError(bad)
        return num / den
    return leaf_fn(e, env, ndim)


# -- normal form ---------------------------------------------------------------


def canonicalize(e):
    """Deterministic normal form preserving evaluation exactly.

    Flattens nested products, drops unit factors and unit denominators,
    merges directly nested sums with disjoint bound sets, unwraps empty
    sums, and orders product factors by their structural key, the text of
    :func:`expr_to_text`.  The result is kept on the node, and a canonical
    node maps to itself, so canonicalizing a subtree again costs O(1).
    """
    if not isinstance(e, (Sum, Product, Quotient)):
        return e
    memo = e.__dict__
    if "_canonical" not in memo:
        out = memo["_canonical"] = _canonical_form(e)
        if isinstance(out, (Sum, Product, Quotient)):
            # A canonical node maps to itself; None says so without a
            # reference from the node to itself.
            out.__dict__["_canonical"] = None
    return memo["_canonical"] or e


def _canonical_form(e):
    if isinstance(e, Sum):
        body = canonicalize(e.body)
        bound = e.bound
        if not bound:
            return body
        if isinstance(body, Sum) and not (body.bound & bound):
            bound = bound | body.bound
            body = body.body
        return Sum(bound, body)
    if isinstance(e, Product):
        factors = []
        for f in e.factors:
            cf = canonicalize(f)
            if isinstance(cf, Product):
                factors.extend(cf.factors)
            elif not isinstance(cf, One):
                factors.append(cf)
        if not factors:
            return One()
        if len(factors) == 1:
            return factors[0]
        factors.sort(key=expr_to_text)
        return Product(factors)
    num, den = canonicalize(e.num), canonicalize(e.den)
    if isinstance(den, One):
        return num
    return Quotient(num, den)


def simplify(e):
    """Optional tidy-up pass: collapse sums over marginal variables and
    cancel syntactically identical quotient factors.

    Evaluation-preserving (covered by property tests); applied to engine
    outputs on top of :func:`canonicalize`.
    """
    e = canonicalize(e)
    if isinstance(e, Sum):
        body = simplify(e.body)
        if isinstance(body, JointMarginal) and e.bound <= body.vars:
            reduced = body.vars - e.bound
            return JointMarginal(reduced) if reduced else One()
        return canonicalize(Sum(e.bound, body))
    if isinstance(e, Product):
        return canonicalize(Product(simplify(f) for f in e.factors))
    if isinstance(e, Quotient):
        num, den = simplify(e.num), simplify(e.den)
        if num == den:
            return One()
        nf = list(num.factors) if isinstance(num, Product) else [num]
        df = list(den.factors) if isinstance(den, Product) else [den]
        for f in list(nf):
            if f in df:
                nf.remove(f)
                df.remove(f)
        num = canonicalize(Product(nf))
        den = canonicalize(Product(df))
        return num if isinstance(den, One) else Quotient(num, den)
    return e


# -- serialization -------------------------------------------------------------


def expr_to_text(e) -> str:
    """``json.dumps(expr_to_json(e), sort_keys=True, separators=(",", ":"))``,
    built once per node from its children's texts and kept on the node.

    The text is also the node's structural key, which orders the factors of
    a canonical product.  Writing a space after each structural ``,`` and
    ``:`` would not change that order: two texts first differ at the same
    character either way."""
    memo = e.__dict__
    if "_key" not in memo:
        memo["_key"] = _build_key(e)
    return memo["_key"]


def _build_key(e) -> str:
    """The text of ``e``, from its children's texts."""
    if isinstance(e, One):
        return '{"kind":"one"}'
    if isinstance(e, JointMarginal):
        return '{"kind":"marginal","vars":' + _names_key(e.vars) + "}"
    if isinstance(e, Sum):
        return ('{"body":' + expr_to_text(e.body) + ',"bound":' + _names_key(e.bound)
                + ',"kind":"sum"}')
    if isinstance(e, Product):
        return '{"factors":[' + ",".join(map(expr_to_text, e.factors)) + '],"kind":"product"}'
    if isinstance(e, Quotient):
        return ('{"den":' + expr_to_text(e.den) + ',"kind":"quotient","num":'
                + expr_to_text(e.num) + "}")
    if isinstance(e, DoSentence):
        return ('{"do":' + _names_key(e.do) + ',"given":' + _names_key(e.given)
                + ',"kind":"sentence","outcome":' + _names_key(e.outcome) + "}")
    raise TypeError(f"cannot encode {e!r}")


@functools.lru_cache(maxsize=4096)
def _names_key(names: frozenset[str]) -> str:
    """``json.dumps(sorted(names))`` in compact form, without the encoder's
    set-up.  Cached: the nodes of one derivation use each name set several
    times."""
    return "[" + ",".join(map(encode_basestring_ascii, sorted(names))) + "]"


def expr_to_json(e) -> dict:
    if isinstance(e, One):
        return {"kind": "one"}
    if isinstance(e, JointMarginal):
        return {"kind": "marginal", "vars": sorted(e.vars)}
    if isinstance(e, Sum):
        return {"kind": "sum", "bound": sorted(e.bound), "body": expr_to_json(e.body)}
    if isinstance(e, Product):
        return {"kind": "product", "factors": [expr_to_json(f) for f in e.factors]}
    if isinstance(e, Quotient):
        return {"kind": "quotient", "num": expr_to_json(e.num), "den": expr_to_json(e.den)}
    if isinstance(e, DoSentence):
        return {
            "kind": "sentence",
            "outcome": sorted(e.outcome),
            "do": sorted(e.do),
            "given": sorted(e.given),
        }
    raise TypeError(f"cannot encode {e!r}")


def expr_from_json(data: Mapping, memo: dict | None = None):
    """Inverse of :func:`expr_to_json`; malformed input raises ValueError.

    Nodes are hash-consed: ``memo`` maps each node decoded so far, keyed by
    its class, its name sets and its children's identities, to that node,
    and each name list already validated to its set.  A subexpression that
    recurs is validated in full the first time and found in ``memo`` after
    that, so it decodes to the same object.  Validation runs in the same
    order either way, and a repeat has passed it once, so the first error
    of malformed input does not depend on ``memo``.  Pass one dict to
    several calls to share nodes among them; keep it for as long as their
    results, since its keys hold the identities of the nodes it keeps.
    """
    return _decode(data, {} if memo is None else memo)


def _decode(data, memo: dict):
    kind = json_field(data, "kind", str)
    if kind == "sentence":
        args = tuple([_names(data, k, memo) for k in ("outcome", "do", "given")])
        cls, key = DoSentence, (DoSentence, *args)
    elif kind == "sum":
        bound = _names(data, "bound", memo)
        body = _decode(json_field(data, "body", dict), memo)
        cls, args, key = Sum, (bound, body), (Sum, bound, id(body))
    elif kind == "product":
        factors = tuple([_decode(f, memo) for f in json_field(data, "factors", list)])
        cls, args, key = Product, (factors,), (Product, *map(id, factors))
    elif kind == "quotient":
        num = _decode(json_field(data, "num", dict), memo)
        den = _decode(json_field(data, "den", dict), memo)
        cls, args, key = Quotient, (num, den), (Quotient, id(num), id(den))
    elif kind == "marginal":
        names = _names(data, "vars", memo)
        cls, args, key = JointMarginal, (names,), (JointMarginal, names)
    elif kind == "one":
        cls, args, key = One, (), (One,)
    else:
        raise ValueError(f"unknown expression kind {kind!r}")
    node = memo.get(key)
    if node is None:
        node = memo[key] = cls(*args)
    return node


def _names(data: dict, key: str, memo: dict) -> frozenset[str]:
    """:func:`json_names` of the object ``data``, each distinct list
    validated once.  A list is kept by its tuple of names, which no node
    key equals: node keys hold a class, which no decoded JSON does."""
    names = data.get(key)
    if type(names) is list:
        try:
            return memo[tuple(names)]
        except (KeyError, TypeError):  # not seen yet, or holds an unhashable value
            pass
    out = memo[tuple(names)] = json_names(data, key)
    return out


# -- rendering -----------------------------------------------------------------


def pretty(e) -> str:
    """Textbook-style rendering; shadowed bound variables, and names that
    differ only in case, get primes."""
    symbols, _ = _bind(free_vars(e), {})
    return _render(e, symbols)


def _bind(names, symbols: dict[str, str]) -> tuple[dict[str, str], list[str]]:
    """``symbols`` extended with a fresh lower-case symbol for each of
    ``names`` in sorted order, and those symbols."""
    inner = dict(symbols)
    taken = set(symbols.values())
    syms = []
    for v in sorted(names):
        s = v.lower()
        while s in taken:
            s += "'"
        taken.add(s)
        inner[v] = s
        syms.append(s)
    return inner, syms


def _render(e, symbols: dict[str, str]) -> str:
    if isinstance(e, One):
        return "1"
    if isinstance(e, JointMarginal):
        return "P(" + ", ".join(symbols[v] for v in sorted(e.vars)) + ")"
    if isinstance(e, Sum):
        inner, syms = _bind(e.bound, symbols)
        return "Σ_{" + ",".join(syms) + "} " + _wrap(e.body, inner, atom_ok=True)
    if isinstance(e, Product):
        return "·".join(_wrap(f, symbols) for f in e.factors)
    if isinstance(e, Quotient):
        return _wrap(e.num, symbols) + "/" + _wrap(e.den, symbols)
    if isinstance(e, DoSentence):
        out = ", ".join(symbols[v] for v in sorted(e.outcome))
        conds = []
        if e.do:
            conds.append("do(" + ", ".join(symbols[v] for v in sorted(e.do)) + ")")
        if e.given:
            conds.append(", ".join(symbols[v] for v in sorted(e.given)))
        return f"P({out} | {', '.join(conds)})" if conds else f"P({out})"
    return repr(e)


def _wrap(e, symbols, atom_ok: bool = False) -> str:
    text = _render(e, symbols)
    if isinstance(e, (Sum, Quotient)) or (isinstance(e, Product) and not atom_ok):
        return "(" + text + ")"
    return text
