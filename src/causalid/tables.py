"""Dense probability tables over finite variable domains.

A :class:`JointTable` stores a nonnegative array with one axis per variable,
variables kept in a fixed canonical order (the owning graph's index order).
Axes in front of the variables' axes index a stack of tables, one per model,
so many models are evaluated in one pass; a single table has none.
Marginals are cached per variable subset since estimand evaluation asks for
the same ones repeatedly.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["JointTable", "EnumerationLimitError"]

# Full product domains above this size are refused rather than enumerated;
# a stack of tables is chunked to hold at most this many cells.
MAX_STATES = 2**20


class EnumerationLimitError(RuntimeError):
    """The requested table would exceed the exact-enumeration budget."""


class JointTable:
    """A (usually normalized) table over named discrete variables.

    Parameters
    ----------
    names:
        Variable names, one per trailing array axis, in canonical order.
    array:
        Nonnegative values of shape ``batch + tuple(cards)``, where the
        leading ``batch`` axes (none for a single table) index models.
    """

    __slots__ = ("names", "batch", "cards", "array", "_pos", "_marginals")

    def __init__(self, names: Sequence[str], array: np.ndarray):
        self.names = tuple(names)
        self.array = np.asarray(array, dtype=float)
        lead = self.array.ndim - len(self.names)
        if lead < 0:
            raise ValueError("one array axis per variable required")
        self.batch, self.cards = self.array.shape[:lead], self.array.shape[lead:]
        self._pos = {n: i for i, n in enumerate(self.names)}
        self._marginals: dict[frozenset[str], np.ndarray] = {}
        # The budget is per model: a stack is bounded by its caller's chunking.
        states = math.prod(self.cards)
        if states > MAX_STATES:
            raise EnumerationLimitError(
                f"table over {states} states exceeds the "
                f"{MAX_STATES}-state enumeration budget"
            )

    def card(self, name: str) -> int:
        return self.cards[self._pos[name]]

    def total(self):
        """The table's sum; an array of one sum per model for a stack."""
        return self.array.reshape(self.batch + (-1,)).sum(axis=-1)

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """Marginal array over ``names``; axes follow canonical order,
        after the model axes of a stack."""
        key = frozenset(names)
        cached = self._marginals.get(key)
        if cached is not None:
            return cached
        keep = {self._pos[n] for n in key}
        n = len(self.names)
        drop = tuple(i - n for i in range(n) if i not in keep)
        out = self.array.sum(axis=drop) if drop else self.array
        self._marginals[key] = out
        return out

    def placed(self, names: Iterable[str], env: Mapping[str, int], ndim: int) -> np.ndarray:
        """The marginal over ``names`` shaped to broadcast into an
        evaluation grid of ``ndim`` axes that puts variable ``v`` on axis
        ``env[v]``, after the model axes of a stack."""
        key = frozenset(names)
        order = [self.names[i] for i in sorted(self._pos[n] for n in key)]
        lead = len(self.batch)
        perm = sorted(range(len(order)), key=lambda j: env[order[j]])
        arr = self.marginal(key).transpose((*range(lead), *(lead + j for j in perm)))
        shape = [1] * ndim
        for v in order:
            shape[env[v]] = self.card(v)
        return arr.reshape(self.batch + tuple(shape))

    def __repr__(self) -> str:
        return f"JointTable(names={self.names}, cards={self.cards})"
