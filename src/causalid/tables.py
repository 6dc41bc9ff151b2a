"""Dense probability tables over finite variable domains.

A :class:`JointTable` stores a nonnegative array with one axis per variable,
variables kept in a fixed canonical order (the owning graph's index order).
Marginals are cached per variable subset since estimand evaluation asks for
the same ones repeatedly.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["JointTable", "EnumerationLimitError"]

# Full product domains above this size are refused rather than enumerated.
MAX_STATES = 2**20


class EnumerationLimitError(RuntimeError):
    """The requested table would exceed the exact-enumeration budget."""


class JointTable:
    """A (usually normalized) table over named discrete variables.

    Parameters
    ----------
    names:
        Variable names, one per array axis, in canonical order.
    array:
        Nonnegative values of shape ``tuple(cards)``.
    """

    __slots__ = ("names", "cards", "array", "_pos", "_marginals")

    def __init__(self, names: Sequence[str], array: np.ndarray):
        self.names = tuple(names)
        self.array = np.asarray(array, dtype=float)
        if self.array.ndim != len(self.names):
            raise ValueError("one array axis per variable required")
        self.cards = self.array.shape
        self._pos = {n: i for i, n in enumerate(self.names)}
        self._marginals: dict[frozenset[str], np.ndarray] = {}
        if np.size(self.array) > MAX_STATES:
            raise EnumerationLimitError(
                f"table over {np.size(self.array)} states exceeds the "
                f"{MAX_STATES}-state enumeration budget"
            )

    def card(self, name: str) -> int:
        return self.cards[self._pos[name]]

    def total(self) -> float:
        return float(self.array.sum())

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """Marginal array over ``names``; axes follow canonical order."""
        key = frozenset(names)
        cached = self._marginals.get(key)
        if cached is not None:
            return cached
        keep = sorted(self._pos[n] for n in key)
        drop = tuple(i for i in range(len(self.names)) if i not in keep)
        out = self.array.sum(axis=drop) if drop else self.array
        self._marginals[key] = out
        return out

    def placed(self, names: Iterable[str], env: Mapping[str, int], ndim: int) -> np.ndarray:
        """The marginal over ``names`` shaped to broadcast into an
        evaluation grid of ``ndim`` axes that puts variable ``v`` on axis
        ``env[v]``."""
        key = frozenset(names)
        order = [self.names[i] for i in sorted(self._pos[n] for n in key)]
        arr = self.marginal(key).transpose(np.argsort([env[v] for v in order]))
        shape = [1] * ndim
        for v in order:
            shape[env[v]] = self.card(v)
        return arr.reshape(shape)

    def __repr__(self) -> str:
        return f"JointTable(names={self.names}, cards={self.cards})"
