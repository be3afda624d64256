"""Exact weight vectors, their ``p/2`` rendering, and the library's errors.

Everything here is pure integer arithmetic: a half-integer is stored doubled,
as an int, both in weight coordinates and in the exponent tuples of the
characters, so no rational or floating arithmetic ever occurs.  All values
are immutable and safe to share.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, NamedTuple


class NotDivisible(Exception):
    """An exact division is not guaranteed: a remainder would be left."""


class InternalError(Exception):
    """A step produced data the underlying theory rules out."""


class InputError(ValueError):
    """A malformed or out-of-range input: an algebra spec or a partition."""


def half_str(doubled: int) -> str:
    """Render the half-integer doubled/2 as ``p`` or ``p/2``."""
    if doubled % 2 == 0:
        return str(doubled // 2)
    return f"{doubled}/2"


class Weight(NamedTuple):
    """A vector a_1 d_1 + ... + a_n d_n + b_1 e_1 + ... + b_m e_m.

    ``delta`` holds the d-coefficients, ``eps`` the e-coefficients, each
    half-integer stored doubled as an int.  The rank pair (n, m) is implicit
    in the tuple lengths.
    """

    delta: tuple[int, ...]
    eps: tuple[int, ...]

    @classmethod
    def zero(cls, n: int, m: int) -> "Weight":
        return cls((0,) * n, (0,) * m)

    @classmethod
    def basis_delta(cls, n: int, m: int, i: int) -> "Weight":
        """d_i for 1-based i."""
        d = [0] * n
        d[i - 1] = 2
        return cls(tuple(d), (0,) * m)

    @classmethod
    def basis_eps(cls, n: int, m: int, j: int) -> "Weight":
        """e_j for 1-based j."""
        e = [0] * m
        e[j - 1] = 2
        return cls((0,) * n, tuple(e))

    @classmethod
    def from_doubled(cls, delta: Iterable[int], eps: Iterable[int]) -> "Weight":
        return cls(tuple(delta), tuple(eps))

    @classmethod
    def from_ints(cls, delta: Iterable[int], eps: Iterable[int]) -> "Weight":
        return cls(tuple([2 * d for d in delta]), tuple([2 * e for e in eps]))

    @property
    def n(self) -> int:
        return len(self.delta)

    @property
    def m(self) -> int:
        return len(self.eps)

    def _check(self, other: "Weight") -> None:
        if len(self.delta) != len(other.delta) or len(self.eps) != len(other.eps):
            raise ValueError("weight rank mismatch")

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(map(add, self.delta, other.delta)), tuple(map(add, self.eps, other.eps)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(map(sub, self.delta, other.delta)), tuple(map(sub, self.eps, other.eps)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.delta), tuple(-a for a in self.eps))

    def scale(self, k: int) -> "Weight":
        return Weight(tuple(a * k for a in self.delta), tuple(a * k for a in self.eps))

    def half(self) -> "Weight":
        """Exact halving; every doubled entry must be even."""
        if any(a % 2 for a in self.delta + self.eps):
            raise ValueError("weight is not halvable in the half-integer lattice")
        return Weight(tuple(a // 2 for a in self.delta), tuple(a // 2 for a in self.eps))

    def exponent_key(self) -> tuple[int, ...]:
        """Doubled exponent vector, delta axes first."""
        return self.delta + self.eps

    def display(self) -> str:
        """Paper-style rendering ``(a_1,...,a_n|b_1,...,b_m)`` with halves as p/2."""
        left = ",".join(map(half_str, self.delta))
        right = ",".join(map(half_str, self.eps))
        return f"({left}|{right})"
