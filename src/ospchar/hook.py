"""Hook partitions and the dictionary between partitions and highest weights.

An (n|m)-hook partition (lambda_{n+1} <= m) labels a finite-dimensional
integer-weight irreducible.  Its standard highest weight packs the first n
parts on the d-side and the transpose of the remainder on the e-side; the
highest weight with respect to any other sequence Borel comes from walking
odd reflections.  The closed block-Frobenius form is kept in the tests as
the oracle for that walk.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactnum import InputError, Weight
from .rootdata import FAMILY_D, BorelData, FamilyMismatch, reflection_walk


class HookViolation(Exception):
    """The partition does not fit the (n|m) hook."""


def transpose(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition by column counts."""
    if not parts:
        return ()
    out = []
    for col in range(1, parts[0] + 1):
        out.append(sum(1 for p in parts if p >= col))
    return tuple(out)


class _HookFields(NamedTuple):
    parts: tuple[int, ...]
    n: int
    m: int


class HookPartition(_HookFields):
    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...], n: int, m: int):
        self = super().__new__(cls, parts, n, m)
        if any(p < 0 for p in self.parts):
            raise HookViolation("negative part")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise HookViolation("parts must be weakly decreasing")
        if self.parts and self.parts[-1] == 0:
            raise HookViolation("trailing zeros must be trimmed")
        if self.part(self.n + 1) > self.m:
            raise HookViolation(
                f"lambda_{self.n + 1} = {self.part(self.n + 1)} exceeds m = {self.m}"
            )
        return self

    @classmethod
    def of(cls, parts, n: int, m: int) -> "HookPartition":
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return cls(parts, n, m)

    def part(self, i: int) -> int:
        """1-based part, 0 beyond the last."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def size(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def natural_weight(lam: HookPartition) -> tuple[Weight, Weight]:
    """The standard-Borel highest weights (plain, minus-twisted): the head
    padded to n, then kappa, the tail's column counts padded to m (the tail
    parts are at most m), with the last entry negated in the minus twin."""
    head = [2 * p for p in lam.parts[: lam.n]]
    delta = tuple(head + [0] * (lam.n - len(head)))
    kappa = [0] * lam.m
    for p in lam.parts[lam.n :]:
        for col in range(p):
            kappa[col] += 2
    plus = Weight(delta, tuple(kappa))
    kappa[-1] = -kappa[-1]
    return plus, Weight(delta, tuple(kappa))


def highest_weight_via_reflections(lam: HookPartition, b: BorelData, minus: bool = False) -> Weight:
    """Highest weight for the target Borel by walking odd reflections."""
    alg = b.algebra
    if lam.n != alg.n or lam.m != alg.m:
        raise HookViolation("partition ambient does not match the algebra")
    plus, minus_w = natural_weight(lam)
    if minus and alg.family != FAMILY_D:
        raise FamilyMismatch("minus twin exists only in family D")
    gamma0 = minus_w if minus else plus
    _, gamma = reflection_walk(alg, b.sequence, gamma0)
    return gamma


def parse_partition(text: str) -> tuple[int, ...]:
    """Comma-separated decimal parts, kept as given; '0' or '' denotes the
    empty partition.  ``HookPartition.of`` trims trailing zeros and rejects
    a zero before a nonzero part."""
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad partition {text!r}, expected comma-separated integers") from None


def hook_partitions(n: int, m: int, max_size: int):
    """All (n|m)-hook partitions with at most max_size boxes."""

    def gen(remaining: int, largest: int, prefix: list[int]):
        yield tuple(prefix)
        for p in range(min(largest, remaining), 0, -1):
            if len(prefix) >= n and p > m:
                continue
            prefix.append(p)
            yield from gen(remaining - p, p, prefix)
            prefix.pop()

    for parts in gen(max_size, max_size, []):
        yield HookPartition(parts, n, m)
