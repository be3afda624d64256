"""Hook partitions and the dictionary between partitions and highest weights.

An (n|m)-hook partition (lambda_{n+1} <= m) labels a finite-dimensional
integer-weight irreducible.  Its standard highest weight packs the first n
parts on the d-side and the transpose of the remainder on the e-side; the
highest weight with respect to any other sequence Borel comes either from
block Frobenius coordinates (closed form) or from walking odd reflections
(total, and the default elsewhere in this package).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import InputError, Weight
from .rootdata import FAMILY_D, BorelData, EpsDeltaSequence, reflection_walk


class HookViolation(Exception):
    """The partition does not fit the (n|m) hook."""


class UnsupportedCase(Exception):
    """A type-D Borel/sign combination with no closed Frobenius formula."""


def transpose(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition by column counts."""
    if not parts:
        return ()
    out = []
    for col in range(1, parts[0] + 1):
        out.append(sum(1 for p in parts if p >= col))
    return tuple(out)


@dataclass(frozen=True)
class HookPartition:
    parts: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self):
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

    def tail_transpose(self) -> tuple[int, ...]:
        """kappa: the transpose of (lambda_{n+1}, lambda_{n+2}, ...), padded to m."""
        tail = self.parts[self.n :]
        kappa = transpose(tail)
        return kappa + (0,) * (self.m - len(kappa))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def natural_weight(lam: HookPartition) -> tuple[Weight, Weight]:
    """The standard-Borel highest weights (plain, minus-twisted)."""
    delta = [lam.part(i) for i in range(1, lam.n + 1)]
    kappa = lam.tail_transpose()
    minus_kappa = kappa[:-1] + (-kappa[-1],)
    return Weight.from_ints(delta, kappa), Weight.from_ints(delta, minus_kappa)


@dataclass(frozen=True)
class FrobeniusData:
    """Block Frobenius coordinates (p_i | q_j) with the block breakpoints."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    d_cum: tuple[int, ...]
    e_cum: tuple[int, ...]


def frobenius_data(lam: HookPartition, seq: EpsDeltaSequence) -> FrobeniusData:
    """Coordinates for the sequence read as d^{d_1} e^{e_1} ... d^{d_r} e^{e_r}."""
    n, m = lam.n, lam.m
    blocks: list[tuple[int, int]] = []
    i = 0
    symbols = seq.symbols
    while i < len(symbols):
        nd = 0
        while i < len(symbols) and symbols[i] == "d":
            nd += 1
            i += 1
        ne = 0
        while i < len(symbols) and symbols[i] == "e":
            ne += 1
            i += 1
        blocks.append((nd, ne))
    d_cum, e_cum, td, te = [], [], 0, 0
    for nd, ne in blocks:
        td += nd
        te += ne
        d_cum.append(td)
        e_cum.append(te)

    lam_t = transpose(lam.parts)

    def lam_at(i: int) -> int:
        return lam.part(i)

    def lam_t_at(j: int) -> int:
        return lam_t[j - 1] if j <= len(lam_t) else 0

    p = []
    for i in range(1, n + 1):
        u = next(u for u in range(len(blocks)) if i <= d_cum[u])
        e_before = e_cum[u - 1] if u >= 1 else 0
        p.append(max(lam_at(i) - e_before, 0))
    q = []
    for j in range(1, m + 1):
        u = next(u for u in range(len(blocks)) if j <= e_cum[u])
        q.append(max(lam_t_at(j) - d_cum[u], 0))
    return FrobeniusData(tuple(p), tuple(q), tuple(d_cum), tuple(e_cum))


def frobenius_weight(lam: HookPartition, b: BorelData, minus: bool | None = None) -> Weight:
    """Closed-form highest weight via block Frobenius coordinates.

    With minus unset, the Borel's sign flag decides: unsigned Borels carry
    the plain module, signed D Borels carry the minus twin.  Explicitly
    requesting the other pairing on a delta-ending D sequence hits the
    combination with no known closed formula and raises UnsupportedCase.
    """
    alg = b.algebra
    if lam.n != alg.n or lam.m != alg.m:
        raise HookViolation("partition ambient does not match the algebra")
    seq = b.sequence
    signed = seq.sign == -1
    if minus is None:
        minus = signed
    if minus and alg.family != FAMILY_D:
        raise UnsupportedCase("minus twin exists only in family D")
    if alg.family == FAMILY_D and seq.symbols[-1] == "d" and minus != signed:
        raise UnsupportedCase(
            "no closed formula for this sign pairing on a delta-ending sequence"
        )
    fd = frobenius_data(lam, seq)
    q = list(fd.q)
    if minus:
        q[-1] = -q[-1]
    return Weight.from_ints(fd.p, q)


def highest_weight_via_reflections(lam: HookPartition, b: BorelData, minus: bool = False) -> Weight:
    """Highest weight for the target Borel by walking odd reflections."""
    alg = b.algebra
    if lam.n != alg.n or lam.m != alg.m:
        raise HookViolation("partition ambient does not match the algebra")
    plus, minus_w = natural_weight(lam)
    if minus and alg.family != FAMILY_D:
        raise UnsupportedCase("minus twin exists only in family D")
    gamma0 = minus_w if minus else plus
    _, gamma = reflection_walk(alg, b.sequence, gamma0)
    return gamma


def parse_partition(text: str) -> tuple[int, ...]:
    """Comma-separated decimal parts; '0' or '' denotes the empty partition."""
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad partition {text!r}, expected comma-separated integers") from None
    return tuple(p for p in parts if p != 0)


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
