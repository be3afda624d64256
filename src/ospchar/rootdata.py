"""Root data for osp(2m+1|2n) and osp(2m|2n): Borel subalgebras from
eps-delta sequences, rho vectors, the Weyl group, odd reflections, and the
type-D diagram twist.

Conventions.  The ambient weight space has basis d_1..d_n, e_1..e_m with the
bilinear form (e_i,e_j) = delta_ij, (d_k,d_l) = -delta_kl, (e_i,d_k) = 0.
All Borel subalgebras considered share the even positive system of the
standard one; they are encoded by sequences of n 'd' and m 'e' symbols, with
an optional trailing '-' (family D only, sequence ending in 'd') negating the
right-most e throughout.

A Borel is read off its sequence by one rule (Cheng-Wang, AMS GSM 144, 1.3):
with w_1, ..., w_N the weights of its symbols, its positive odd roots are the
w_i +- w_j (i < j, one d and one e), plus the d_i in family B, and its simple
roots are the w_i - w_{i+1} and one terminal root.

A root is its weight, an ``exactnum.Weight``: it is odd exactly when its total
d-degree is odd, and isotropic roots are odd.  ``root_str`` renders it.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul, sub
from typing import Iterable, Iterator, NamedTuple

from .exactnum import InputError, InternalError, Weight

FAMILY_B = "B"
FAMILY_D = "D"
TYPE_C = "C"


class FamilyMismatch(Exception):
    """An operation specific to one family was invoked on the other."""


class NotSimpleIsotropic(Exception):
    """The reflection root is not an isotropic odd simple root of the Borel."""


# Value types are NamedTuples, hashed and compared as their field tuples.
# Algebra, EpsDeltaSequence and hook.HookPartition validate in __new__ on a
# subclass (NamedTuple forbids __new__ in its own body); _replace and _make
# skip __new__, so the library never calls them on these three.
class _AlgebraFields(NamedTuple):
    family: str
    m: int
    n: int


class Algebra(_AlgebraFields):
    """osp(2m+1|2n) when family is B, osp(2m|2n) when family is D."""

    __slots__ = ()

    def __new__(cls, family: str, m: int, n: int):
        self = super().__new__(cls, family, m, n)
        if self.family not in (FAMILY_B, FAMILY_D):
            raise InputError(f"unknown family {self.family!r}")
        if self.m < 1 or self.n < 1:
            raise InputError("ranks m, n must be positive")
        if self.family == FAMILY_D and self.m < 2:
            raise InputError("family D requires m >= 2")
        return self

    @classmethod
    def parse(cls, text: str) -> "Algebra":
        """Parse 'B:m:n' or 'D:m:n'."""
        parts = text.split(":")
        if len(parts) != 3 or not all(p.strip().isdecimal() for p in parts[1:]):
            raise InputError(f"bad algebra spec {text!r}, expected FAMILY:m:n")
        return cls(parts[0].upper(), int(parts[1]), int(parts[2]))

    @property
    def rank(self) -> int:
        return self.n + self.m

    def label(self) -> str:
        return f"{self.family}:{self.m}:{self.n}"

    def osp_name(self) -> str:
        ell = 2 * self.m + 1 if self.family == FAMILY_B else 2 * self.m
        return f"osp({ell}|{2 * self.n})"


def pairing4(x: Weight, y: Weight) -> int:
    """4(x, y) for the standard form, the sum of e-products minus the sum of
    d-products: an integer on doubled coordinates."""
    if x.n != y.n or x.m != y.m:
        raise ValueError("weight rank mismatch in pairing")
    return sum(a * b for a, b in zip(x.eps, y.eps)) - sum(a * b for a, b in zip(x.delta, y.delta))


@functools.lru_cache(maxsize=None)
def root_str(w: Weight) -> str:
    """Compact form like 'd3-e1', 'd2+e4', 'e1-d1', '2d1'; rendered once
    per root, since tameness reports share their roots across calls."""
    named = [(a, f"d{i}") for i, a in enumerate(w.delta, start=1)]
    named += [(b, f"e{j}") for j, b in enumerate(w.eps, start=1)]
    if any(doubled % 2 for doubled, _ in named):
        raise ValueError(f"root {w.display()} has a half-integral coordinate")
    parts = [(doubled // 2, name) for doubled, name in named if doubled]
    parts.sort(key=lambda t: t[0] < 0)  # positive terms first, axis order kept
    out = ""
    for coef, name in parts:
        sign = "-" if coef < 0 else ("+" if out else "")
        mag = abs(coef)
        out += f"{sign}{'' if mag == 1 else mag}{name}"
    return out or "0"


class _SequenceFields(NamedTuple):
    symbols: tuple[str, ...]
    sign: int


class EpsDeltaSequence(_SequenceFields):
    """An ordering of n 'd' and m 'e' symbols with the type-D sign flag."""

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...], sign: int = 1):
        self = super().__new__(cls, symbols, sign)
        if any(s not in ("d", "e") for s in self.symbols):
            raise ValueError("sequence symbols must be 'd' or 'e'")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.sign == -1:
            if not self.symbols or self.symbols[-1] != "d" or "e" not in self.symbols:
                raise ValueError("sign -1 requires a sequence ending with 'd'")
        return self

    @classmethod
    def parse(cls, text: str) -> "EpsDeltaSequence":
        sign = 1
        if text.endswith("-"):
            sign = -1
            text = text[:-1]
        return cls(tuple(text), sign)

    def __str__(self) -> str:
        return "".join(self.symbols) + ("-" if self.sign == -1 else "")

    @property
    def n(self) -> int:
        return sum(1 for s in self.symbols if s == "d")

    @property
    def m(self) -> int:
        return sum(1 for s in self.symbols if s == "e")

    def numbered(self) -> list[tuple[str, int]]:
        """Symbols with 1-based per-type numbers, left to right."""
        out, nd, ne = [], 0, 0
        for s in self.symbols:
            if s == "d":
                nd += 1
                out.append(("d", nd))
            else:
                ne += 1
                out.append(("e", ne))
        return out


class BorelData(NamedTuple):
    algebra: Algebra
    sequence: EpsDeltaSequence
    simple_roots: tuple[Weight, ...]
    pos_even: frozenset[Weight]
    pos_odd: frozenset[Weight]
    rho: Weight


@functools.lru_cache(maxsize=None)
def _sequence_weights(alg: Algebra, seq: EpsDeltaSequence) -> tuple[Weight, ...]:
    """w_1, ..., w_N: the weight d_i or e_j of each symbol, left to right,
    with e_m negated on a signed sequence.  Read once per (algebra, sequence)."""
    n, m = alg.n, alg.m
    basis = {"d": Weight.basis_delta, "e": Weight.basis_eps}
    return tuple(basis[kind](n, m, i).scale(seq.sign if kind == "e" and i == m else 1) for kind, i in seq.numbered())


def _even_positive_roots(alg: Algebra) -> frozenset[Weight]:
    zero_delta, zero_eps = (0,) * alg.n, (0,) * alg.m
    weights = [Weight.from_doubled(r, zero_eps) for r in _factor_roots(TYPE_C, alg.n)]
    weights += [Weight.from_doubled(zero_delta, r) for r in _factor_roots(alg.family, alg.m)]
    return frozenset(weights)


@functools.lru_cache(maxsize=None)
def borel_from_sequence(alg: Algebra, seq: EpsDeltaSequence) -> BorelData:
    """Construct the full Borel data for an eps-delta sequence.

    With w_1, ..., w_N from ``_sequence_weights``, the positive odd roots
    are w_i - w_j and w_i + w_j for i < j whose symbols differ, plus the w_i
    of the d symbols in family B.  The simple roots are the w_i - w_{i+1},
    then w_N in family B, and in family D 2w_N after a final d, else
    w_{N-1} + w_N.  rho is half the even positive roots' sum minus the odd's.
    Built once per (algebra, sequence); the frozen result is shared.
    """
    if seq.n != alg.n or seq.m != alg.m:
        raise ValueError("sequence does not match algebra ranks")
    if seq.sign == -1 and alg.family != FAMILY_D:
        raise FamilyMismatch("signed sequences exist only in family D")

    w = _sequence_weights(alg, seq)
    kinds = seq.symbols
    pairs = [(wi, wj) for (wi, ki), (wj, kj) in itertools.combinations(zip(w, kinds), 2) if ki != kj]
    odd = [root for wi, wj in pairs for root in (wi - wj, wi + wj)]
    if alg.family == FAMILY_B:
        odd += [wi for wi, kind in zip(w, kinds) if kind == "d"]
        terminal = w[-1]
    else:
        terminal = w[-1].scale(2) if kinds[-1] == "d" else w[-2] + w[-1]

    pos_even = _even_positive_roots(alg)
    pos_odd = frozenset(odd)
    simple_roots = tuple(a - b for a, b in zip(w, w[1:])) + (terminal,)
    for r in simple_roots:
        if r not in pos_even and r not in pos_odd:
            raise InternalError(f"simple root {root_str(r)} not positive for {seq}")

    zero = Weight.zero(alg.n, alg.m)
    total = sum(pos_even, zero) - sum(pos_odd, zero)
    return BorelData(
        algebra=alg,
        sequence=seq,
        simple_roots=simple_roots,
        pos_even=pos_even,
        pos_odd=pos_odd,
        rho=total.half(),
    )


@functools.lru_cache(maxsize=None)
def b_standard(alg: Algebra) -> BorelData:
    """The Borel of the sequence d^n e^m, built once per algebra."""
    return borel_from_sequence(alg, EpsDeltaSequence(("d",) * alg.n + ("e",) * alg.m))


@functools.lru_cache(maxsize=None)
def b_odd(alg: Algebra) -> BorelData:
    """The Borel with the maximal number of isotropic odd simple roots.

    B: (ed)^n with excess symbols prefixed; D: (de)^min with excess prefixed.
    Built once per algebra.
    """
    n, m = alg.n, alg.m
    k = min(n, m)
    if alg.family == FAMILY_B:
        core = ("e", "d") * k
    else:
        core = ("d", "e") * k
    prefix = ("e",) * (m - k) if m > n else ("d",) * (n - k)
    return borel_from_sequence(alg, EpsDeltaSequence(prefix + core))


def all_sequences(alg: Algebra) -> Iterator[EpsDeltaSequence]:
    """Every eps-delta sequence of the algebra, signed variants included, in
    sorted order: the patterns by the positions of their d symbols, which
    ``combinations`` lists in lexicographic order."""
    size = alg.n + alg.m
    for ds in itertools.combinations(range(size), alg.n):
        pattern = tuple("d" if i in ds else "e" for i in range(size))
        yield EpsDeltaSequence(pattern)
        if alg.family == FAMILY_D and pattern[-1] == "d":
            yield EpsDeltaSequence(pattern, sign=-1)


# ---------------------------------------------------------------------------
# The dominant chamber, one Weyl factor at a time
#
# On doubled exponents the closed chamber is a_1 >= ... >= a_n >= 0 on the
# delta axes (type C), b_1 >= ... >= b_m >= 0 on the eps axes in family B,
# and b_1 >= ... >= b_{m-1} >= |b_m| in family D, where W flips eps signs
# only in pairs.  Every W-orbit meets it exactly once.


def height(exp: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Euclidean product with rho: positive on every positive root."""
    return sum(map(mul, exp, rho))


@functools.lru_cache(maxsize=None)
def _sign_vectors(nonzero: tuple[bool, ...], sign_product: int | None) -> tuple[tuple[int, ...], ...]:
    """Every vector of signs that is 1 where nonzero is False; sign_product,
    if given, fixes the product of the signs.  At most 3 * 2^rank keys."""
    vectors = []
    for signs in itertools.product((1, -1), repeat=sum(nonzero)):
        if sign_product is None or math.prod(signs) == sign_product:
            flips = iter(signs)
            vectors.append(tuple(next(flips) if v else 1 for v in nonzero))
    return tuple(vectors)


def _signed_permutations(values: tuple[int, ...], sign_product: int | None) -> tuple[tuple[int, ...], ...]:
    """Distinct signed permutations of values; sign_product, if given, fixes
    the sign of the product of the entries."""
    return tuple(
        tuple(map(mul, perm, vec))
        for perm in set(itertools.permutations(map(abs, values)))
        for vec in _sign_vectors(tuple(map(bool, perm)), sign_product)
    )


class WeylFactor:
    """One factor of W = W(C_n) x W(B_m or D_m): signed permutations of the
    delta axes exp[:n] (kind "C") or of the eps axes exp[n:] (kind "B" or "D",
    whose sign flips come in pairs).  ``rho`` is half the sum of ``roots``.
    One factor is built per (kind, rank), so factors compare by identity.
    Its chamber maps are memoized per factor for the whole process, in
    unbounded tables of tuples, since the seed terms, dominant weights and
    Racah lifts of every character of an algebra share their parts:
    ``dominant``, ``children`` (the cover graph that ``weights_below``
    walks), ``straighten``, ``orbit`` and ``shifts``.
    """

    def __init__(self, kind: str, roots: tuple[tuple[int, ...], ...], rho: tuple[int, ...]):
        self.kind = kind
        self.roots = roots
        self.rho = rho
        # each root with the walls it lowers: (wall index, its pairing > 0)
        self._lowered = tuple(
            (alpha, tuple((k, w) for k, w in enumerate(self._walls(alpha)) if w > 0)) for alpha in roots
        )

    @functools.cached_property
    def shifts(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(height, sgn w, rho - w rho) for every w != 1, lowest first: the
        terms of Racah's recursion.  rho is regular, so each w != 1 is one
        image w rho != rho of its orbit, and sgn w is the sign that
        straightens that image back to rho."""
        shifts = []
        for image in self.orbit(self.rho):
            shift = tuple(a - b for a, b in zip(self.rho, image))
            if any(shift):
                shifts.append((height(shift, self.rho), self.straighten(image)[0], shift))
        return tuple(sorted(shifts))

    @functools.lru_cache(maxsize=None)
    def dominant(self, values: tuple[int, ...]) -> tuple[int, ...]:
        """The image of values in the factor's closed dominant chamber."""
        image = sorted(map(abs, values), reverse=True)
        if self.kind == FAMILY_D and image[-1] and sum(v < 0 for v in values) % 2:
            image[-1] = -image[-1]
        return tuple(image)

    def _walls(self, values: tuple[int, ...]) -> list[int]:
        """The pairings of values with the simple coroots, up to positive
        scale: b_i - b_{i+1}, then b_r (types B and C) or b_{r-1} + b_r (D)."""
        last = values[-2] + values[-1] if self.kind == FAMILY_D else values[-1]
        return [a - b for a, b in zip(values, values[1:])] + [last]

    @functools.lru_cache(maxsize=None)
    def children(self, mu: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The dominant weights mu - alpha, alpha a positive root of the
        factor, for dominant mu: mu - alpha is dominant exactly when mu's
        pairing is at least alpha's on every wall that alpha lowers."""
        walls = self._walls(mu)
        lowers = []
        for alpha, lowered in self._lowered:
            for k, w in lowered:
                if walls[k] < w:
                    break
            else:
                lowers.append(tuple(map(sub, mu, alpha)))
        return tuple(lowers)

    @functools.lru_cache(maxsize=None)
    def straighten(
        self, values: tuple[int, ...], classes: tuple[tuple[int, ...], ...] | None = None, flips: bool = True
    ) -> tuple[int, tuple[int, ...]] | None:
        """(sgn w, w values) for the w, in the group of the sign flips (when
        flips) and the permutations within each class of positions
        (default: one class of every position), that makes every entry
        nonnegative (when flips) and sorts each class into decreasing order;
        or None when an element of sgn -1 fixes values: with flips a zero in
        types B and C, or one entry at two positions of a class.  A flip has
        sgn -1 in types B and C; in type D flips pair up, and an odd count of
        negatives, which a zero absorbs, stays on the last entry after the
        sort.  The defaults give the chamber map."""
        sign, negative_last = 1, False
        if flips:
            odd = sum(v < 0 for v in values) % 2
            if self.kind == FAMILY_D:
                negative_last = odd and 0 not in values
            elif 0 in values:
                return None
            elif odd:
                sign = -1
        image = list(map(abs, values) if flips else values)
        for positions in (None,) if classes is None else classes:
            picked = image if positions is None else [image[c] for c in positions]
            if len(set(picked)) < len(picked):
                return None
            for i, a in enumerate(picked):  # the sort's sign, -1 per inversion
                for b in picked[i + 1 :]:
                    if a < b:
                        sign = -sign
            if positions is None:
                image = sorted(picked, reverse=True)
            else:
                for c, v in zip(positions, sorted(picked, reverse=True)):
                    image[c] = v
        if negative_last:
            image[-1] = -image[-1]
        return sign, tuple(image)

    @functools.lru_cache(maxsize=None)
    def orbit(self, values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The distinct images of values under the factor's Weyl group."""
        sign_product = None
        if self.kind == FAMILY_D and all(values):
            sign_product = -1 if sum(v < 0 for v in values) % 2 else 1
        return _signed_permutations(values, sign_product)

    def weights_below(self, tops: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
        """Every dominant weight below some top in the dominance order,
        reached one positive root at a time while staying dominant: one
        dominant weight covers another only by a positive root (Stembridge,
        Adv. Math. 136 (1998))."""
        seen = set(tops)
        stack = list(seen)
        while stack:
            for lower in self.children(stack.pop()):
                if lower not in seen:
                    seen.add(lower)
                    stack.append(lower)
        return seen


def _factor_roots(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots of type C, B or D on doubled coordinates: x_i - x_j and
    x_i + x_j (i < j), with 2x_i in type C and x_i in type B."""
    unit = [tuple(2 * (i == k) for i in range(rank)) for k in range(rank)]
    roots = []
    for i in range(rank):
        for j in range(i + 1, rank):
            roots.append(tuple(a - b for a, b in zip(unit[i], unit[j])))
            roots.append(tuple(a + b for a, b in zip(unit[i], unit[j])))
    if kind == TYPE_C:
        roots += [tuple(2 * a for a in u) for u in unit]
    elif kind == FAMILY_B:
        roots += unit
    return tuple(roots)


@functools.lru_cache(maxsize=None)
def weyl_factor(kind: str, rank: int) -> WeylFactor:
    """The Weyl factor of type C, B or D and the given rank, built once."""
    roots = _factor_roots(kind, rank)
    return WeylFactor(kind, roots, tuple(sum(col) // 2 for col in zip(*roots)))


def weyl_factors(alg: Algebra) -> tuple[WeylFactor, WeylFactor]:
    """The delta factor W(C_n) and the eps factor W(B_m) or W(D_m)."""
    return weyl_factor(TYPE_C, alg.n), weyl_factor(alg.family, alg.m)


def even_rho(alg: Algebra) -> tuple[int, ...]:
    """rho_0 as a doubled exponent; the same for every Borel considered."""
    delta, eps = weyl_factors(alg)
    return delta.rho + eps.rho


def weyl_orbit(alg: Algebra, exp: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct W-images of exp: delta-orbit times eps-orbit."""
    delta, eps = weyl_factors(alg)
    deltas = delta.orbit(exp[: alg.n])
    return [d + e for d in deltas for e in eps.orbit(exp[alg.n :])]


# ---------------------------------------------------------------------------
# Odd reflections


def odd_reflection(b: BorelData, alpha: Weight, gamma: Weight) -> tuple[BorelData, Weight]:
    """Reflect the Borel at an isotropic odd simple root alpha.

    The reflection at the simple root d - e between positions p and p + 1
    swaps those two symbols; at the family-D terminal root d_n + e_m it
    swaps the last two and signs the sequence.  The new Borel has
    rho' = rho + alpha, so the highest weight of the same module is gamma
    when (gamma, alpha) = 0 and gamma - alpha otherwise.
    """
    if alpha not in b.simple_roots or pairing4(alpha, alpha) != 0:
        raise NotSimpleIsotropic(f"{alpha.display()} is not an isotropic odd simple root")
    p = b.simple_roots.index(alpha)
    symbols = list(b.sequence.symbols)
    sign = b.sequence.sign
    if p == len(symbols) - 1:
        # the terminal root d_n + e_m of an unsigned sequence ending d e
        p, sign = p - 1, -1
    symbols[p], symbols[p + 1] = symbols[p + 1], symbols[p]
    if sign == -1 and symbols[-1] == "e":
        # a signed sequence ending in e denotes the same Borel unsigned
        sign = 1
    b2 = borel_from_sequence(b.algebra, EpsDeltaSequence(tuple(symbols), sign))
    return b2, gamma - alpha if pairing4(gamma, alpha) != 0 else gamma


def _bubble_moves(start: tuple[str, ...], target: tuple[str, ...]) -> Iterator[int]:
    """Adjacent-swap positions turning start into target, one type past the other."""
    cur = list(start)
    for p in range(len(target)):
        if cur[p] == target[p]:
            continue
        q = p
        while cur[q] != target[p]:
            q += 1
        for r in range(q, p, -1):
            yield r - 1
            cur[r - 1], cur[r] = cur[r], cur[r - 1]


@functools.lru_cache(maxsize=None)
def _walk_plan(alg: Algebra, target: EpsDeltaSequence) -> tuple[BorelData, tuple[Weight, ...]]:
    """The target Borel and the roots of ``reflection_walk``'s chain to it, in order."""
    b = b_standard(alg)
    last = len(target.symbols) - 1
    if target.sign == -1:
        em_pos = max(i for i, s in enumerate(target.symbols) if s == "e")
        park = target.symbols[:em_pos] + target.symbols[em_pos + 1 :] + ("e",)
        stages = list(_bubble_moves(b.sequence.symbols, park))
        stages.append(last)  # the terminal root d_n + e_m
        stages += range(last - 2, em_pos - 1, -1)
    else:
        stages = list(_bubble_moves(b.sequence.symbols, target.symbols))

    alphas = []
    for p in stages:
        alphas.append(b.simple_roots[p])
        b = odd_reflection(b, alphas[-1], Weight.zero(alg.n, alg.m))[0]
    if b.sequence != target:
        raise InternalError(f"reflection walk reached {b.sequence}, not {target}")
    return b, tuple(alphas)


def reflection_walk(alg: Algebra, target: EpsDeltaSequence, gamma: Weight) -> tuple[BorelData, Weight]:
    """Carry a standard-Borel highest weight to the target Borel.

    The chain bubble-sorts the sequence, one odd reflection per adjacent
    swap, each at the simple root of the swapped positions; a signed D
    target is reached by first parking e_m at the right end, flipping at
    the terminal root d_n + e_m, and then walking -e_m left into place.
    The chain's roots do not depend on gamma: they are planned once per target.
    """
    b, alphas = _walk_plan(alg, target)
    for alpha in alphas:
        if pairing4(gamma, alpha):
            gamma = gamma - alpha
    return b, gamma


# ---------------------------------------------------------------------------
# Diagram twist (family D)


def sigma_twist(alg: Algebra, obj):
    """Negate the e_m coordinate of a weight, root or Borel."""
    if alg.family != FAMILY_D:
        raise FamilyMismatch("the diagram twist exists only in family D")
    if isinstance(obj, Weight):
        return Weight(obj.delta, obj.eps[:-1] + (-obj.eps[-1],))
    if isinstance(obj, BorelData):
        seq = obj.sequence
        if seq.symbols[-1] == "e":
            return obj
        return borel_from_sequence(alg, EpsDeltaSequence(seq.symbols, -seq.sign))
    raise TypeError(f"cannot twist object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Coordinates in a Borel's simple roots


class NotSimpleRoot(Exception):
    """A root named as a simple root of a Borel is not one of them."""


@functools.lru_cache(maxsize=None)
def _sequence_axes(alg: Algebra, seq: EpsDeltaSequence) -> tuple[tuple[int, int], ...]:
    """(axis, sign) of each sequence weight, sign times a basis vector."""
    keys = [w.exponent_key() for w in _sequence_weights(alg, seq)]
    return tuple((axis, key[axis] // 2) for key in keys for axis in range(len(key)) if key[axis])


def simple_coords4(b: BorelData, x: Weight) -> tuple[int, ...]:
    """4 times the coordinates of x in b's simple roots, which form a basis.

    With w_1, ..., w_N the weights of b's sequence (``_sequence_weights``)
    and x_i the coefficient of w_i in x, the simple roots are the
    w_i - w_{i+1} and a terminal root.  In family B that is w_N, so the i-th
    coordinate is the partial sum x_1 + ... + x_i.  In family D it is 2 w_N
    or w_{N-1} + w_N, and at this fork the last coordinate is half the full
    sum; for w_{N-1} + w_N the one before it is (x_1 + ... + x_{N-1} - x_N) / 2.
    """
    exp = x.exponent_key()
    values = [exp[axis] * sign for axis, sign in _sequence_axes(b.algebra, b.sequence)]
    sums = list(itertools.accumulate(values))  # of doubled entries: 2 * sums[i] is 4 c_i
    coords = [2 * s for s in sums]
    if b.algebra.family == FAMILY_D:
        coords[-1] = sums[-1]
        if b.sequence.symbols[-1] == "e":
            coords[-2] = sums[-2] - values[-1]
    return tuple(coords)


def in_simple_span(b: BorelData, simple_roots: tuple[Weight, ...], x: Weight) -> bool:
    """Whether x lies in the span of some of b's simple roots: its
    coordinates vanish at every other index.  Raises ``NotSimpleRoot`` for a
    root that is not simple in b."""
    try:
        indices = {b.simple_roots.index(r) for r in simple_roots}
    except ValueError:
        raise NotSimpleRoot(f"a root of {[r.display() for r in simple_roots]} is not simple in {b.sequence}") from None
    return not any(c for i, c in enumerate(simple_coords4(b, x)) if i not in indices)
