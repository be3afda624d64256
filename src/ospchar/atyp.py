"""Typicality, degree of atypicality, distinguished root sets, and tameness.

The degree of atypicality of a shifted highest weight is the maximum number
of mutually orthogonal isotropic positive roots orthogonal to it.  Mutual
orthogonality forces distinct d-indices and distinct e-indices, so the
degree is a maximum bipartite matching.  On doubled entries a_i, b_j the
edges join |a_i| = |b_j| (a_i = -b_j for the minus roots d_i - e_j alone):
the graph is a disjoint union of complete bipartite graphs, one per value,
and its maximum matching is the multiset intersection of the two sides,
which ``match_equal`` strikes pair by pair from the small int tuples.
``atypicality_degree_brute``, a subset brute force, is its oracle.

The standard-Borel shifted weight lambda + rho is written in one place,
``shifted_weight``, for tameness, the block descent and ``verify``.
Tameness is decided on it by one test, ``shifted_tameness``, which
``is_tame`` and the block descent share: the case "lambda_{n+1} < m" is
read off the weight as kappa_m = 0, that is a last e-entry equal to
rho's.  Orthogonality to d_i -+ e_j is compared on
doubled entries as derived from the pairing, whose (d,d) = -1 sign
convention makes an eyeballed entry comparison wrong; the tests keep the
pairing itself as the oracle.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from operator import neg
from typing import NamedTuple

from .exactnum import InternalError, Weight
from .hook import HookPartition, HookViolation, natural_weight
from .rootdata import (
    FAMILY_B,
    FAMILY_D,
    Algebra,
    BorelData,
    EpsDeltaSequence,
    FamilyMismatch,
    b_odd,
    b_standard,
    borel_from_sequence,
    pairing4,
    root_str,
    sigma_twist,
)


class NotTame(Exception):
    """The requested quantity exists only for tame modules."""


def match_equal(ds: Iterable[int], es: Iterable[int]) -> tuple[int, list[int], list[int]]:
    """The size of a maximum matching of equal entries between ds and es, and
    the entries of each side it leaves: each value class is complete
    bipartite, so matching every d to any equal e still free is maximum."""
    k, left, free = 0, [], list(es)
    for d in ds:
        if d in free:
            free.remove(d)
            k += 1
        else:
            left.append(d)
    return k, left, free


def atypicality_degree(shifted: Weight) -> int:
    """Maximum matching of |d-entries| against |e-entries| of the shifted weight."""
    return match_equal(map(abs, shifted.delta), map(abs, shifted.eps))[0]


class TamenessReport(NamedTuple):
    atypicality_k: int
    tame: bool
    witness_borel: BorelData | None
    distinguished_T: tuple[Weight, ...] | None
    e_lambda: int | None
    j_lambda: int | None

    def to_json(self) -> dict:
        return {
            "k": self.atypicality_k,
            "tame": self.tame,
            "T": None if self.distinguished_T is None else [root_str(r) for r in self.distinguished_T],
            "e": self.e_lambda,
            "j": self.j_lambda,
        }


def e_of_lambda(lam: HookPartition) -> int:
    """i(lambda') - i*(lambda') with empty maxima read as 0; always 0 or 1.

    Only lambda'_i for i <= m is read, and lambda'_i counts the parts >= i,
    so the cost does not grow with lambda_1.
    """
    m, n = lam.m, lam.n
    t = [sum(1 for p in lam.parts if p >= i) for i in range(1, m + 1)]
    i_ge = max((i for i in range(1, m + 1) if t[i - 1] - i + m - n >= 0), default=0)
    i_gt = max((i for i in range(1, m + 1) if t[i - 1] - i + m - n > 0), default=0)
    e = i_ge - i_gt
    if e not in (0, 1):
        raise InternalError(f"e(lambda) = {e}, expected 0 or 1")
    return e


def _j_value(alg: Algebra, k: int, e_val: int | None) -> int:
    """j from k >= 1 and the report's e, which is None unless the family is D
    and lambda_{n+1} < m."""
    if alg.family == FAMILY_B:
        return math.factorial(k) * 2**k
    if e_val is not None:
        return math.factorial(k) * 2 ** (k - 1 + e_val)
    return 1


def _d_case_ii_index(shifted: Weight, alg: Algebra) -> int | None:
    """The i with (shifted, d_i + e_m) = 0, that is a_i = b_m on doubled
    entries, if any; unique for hook weights."""
    b_m = shifted.eps[-1]
    hits = [i for i, a in enumerate(shifted.delta, start=1) if a == b_m]
    if not hits:
        return None
    if len(hits) > 1:
        raise InternalError("multiple d_i + e_m atypical pairs")
    return hits[0]


def _case_34_borel(alg: Algebra, i: int) -> BorelData:
    """The Borel d_1..d_{i-1} e_1..e_{m-1} d_i (-e_m) d_{i+1}..d_n.

    For i = n the sequence ends with e_m and the sign mark is vacuous.
    """
    n, m = alg.n, alg.m
    symbols = ("d",) * (i - 1) + ("e",) * (m - 1) + ("d", "e") + ("d",) * (n - i)
    sign = 1 if i == n else -1
    return borel_from_sequence(alg, EpsDeltaSequence(symbols, sign))


def shifted_weight(lam: HookPartition, alg: Algebra) -> Weight:
    """lambda + rho of the plain module on the standard Borel."""
    return natural_weight(lam)[0] + b_standard(alg).rho


def shifted_tameness(shifted: Weight, alg: Algebra) -> tuple[int, bool, int | None]:
    """(k, tame, case-ii index) of the plain module's standard-Borel shifted
    weight.  Below the family-D pair case only the minus roots count; there
    (kappa_m > 0, lambda_{n+1} = m) a tame weight has k = 1 and the pair
    d_i + e_m, whose i is returned."""
    k = atypicality_degree(shifted)
    if k == 0:
        return 0, True, None
    if alg.family == FAMILY_B or shifted.eps[-1] == b_standard(alg).rho.eps[-1]:
        # only the minus roots d_i - e_j, orthogonal when a_i = -b_j
        return k, match_equal(map(neg, shifted.delta), shifted.eps)[0] == k, None
    i = _d_case_ii_index(shifted, alg)
    return k, i is not None and k == 1, i


@functools.lru_cache(maxsize=None)
def _distinguished_T(alg: Algebra, k: int, case_ii_index: int | None) -> tuple[Weight, ...]:
    """The distinguished set T of a tame weight: it depends only on
    (algebra, k, case-ii index), so each is built once and shared."""
    n, m = alg.n, alg.m
    if case_ii_index is not None:
        return (Weight.basis_delta(n, m, case_ii_index) + Weight.basis_eps(n, m, m),)
    roots = []
    for i in range(1, k + 1):
        d = Weight.basis_delta(n, m, n - k + i)
        e = Weight.basis_eps(n, m, m - k + i)
        roots.append(e - d if alg.family == FAMILY_B else d - e)
    return tuple(roots)


def is_tame(lam: HookPartition, alg: Algebra, minus: bool = False) -> TamenessReport:
    """Classify L of the plain (or minus-twisted) natural weight.

    The case and k come from ``shifted_tameness``; this is the one place
    that decides the witness, T, e, j and the twist: the minus flag applies
    sigma to the witness Borel and T, tameness itself being symmetric under
    the diagram twist.  Typical modules come back tame with an empty
    distinguished set and j = 1.
    """
    if lam.n != alg.n or lam.m != alg.m:
        raise HookViolation("partition ambient does not match the algebra")
    if minus and alg.family != FAMILY_D:
        raise FamilyMismatch("minus twin exists only in family D")

    k, tame, case_ii_index = shifted_tameness(shifted_weight(lam, alg), alg)
    e_val = e_of_lambda(lam) if alg.family == FAMILY_D and lam.part(alg.n + 1) < alg.m else None

    if k == 0:
        return TamenessReport(0, True, None, (), e_val, 1)
    if not tame:
        return TamenessReport(k, False, None, None, e_val, None)

    witness = _case_34_borel(alg, case_ii_index) if case_ii_index is not None else b_odd(alg)
    T = _distinguished_T(alg, k, case_ii_index)
    j = _j_value(alg, k, e_val)
    if minus:
        witness = sigma_twist(alg, witness)
        T = tuple(sigma_twist(alg, r) for r in T)
    return TamenessReport(k, True, witness, T, e_val, j)


# Brute-force oracle.  No production path calls it; it stays in the library
# because the benchmark's correctness check (perfbench/oracles.py) imports it.


def atypicality_degree_brute(shifted: Weight, alg: Algebra, borel: BorelData | None = None) -> int:
    """Exhaustive search over sets of mutually orthogonal isotropic positive
    roots orthogonal to the shifted weight."""
    b = borel if borel is not None else b_standard(alg)
    orth = [
        r
        for r in sorted(b.pos_odd, key=Weight.exponent_key)
        if pairing4(r, r) == 0 and pairing4(shifted, r) == 0
    ]

    def grow(idx: int, chosen: list[Weight]) -> int:
        best = len(chosen)
        for t in range(idx, len(orth)):
            cand = orth[t]
            if all(pairing4(cand, c) == 0 for c in chosen):
                chosen.append(cand)
                best = max(best, grow(t + 1, chosen))
                chosen.pop()
        return best

    return grow(0, [])
