"""Reference implementations the library's production paths are checked
against.  None of them runs in production, and no library module imports
this file.

- A sparse Laurent polynomial type (``LaurentPolynomial``), the expansion
  of an orbit form into one (``expand_orbits``, ``character``) and its text
  rendering (``monomial_text``): the library keeps every character in orbit
  form and renders it from there.
- Laurent polynomial arithmetic (``monomial``, ``poly_sum``, ``scaled``,
  ``poly_product``, ``evaluate_at_one``), the expanded Weyl denominators
  (``denominators``) and the even half sum rho_0 of a Borel (``rho_even``),
  which the library keeps only as root data.
- Coordinates in a basis of weights by Gauss-Jordan elimination over
  ``Fraction`` (``coords_in_basis``), against the library's integer
  simple-root coordinates.
- Exact long division of Laurent polynomials (``exact_divide``,
  ``divide_by_factors``), the route the character pipeline replaced.
- The Weyl group element by element (``weyl_group``) and the naive signed
  sum over it (``weyl_alternating_sum``).
- The chamber maps of a whole weight, one Weyl factor's map per part
  (``dominant``, ``straighten``), which production applies part by part.
- An exponent map applied to a polynomial (``map_exponents``) and the
  diagram twist of a polynomial (``sigma_twist_poly``).
- The reflection walk one ``odd_reflection`` at a time
  (``reflection_walk_by_steps``), against the library's walk replayed from
  its plan.
- The closed Frobenius form of a Borel highest weight (``frobenius_weight``),
  against the odd-reflection walk of ``hook.highest_weight_via_reflections``.
- The naive character pipeline: the fully expanded seed product
  (``cleared_seed``), whole Weyl sum (``naive_numerator``), long division by
  the factors of D_0, then division by j (``naive_cleared_sum``).
- The formula over an arbitrary Borel and distinguished set
  (``kw_character_with_borel``), for Borel-independence checks.
- Weyl's dimension formula on the alternant form (``weyl_dimension``).
- Supersymmetry of supercharacters (``supersymmetry_violations``).
- The multiset matching of equal entries by ``Counter`` intersection
  (``matched_values``) and the natural weight built index by index
  (``natural_weight_by_index``), against the library's plain-tuple forms.
- Atypicality and tameness from their definitions: orthogonality edges read
  off the pairing (``pairing_edges``), a maximum matching by trying every
  edge subset (``max_matching_brute``), the case split read off the
  partition (``tameness_by_pairing``), and Kac-Wakimoto's tameness
  condition checked on every Borel (``tame_by_definition``).
- Every eps-delta sequence from every permutation of the symbols
  (``all_sequences_by_permutations``), against the library's enumeration by
  the positions of the d symbols.
- The block descent one hook partition at a time, with a whole
  ``is_tame`` report per step (``bottom_of_block_by_partitions``), against
  the library's descent on shifted weights.
- The parity invariant e(lambda) read off the whole transpose
  (``e_by_transpose``), and the even nilradical of the canonical parabolic
  listed root by root from the cut points of the witness Borel
  (``even_nilradical_by_hand``).
- A root's parity from its d-degree (``root_parity``), which the library
  never stores.
- A diagnostic, not a check: strict positivity of a tame weight against the
  even nilradical of its canonical parabolic (``admissibility_positivity``),
  which fails on some tame weights (B:3:3, (5)).
- The argv grammar as argparse reads it (``_parsers``, the CLI's former
  parsers, unchanged, and their dispatch, ``parse_argv_by_argparse``), against
  the CLI's table-driven ``parse_argv``.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator

from ospchar.atyp import NotTame, atypicality_degree_brute, is_tame
from ospchar.blocks import BottomStep, BottomTrace, partition_from_shifted
from ospchar.characters import CharacterResult, _divided_orbits, _seed, canonical_levi_roots
from ospchar.cli import _cmd_block_family, _cmd_bottom, _cmd_character, _cmd_classify, _cmd_verify
from ospchar.exactnum import InternalError, NotDivisible, Weight
from ospchar.hook import HookPartition, HookViolation, highest_weight_via_reflections, natural_weight, transpose
from ospchar.rootdata import (
    FAMILY_D,
    Algebra,
    BorelData,
    EpsDeltaSequence,
    FamilyMismatch,
    _bubble_moves,
    all_sequences,
    b_standard,
    borel_from_sequence,
    in_simple_span,
    odd_reflection,
    pairing4,
    weyl_factors,
    weyl_orbit,
)

# ---------------------------------------------------------------------------
# Laurent polynomials and the expansion of an orbit form


class LaurentPolynomial:
    """Finitely supported Z-valued function on the rank-r half-integer lattice.

    ``terms`` maps doubled exponent tuples to nonzero int coefficients.  The
    canonical form (no zero coefficients) makes ``==`` mathematical equality.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[tuple[int, ...], int] | None = None):
        self.rank = rank
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, coef in terms.items():
                if coef:
                    if len(exp) != rank:
                        raise ValueError("exponent rank mismatch")
                    clean[exp] = coef
        self.terms = clean

    @classmethod
    def _adopt(cls, rank: int, terms: dict[tuple[int, ...], int]) -> "LaurentPolynomial":
        """Wrap a dict already in canonical form (nonzero coefficients, exponents
        of length rank) without copying or checking it; the caller hands it over."""
        p = cls.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is structural

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending leading-term (lex, delta axes first) order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPolynomial(0)"
        parts = [f"{c}*e{list(e)}" for e, c in self.sorted_terms()[:6]]
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return "LaurentPolynomial(" + " + ".join(parts) + more + ")"


def expand_orbits(alg: Algebra, orbits: dict[tuple[int, ...], int]) -> LaurentPolynomial:
    """The polynomial sum_mu c_mu sum_{x in W mu} e^x of an orbit form
    {dominant mu: nonzero c_mu}."""
    terms: dict[tuple[int, ...], int] = {}
    for mu, coef in orbits.items():
        for exp in weyl_orbit(alg, mu):
            terms[exp] = coef
    return LaurentPolynomial._adopt(alg.rank, terms)


def character(cr: CharacterResult) -> LaurentPolynomial:
    """The character of a result, its orbit form expanded."""
    return expand_orbits(cr.borel_used.algebra, cr.orbits)


def monomial_text(p: LaurentPolynomial, n: int, m: int) -> str:
    """Render in the variables x_i = e^{e_i}, y_j = e^{d_j}.

    Exponents print doubled-halved, so x1^(1/2) can occur in denominators.
    """

    def power(name: str, doubled: int) -> str:
        if doubled == 0:
            return ""
        if doubled == 2:
            return name
        if doubled % 2 == 0:
            return f"{name}^{doubled // 2}"
        return f"{name}^({doubled}/2)"

    chunks = []
    for exp, coef in p.sorted_terms():
        factors = [power(f"y{j + 1}", exp[j]) for j in range(n)]
        factors += [power(f"x{i + 1}", exp[n + i]) for i in range(m)]
        factors = [f for f in factors if f]
        body = "*".join(factors)
        if not body:
            chunks.append(str(coef))
        elif coef == 1:
            chunks.append(body)
        elif coef == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{coef}*{body}")
    return " + ".join(chunks).replace("+ -", "- ") if chunks else "0"


# ---------------------------------------------------------------------------
# Coordinates in a basis of weights


def coords_in_basis(basis: list[Weight], target: Weight) -> list[Fraction] | None:
    """Coordinates of target in the given independent weights, or None."""
    rank = target.n + target.m
    rows = [[Fraction(w.exponent_key()[i], 2) for w in basis] for i in range(rank)]
    rhs = [Fraction(v, 2) for v in target.exponent_key()]
    ncols = len(basis)
    # Gauss-Jordan elimination over Fractions
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row >= rank:
            break
        pivot_row = next((r for r in range(row, rank) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        rhs[row], rhs[pivot_row] = rhs[pivot_row], rhs[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        rhs[row] = rhs[row] * inv
        for r in range(rank):
            if r != row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
                rhs[r] = rhs[r] - factor * rhs[row]
        pivots.append((row, col))
        row += 1

    coords = [Fraction(0)] * ncols
    for row, c in pivots:
        coords[c] = rhs[row]
    # exact verification by direct evaluation; also guards dependent input
    total = [Fraction(0)] * rank
    for c, w in zip(coords, basis):
        for i, v in enumerate(w.exponent_key()):
            total[i] += c * Fraction(v, 2)
    for got, want in zip(total, (Fraction(v, 2) for v in target.exponent_key())):
        if got != want:
            return None
    return coords


# ---------------------------------------------------------------------------
# Laurent polynomial arithmetic


def monomial(w: Weight, c: int = 1) -> LaurentPolynomial:
    """The single-term element c*e^w; zero c gives the zero element."""
    return LaurentPolynomial(w.n + w.m, {w.exponent_key(): c})


def poly_sum(*polys: LaurentPolynomial) -> LaurentPolynomial:
    """The sum of one or more polynomials of one rank."""
    out: dict[tuple[int, ...], int] = {}
    for p in polys:
        for exp, coef in p.terms.items():
            out[exp] = out.get(exp, 0) + coef
    return LaurentPolynomial(polys[0].rank, out)


def scaled(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    return LaurentPolynomial(p.rank, {exp: k * coef for exp, coef in p.terms.items()})


def poly_product(*polys: LaurentPolynomial) -> LaurentPolynomial:
    """The product of one or more polynomials of one rank."""
    rank = polys[0].rank
    out = {(0,) * rank: 1}
    for p in polys:
        if p.rank != rank:
            raise ValueError("polynomial rank mismatch")
        step: dict[tuple[int, ...], int] = {}
        for e1, c1 in out.items():
            for e2, c2 in p.terms.items():
                exp = tuple(map(add, e1, e2))
                step[exp] = step.get(exp, 0) + c1 * c2
        out = step
    return LaurentPolynomial(rank, out)


def evaluate_at_one(p: LaurentPolynomial) -> int:
    """Substitute every e^g -> 1, i.e. sum all coefficients."""
    return sum(p.terms.values())


def denominators(b: BorelData) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Expanded product forms of the even and odd Weyl denominators."""
    odd = [poly_sum(monomial(r.half()), monomial(-r.half())) for r in b.pos_odd]
    return poly_product(*even_factors(b)), poly_product(*odd)


def rho_even(b: BorelData) -> Weight:
    """rho_0: half the sum of b's positive even roots."""
    total = Weight.zero(b.algebra.n, b.algebra.m)
    for r in b.pos_even:
        total = total + r
    return total.half()


# ---------------------------------------------------------------------------
# Exact long division


def _cwise_min(exps: Iterator[tuple[int, ...]], rank: int) -> tuple[int, ...]:
    mins = None
    for e in exps:
        if mins is None:
            mins = list(e)
        else:
            for i, v in enumerate(e):
                if v < mins[i]:
                    mins[i] = v
    if mins is None:
        raise InternalError("componentwise minimum of an empty support")
    return tuple(mins)


def exact_divide(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial:
    """Return q with q*den == num, exactly.

    Long division along the lex leading-term order on doubled exponent
    vectors (delta axes before eps axes).  A quotient term escaping the
    componentwise box forced by the support minima, or a coefficient that
    den's leading coefficient does not divide, proves non-divisibility.
    """
    if num.rank != den.rank:
        raise ValueError("polynomial rank mismatch")
    if not den.terms:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if not num.terms:
        return LaurentPolynomial(num.rank)

    rank = num.rank
    num_min = _cwise_min(iter(num.terms), rank)
    den_min = _cwise_min(iter(den.terms), rank)
    # componentwise floor for quotient exponents: min(q) = min(num) - min(den)
    q_floor = tuple(a - b for a, b in zip(num_min, den_min))

    lead = max(den.terms)
    lead_coef = den.terms[lead]
    tail = [(e, c) for e, c in den.terms.items() if e != lead]

    rem = dict(num.terms)
    heap = [tuple(-v for v in e) for e in rem]
    heapq.heapify(heap)
    quotient: dict[tuple[int, ...], int] = {}

    while heap:
        exp = tuple(-v for v in heapq.heappop(heap))
        coef = rem.pop(exp, 0)
        if not coef:
            continue
        q_exp = tuple(a - b for a, b in zip(exp, lead))
        if any(q < f for q, f in zip(q_exp, q_floor)):
            raise NotDivisible("remainder does not vanish")
        q_coef, mod = divmod(coef, lead_coef)
        if mod:
            raise NotDivisible("leading coefficient does not divide")
        quotient[q_exp] = q_coef
        for t_exp, t_coef in tail:
            exp2 = tuple(a + b for a, b in zip(q_exp, t_exp))
            new = rem.get(exp2, 0) - q_coef * t_coef
            if new:
                if exp2 not in rem:
                    heapq.heappush(heap, tuple(-v for v in exp2))
                rem[exp2] = new
            else:
                rem.pop(exp2, None)

    if rem:
        raise NotDivisible("remainder does not vanish")
    return LaurentPolynomial(rank, quotient)


def divide_by_factors(num: LaurentPolynomial, factors: Iterable[LaurentPolynomial]) -> LaurentPolynomial:
    """Divide sequentially by each factor of a product-form denominator."""
    out = num
    for f in factors:
        out = exact_divide(out, f)
    return out


# ---------------------------------------------------------------------------
# The Weyl group, element by element

WeylAction = Callable[[tuple[int, ...]], tuple[int, ...]]


def _signed_permutations(rank: int, paired_flips: bool) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(perm, signs) of every signed permutation of rank axes; with
    paired_flips only those with an even number of sign flips."""
    for perm in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            if not paired_flips or math.prod(signs) == 1:
                yield perm, signs


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def weyl_group(alg: Algebra) -> tuple[tuple[int, WeylAction], ...]:
    """Every w in W = W(C_n) x W(B_m or D_m) as (sgn w, w acting on a doubled
    exponent).  w sends d_i to delta_signs[i] d_{delta_perm[i]} (0-based),
    and likewise on the eps axes, whose sign flips pair up in family D."""
    n = alg.n

    def element(dp, ds, ep, es) -> WeylAction:
        # place t of the image holds signs[i] * exp[i] for the i with perm[i] = t
        perm, signs = dp + tuple(n + k for k in ep), ds + es
        sources = sorted(range(len(perm)), key=perm.__getitem__)
        take, place_signs = itemgetter(*sources), tuple(signs[i] for i in sources)
        return lambda exp: tuple(map(mul, place_signs, take(exp)))

    out = []
    for dp, ds in _signed_permutations(n, False):
        for ep, es in _signed_permutations(alg.m, alg.family == FAMILY_D):
            sign = _perm_sign(dp) * _perm_sign(ep) * math.prod(ds) * math.prod(es)
            out.append((sign, element(dp, ds, ep, es)))
    return tuple(out)


def dominant(alg: Algebra, exp: tuple[int, ...]) -> tuple[int, ...]:
    """The image of exp in the closed dominant chamber."""
    delta, eps = weyl_factors(alg)
    return delta.dominant(exp[: alg.n]) + eps.dominant(exp[alg.n :])


def straighten(alg: Algebra, exp: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """(sgn w, w exp) for the w carrying exp into the open dominant chamber,
    so that the alternant of exp is sgn(w) times that of w exp; None when a
    reflection fixes exp, since its alternant vanishes."""
    delta, eps = weyl_factors(alg)
    d = delta.straighten(exp[: alg.n])
    e = eps.straighten(exp[alg.n :]) if d else None
    if e is None:
        return None
    return d[0] * e[0], d[1] + e[1]


def weyl_alternating_sum(alg: Algebra, p: LaurentPolynomial) -> LaurentPolynomial:
    """The signed sum of all Weyl images of p, iterating W once."""
    out: dict[tuple[int, ...], int] = {}
    for s, act in weyl_group(alg):
        for exp, coef in p.terms.items():
            key = act(exp)
            new = out.get(key, 0) + s * coef
            if new:
                out[key] = new
            else:
                del out[key]
    return LaurentPolynomial(p.rank, out)


def map_exponents(p: LaurentPolynomial, fn: WeylAction) -> LaurentPolynomial:
    """Apply a bijective lattice map to every exponent; coefficients kept."""
    out = {fn(exp): coef for exp, coef in p.terms.items()}
    if len(out) != len(p.terms):
        raise ValueError("exponent map is not injective on the support")
    return LaurentPolynomial._adopt(p.rank, out)


def sigma_twist_poly(alg: Algebra, p: LaurentPolynomial) -> LaurentPolynomial:
    """The diagram twist of a polynomial: negate the e_m exponent of every
    term (family D only)."""
    if alg.family != FAMILY_D:
        raise FamilyMismatch("the diagram twist exists only in family D")
    last = alg.n + alg.m - 1

    def flip(exp: tuple[int, ...]) -> tuple[int, ...]:
        return exp[:last] + (-exp[last],)

    return map_exponents(p, flip)


# ---------------------------------------------------------------------------
# The reflection walk one odd reflection at a time


def reflection_walk_by_steps(alg: Algebra, target: EpsDeltaSequence, gamma: Weight) -> tuple[BorelData, Weight]:
    """``rootdata.reflection_walk`` without its plan: the same chain from the
    standard Borel, each step an ``odd_reflection`` that carries gamma."""
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

    for p in stages:
        b, gamma = odd_reflection(b, b.simple_roots[p], gamma)
    if b.sequence != target:
        raise InternalError(f"reflection walk reached {b.sequence}, not {target}")
    return b, gamma


# ---------------------------------------------------------------------------
# The closed Frobenius form of a Borel highest weight


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
    combination with no known closed formula and raises ValueError.
    """
    alg = b.algebra
    if lam.n != alg.n or lam.m != alg.m:
        raise HookViolation("partition ambient does not match the algebra")
    seq = b.sequence
    signed = seq.sign == -1
    if minus is None:
        minus = signed
    if minus and alg.family != FAMILY_D:
        raise FamilyMismatch("minus twin exists only in family D")
    if alg.family == FAMILY_D and seq.symbols[-1] == "d" and minus != signed:
        raise ValueError("no closed formula for this sign pairing on a delta-ending sequence")
    fd = frobenius_data(lam, seq)
    q = list(fd.q)
    if minus:
        q[-1] = -q[-1]
    return Weight.from_ints(fd.p, q)


# ---------------------------------------------------------------------------
# The naive character pipeline


def even_factors(b: BorelData) -> list[LaurentPolynomial]:
    """The factors e^{alpha/2} - e^{-alpha/2} of D_0, one per positive even root."""
    return [poly_sum(monomial(r.half()), monomial(-r.half(), -1)) for r in b.pos_even]


def cleared_seed(b: BorelData, lam_b: Weight, excluded) -> LaurentPolynomial:
    """e^{lam_b + rho_0} prod_{pos odd minus excluded}(1 + e^{-beta}), where
    rho_0 = rho + rho_1."""
    zero = Weight.zero(b.algebra.n, b.algebra.m)
    binomials = [poly_sum(monomial(zero), monomial(-r)) for r in b.pos_odd if r not in excluded]
    return poly_product(monomial(lam_b + rho_even(b)), *binomials)


def kw_character_with_borel(
    lam: HookPartition,
    alg: Algebra,
    b: BorelData,
    T: tuple[Weight, ...],
    j: int,
    minus: bool = False,
) -> LaurentPolynomial:
    """The formula for an arbitrary Borel and distinguished set, through the
    production pipeline; no tameness screening.  For Borel-independence checks."""
    lam_b = highest_weight_via_reflections(lam, b, minus=minus)
    return expand_orbits(b.algebra, _divided_orbits(b.algebra, _seed(b, lam_b, frozenset(T)), j))


def naive_numerator(b: BorelData, lam_b: Weight, excluded) -> LaurentPolynomial:
    """The whole Weyl sum of the seed: D_0 j times the character."""
    return weyl_alternating_sum(b.algebra, cleared_seed(b, lam_b, excluded))


def naive_cleared_sum(b: BorelData, lam_b: Weight, excluded, j: int = 1) -> LaurentPolynomial:
    """The whole Weyl sum of the seed, long division by the factors of D_0,
    then division by j."""
    alg = b.algebra
    quotient = divide_by_factors(naive_numerator(b, lam_b, excluded), even_factors(b))
    out = {}
    for exp, coef in quotient.terms.items():
        q, r = divmod(coef, j)
        if r:
            raise NotDivisible(f"coefficient {coef} at {exp} not divisible by {j}")
        out[exp] = q
    return LaurentPolynomial(alg.rank, out)


def weyl_dimension(alg: Algebra, alternants: dict[tuple[int, ...], int], j: int) -> Fraction:
    """(1/j) sum_nu c_nu prod_{alpha in D_0^+} (nu, alpha) / (rho_0, alpha).

    Weyl's dimension formula for each A_nu / A_{rho_0} of the alternant form
    sum_nu c_nu A_nu, so it bypasses the Racah recursion, the orbit sizes and
    the orbit-wise division by j.
    """
    b = b_standard(alg)
    rho_0 = rho_even(b)
    total = Fraction(0)
    for nu, coef in alternants.items():
        x = Weight.from_doubled(nu[: alg.n], nu[alg.n :])
        term = Fraction(coef)
        for r in b.pos_even:
            term *= Fraction(pairing4(x, r), pairing4(rho_0, r))
        total += term
    return total / j


# ---------------------------------------------------------------------------
# Supersymmetry (Sergeev-Veselov, Ann. Math. 174 (2011))


def supersymmetry_violations(sc: LaurentPolynomial, n: int, m: int) -> list[tuple[int, int, int]]:
    """The (i, j, s), 0-based, for which substituting e^{eps_i} = t and
    e^{delta_j} = t^s (s = +-1) into sc leaves a term of nonzero t-degree.

    A supercharacter of a finite-dimensional module is supersymmetric: it
    does not depend on t after each such substitution.  Exponents are
    doubled, so the t-degree of e^x is x_{eps_i} + s x_{delta_j}, halved.
    """
    bad = []
    for i in range(m):
        for j in range(n):
            for s in (1, -1):
                reduced: dict[tuple[tuple[int, ...], int], int] = {}
                for exp, coef in sc.terms.items():
                    degree = exp[n + i] + s * exp[j]
                    if not degree:
                        continue
                    rest = tuple(v for axis, v in enumerate(exp) if axis not in (j, n + i))
                    key = (rest, degree)
                    reduced[key] = reduced.get(key, 0) + coef
                if any(reduced.values()):
                    bad.append((i, j, s))
    return bad


# ---------------------------------------------------------------------------
# Multiset matching and the natural weight, built the first way


def matched_values(ds: Iterable[int], es: Iterable[int]) -> Counter:
    """The values of a maximum matching of equal entries between ds and es,
    with multiplicity: each value class is complete bipartite and gives the
    smaller of its two counts."""
    return Counter(ds) & Counter(es)


def natural_weight_by_index(lam: HookPartition) -> tuple[Weight, Weight]:
    """The standard-Borel highest weights (plain, minus-twisted): lambda_i
    for each i <= n, then kappa, the transpose of (lambda_{n+1}, ...) padded
    to m, with its last entry negated in the minus twin."""
    delta = [lam.part(i) for i in range(1, lam.n + 1)]
    kappa = transpose(lam.parts[lam.n :])
    kappa = kappa + (0,) * (lam.m - len(kappa))
    minus_kappa = kappa[:-1] + (-kappa[-1],)
    return Weight.from_ints(delta, kappa), Weight.from_ints(delta, minus_kappa)


# ---------------------------------------------------------------------------
# Atypicality and tameness from their definitions


def pairing_edges(shifted: Weight, alg: Algebra, minus_only: bool) -> dict[int, set[int]]:
    """The definition: (i, j), 0-based, is an edge when d_i - e_j, or (unless
    minus_only) d_i + e_j, is orthogonal to the shifted weight."""
    n, m = alg.n, alg.m
    edges: dict[int, set[int]] = {}
    for i in range(1, n + 1):
        di = Weight.basis_delta(n, m, i)
        for j in range(1, m + 1):
            ej = Weight.basis_eps(n, m, j)
            if pairing4(shifted, di - ej) == 0 or (not minus_only and pairing4(shifted, di + ej) == 0):
                edges.setdefault(i - 1, set()).add(j - 1)
    return edges


def max_matching_brute(edges: dict[int, set[int]]) -> int:
    """The most edges with pairwise distinct ends, trying every edge subset
    from the largest possible size down."""
    pairs = [(i, j) for i in edges for j in edges[i]]
    for size in range(min(len(edges), len({j for _, j in pairs})), 0, -1):
        for combo in itertools.combinations(pairs, size):
            if len({i for i, _ in combo}) == size == len({j for _, j in combo}):
                return size
    return 0


def tameness_by_pairing(lam: HookPartition, alg: Algebra) -> tuple[int, bool, int | None]:
    """(k, tame, case-ii index) of the plain module, the case read off the
    partition: unless the family is D and lambda_{n+1} = m, a tame weight has
    k mutually orthogonal minus roots d_i - e_j orthogonal to it; otherwise
    it has k = 1 and the one d_i + e_m orthogonal to it, whose i is
    returned."""
    n, m = alg.n, alg.m
    shifted = natural_weight_by_index(lam)[0] + b_standard(alg).rho
    k = max_matching_brute(pairing_edges(shifted, alg, False))
    if k == 0:
        return 0, True, None
    if alg.family != FAMILY_D or lam.part(n + 1) < m:
        return k, max_matching_brute(pairing_edges(shifted, alg, True)) == k, None
    em = Weight.basis_eps(n, m, m)
    hits = [i for i in range(1, n + 1) if pairing4(shifted, Weight.basis_delta(n, m, i) + em) == 0]
    (index,) = hits or [None]
    return k, index is not None and k == 1, index


def root_parity(r: Weight) -> int:
    """A root's parity from its definition: its total d-degree modulo 2
    (0 even, 1 odd)."""
    return sum(r.delta) // 2 % 2


def tame_by_definition(lam: HookPartition, alg: Algebra) -> bool:
    """Kac-Wakimoto's definition: L(lambda) is tame when some Borel b has k
    mutually orthogonal isotropic odd simple roots orthogonal to
    lambda_b + rho_b, where k is the degree of atypicality.

    Every Borel is tried, signed ones included, each with the highest weight
    of the plus module: pairing signed Borels with the minus twin instead
    gives a false answer (D:2:2, (2,2,2,2)).
    """
    k = atypicality_degree_brute(natural_weight(lam)[0] + b_standard(alg).rho, alg)
    for seq in all_sequences(alg):
        b = borel_from_sequence(alg, seq)
        shifted = highest_weight_via_reflections(lam, b) + b.rho
        orth = [
            r
            for r in b.simple_roots
            if root_parity(r) == 1 and pairing4(r, r) == 0 and pairing4(shifted, r) == 0
        ]
        for subset in itertools.combinations(orth, k):
            if all(pairing4(x, y) == 0 for x, y in itertools.combinations(subset, 2)):
                return True
    return False


def e_by_transpose(lam: HookPartition) -> int:
    """The definition of e(lambda): i(lambda') - i*(lambda'), the largest
    i <= m with lambda'_i - i + m - n >= 0, resp. > 0 (0 when none), on the
    full transpose lambda'."""
    m, n = lam.m, lam.n
    lam_t = transpose(lam.parts)

    def t(i: int) -> int:
        return lam_t[i - 1] if i <= len(lam_t) else 0

    i_ge = max((i for i in range(1, m + 1) if t(i) - i + m - n >= 0), default=0)
    i_gt = max((i for i in range(1, m + 1) if t(i) - i + m - n > 0), default=0)
    return i_ge - i_gt


def even_nilradical_by_hand(lam: HookPartition, alg: Algebra) -> list[Weight]:
    """The positive even roots outside the canonical Levi of a tame atypical
    weight, by its cut points: the Levi holds the last n - d_cut delta axes
    and the last m - e_cut eps axes.  Family B cuts k axes of each kind (and
    keeps the short roots e_q of the cut eps axes), family D with
    lambda_{n+1} < m cuts k delta axes and k + e eps axes, and family D with
    lambda_{n+1} = m has no even Levi root."""
    n, m = alg.n, alg.m
    k = atypicality_degree_brute(natural_weight(lam)[0] + b_standard(alg).rho, alg)
    if alg.family != FAMILY_D:
        d_cut, e_cut, short_eps = n - k, m - k, True
    elif lam.part(n + 1) < m:
        d_cut, e_cut, short_eps = n - k, m - k - e_by_transpose(lam), False
    else:
        d_cut, e_cut, short_eps = n, m, False
    d = [Weight.basis_delta(n, m, i) for i in range(1, n + 1)]
    e = [Weight.basis_eps(n, m, s) for s in range(1, m + 1)]
    roots = []
    for i, j in itertools.combinations(range(n), 2):
        if i < d_cut:
            roots += [d[i] - d[j], d[i] + d[j]]
    roots += [d[p].scale(2) for p in range(d_cut)]
    for s, t in itertools.combinations(range(m), 2):
        if s < e_cut:
            roots += [e[s] - e[t], e[s] + e[t]]
    if short_eps:
        roots += e[:e_cut]
    return roots


def admissibility_positivity(lam: HookPartition, alg: Algebra) -> tuple[bool, Weight | None]:
    """Check strict positivity of the shifted weight against the even
    nilradical roots of the canonical parabolic: the positive even roots
    outside the span of ``canonical_levi_roots``, tried in descending
    exponent order; returns the first violation as a witness."""
    report = is_tame(lam, alg)
    if not report.tame or report.atypicality_k == 0:
        raise NotTame("positivity check applies to tame modules with k >= 1")
    b = report.witness_borel
    shifted = highest_weight_via_reflections(lam, b) + b.rho
    levi = canonical_levi_roots(b, report)
    nilradical = [r for r in b.pos_even if not in_simple_span(b, levi, r)]
    for r in sorted(nilradical, key=Weight.exponent_key, reverse=True):
        # (shifted, r) / (r, r) > 0, read off the sign of a product of integers
        if not pairing4(shifted, r) * pairing4(r, r) > 0:
            return False, r
    return True, None


# ---------------------------------------------------------------------------
# Sequences and the block descent, built the first way


def all_sequences_by_permutations(alg: Algebra) -> Iterator[EpsDeltaSequence]:
    """Every eps-delta sequence of the algebra, signed variants included, from
    all (m + n)! permutations of the symbols, deduplicated and sorted."""
    for pattern in sorted(set(itertools.permutations("d" * alg.n + "e" * alg.m))):
        yield EpsDeltaSequence(tuple(pattern))
        if alg.family == FAMILY_D and pattern[-1] == "d":
            yield EpsDeltaSequence(tuple(pattern), sign=-1)


def bottom_of_block_by_partitions(lam: HookPartition, alg: Algebra) -> BottomTrace:
    """The descent to the bottom of the block one hook partition at a time:
    each step rebuilds the shifted weight from the partition and asks
    ``is_tame`` for its whole report."""
    rho = b_standard(alg).rho
    steps = []
    current = lam
    while not is_tame(current, alg).tame:
        shifted = natural_weight(current)[0] + rho
        a_vals, b_vals = list(shifted.delta), list(shifted.eps)
        chosen = min(bv for bv in b_vals if bv > 0 and bv in a_vals and -bv not in a_vals)
        j, i = b_vals.index(chosen), a_vals.index(chosen)
        x = 0 if alg.family == FAMILY_D else 1
        while x in b_vals[j + 1 :] or -x in a_vals:
            x += 2
        if x > chosen:
            raise InternalError("no admissible replacement value")
        new_a = sorted(a_vals[:i] + a_vals[i + 1 :] + [-x], reverse=True)
        new_b = sorted(b_vals[:j] + b_vals[j + 1 :] + [x], reverse=True)
        after = Weight.from_doubled(new_a, new_b)
        steps.append(BottomStep(shifted, chosen, x, after))
        current = partition_from_shifted(after, alg)
    return BottomTrace(tuple(steps), current)


# ---------------------------------------------------------------------------
# The argv grammar


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built on
    first use and shared: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="ospchar",
        description="Tame-module classification and exact character evaluation "
        "for ortho-symplectic Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True, help="B:m:n or D:m:n")
        p.add_argument("--partition", required=True, help="comma-separated parts, 0 for trivial")
        p.add_argument("--output", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="tameness report for a highest weight")
    common(p)
    p.add_argument("--minus", action="store_true", help="use the minus twin (family D)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bottom", help="descend to the tame bottom of the block")
    common(p)
    p.set_defaults(func=_cmd_bottom)

    p = sub.add_parser("character", help="evaluate the character formula")
    common(p)
    p.add_argument("--minus", action="store_true", help="use the minus twin (family D)")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("block-family", help="the finite tame family of a D-type k=1 block")
    common(p)
    p.set_defaults(func=_cmd_block_family)

    p = sub.add_parser("verify", help="run the built-in identity suite")
    p.add_argument("--algebra", help="restrict to one algebra")
    p.add_argument("--max-rank", type=int, default=2, help="rank sweep bound without --algebra")
    p.add_argument("--max-size", type=int, default=4, help="partition size bound for equalities")
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify)
    return parser, sub.choices


def parse_argv_by_argparse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the CLI parsed it with argparse: by the named command's
    own parser when the command comes first, else by the top-level one."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
