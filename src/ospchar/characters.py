"""Exact evaluation of the alternating-sum character formula.

The formula ch = (1/j) D_0^{-1} sum_w sgn(w) w(e^{s} / prod_{T}(1 + e^{-beta}))
is evaluated with denominators cleared: the odd denominator identity
e^{rho_1} prod_{pos odd}(1 + e^{-beta}) = D_1 turns the T-quotient into the
complementary product, the seed e^{lambda_b + rho_0} prod_{pos odd minus
T}(1 + e^{-beta}).  Only its alternants matter, so before a factor is
multiplied in, the terms may be carried by any w in W that fixes the
product of the factors still to come, times sgn(w); a term that such a w of
sgn -1 fixes drops out.  With sym(beta) = e^{beta/2} + e^{-beta/2}, the seed
is e^{x_0} prod sym(beta), x_0 = lambda_b + rho_0 - sum beta/2, and the two
lines d_i -+ e_j multiply to the quad e^{d_i} + e^{-d_i} + e^{e_j} + e^{-e_j},
which every coordinate flip fixes; a line in no quad is a single.  Read the
factors still to come as a grid, row i through d_i and column j through e_j,
each cell a quad, a single d_i + e_j or d_i - e_j, or empty.  Two rows are
twins when they agree cell by cell and both or neither hold the single d_i
(family B), two columns when they agree cell by cell; any permutation of
twin rows, or of twin columns, fixes the product, with its sign.
``_seed_plan`` lists the factors once per (Borel, T), the singles first (d_i
alone last), then the quads row by row, the rows T touches first, each with
the twin classes from it on and, once no single is left, the flips.  ``_seed`` runs them in
one loop: before each factor it flips every entry of a term nonnegative, if
allowed, and sorts each twin class (``WeylFactor.straighten``).
The numerator is W-antisymmetric and the character W-invariant, so only the
dominant chamber is computed, in three steps, each one factor of
W = W(C_n) x W(B_m or D_m) at a time (``rootdata.WeylFactor``): every
alternant A_nu = sum_w sgn(w) e^{w nu} is A^delta_{nu_delta} A^eps_{nu_eps},
and so is D_0 = A_{rho_0}.

1. Straighten.  A signed sort of the delta and the eps part carries each
   seed term into the open dominant chamber (``_straightened``, through
   each factor's ``WeylFactor.straighten``); terms on a wall are dropped.
   The numerator becomes sum_nu c_nu A_nu.
2. Racah.  For one factor, comparing the coefficient of e^{mu + rho} in
   q A_rho = numerator gives, for dominant mu in decreasing height,
   m_mu = c_{mu + rho} - sum_{w != 1} sgn(w) m_{dom(mu + rho - w rho)}
   (Moody-Patera, Bull. AMS 7 (1982)).  The recursion is vector-valued:
   a coefficient and a multiplicity are {label: int}, so each dominant
   weight of a factor is visited once.  The eps recursion runs once, its
   numerator keyed by nu_eps and labelled by nu_delta; the delta recursion
   runs once over the nu_delta missing from ``_DELTA_CHARACTERS``, each
   labelled by itself.  m_mu sums, over the labels, the delta multiplicity
   times the eps one.  That table and the per-factor maps are shared by
   every character of the process: the dominant weights below the tops are
   walked down ``WeylFactor.children`` (mu to the dominant mu - alpha); a
   final m_mu is kept, for this recursion only, at each point of its orbit,
   where each lift mu + rho - w rho, above mu, is one lookup.
3. Orbits.  Each m_mu is divided by j exactly.  The orbit form
   {dominant mu: m_mu / j} is the product: ``CharacterResult`` stores it,
   its dimension is sum_mu (m_mu / j) |W mu|, and the CLI's JSON and text
   are streamed from it row by row, by one walk (``_rows``) with two term
   renderers (``orbits_json``, ``orbits_text``): the eps exponents of all the
   eps-orbits that occur are sorted and rendered once, each dominant delta
   part gets one template, the pieces between the delta slots of its terms
   in that order, and each point of its delta-orbit joins them as one row,
   in descending order.  Peak memory is the templates plus one row.  The
   library holds no polynomial type: a character is its orbit form throughout.

Divisibility by D_0 is proved, not tried: before the recursion every
nu - rho_0 is checked to lie in the weight lattice of g_0 (integral delta
coordinates; eps coordinates all integral or all half-odd).  Such a nu - rho_0
is dominant integral, so by the Weyl character formula A_nu / A_{rho_0} is
the character of a finite-dimensional g_0-module, a Laurent polynomial.  An
alternant outside the lattice raises ``NotDivisible``, as its division is not
guaranteed; none occurs for a highest weight lambda_b, because every seed
exponent is lambda_b + rho_0 minus a sum of odd roots.  The division by j
stays a checked exact division.  The naive Weyl sum, the long division and
the recursion over all of W at once are the oracles for this pipeline; they
live in the tests (``tests/oracles.py``), not here.
"""

from __future__ import annotations

import functools
from itertools import compress
from typing import Iterator, NamedTuple
from operator import add

from .exactnum import InternalError, NotDivisible, Weight
from .hook import HookPartition, highest_weight_via_reflections, natural_weight
from .atyp import NotTame, TamenessReport, is_tame
from .rootdata import (
    FAMILY_D,
    Algebra,
    BorelData,
    WeylFactor,
    b_standard,
    even_rho,
    height,
    in_simple_span,
    root_str,
    weyl_factors,
)


class JDivisibilityFailure(Exception):
    """A weight multiplicity of the divided alternating sum is not divisible by j."""


class CharacterResult(NamedTuple):
    """A character in Weyl-orbit form: ``orbits`` maps each dominant weight
    (doubled exponent) to its nonzero multiplicity."""

    orbits: dict[tuple[int, ...], int]
    highest_weight: Weight
    borel_used: BorelData
    T_used: tuple[Weight, ...]
    j_used: int
    atypicality_k: int

    @property
    def dimension(self) -> int:
        alg = self.borel_used.algebra
        delta, eps = weyl_factors(alg)
        n = alg.n
        return sum(
            coef * len(delta.orbit(mu[:n])) * len(eps.orbit(mu[n:])) for mu, coef in self.orbits.items()
        )

    def to_json(self) -> dict:
        """Every field but the character, which ``orbits_json`` writes."""
        return {
            "hw": self.highest_weight.display(),
            "borel": str(self.borel_used.sequence),
            "T": [root_str(r) for r in self.T_used],
            "j": self.j_used,
            "dim": str(self.dimension),
        }


def _rows(alg: Algebra, orbits: dict[tuple[int, ...], int], tails, head, fill, lead) -> Iterator[str]:
    """The terms c_mu e^x, x in W mu, of an orbit form {dominant mu: nonzero
    c_mu} in descending lex order, one row per delta point d, each term with
    its own separator and lead(row) for the first row.

    Descending lex order sorts by the delta part first, and the coefficient of
    e^{(w d, e)} equals that of e^{(d, e)} for w in the delta factor.  So the
    eps terms of a dominant delta part are rendered once, as a template, and
    each d in its delta-orbit fills its delta slots as fill(pieces, d).  The
    eps exponents of every orbit that occurs are sorted and rendered once, by
    tails(exponents), a term's text after its delta slot; head(c_mu) is the
    text before it.  A template is [head, tail + head, ..., tail] over the
    terms it fills, in that sorted order.
    """
    n = alg.n
    delta, eps = weyl_factors(alg)
    eps_orbits = {mu[n:]: eps.orbit(mu[n:]) for mu in orbits}
    exps = sorted([e for orbit in eps_orbits.values() for e in orbit], reverse=True)
    rank = {e: i for i, e in enumerate(exps)}
    texts = tails(exps)
    slots_of = {mu_eps: [rank[e] for e in orbit] for mu_eps, orbit in eps_orbits.items()}
    groups: dict[tuple[int, ...], list[tuple[list[int], int]]] = {}
    for mu, coef in orbits.items():
        groups.setdefault(mu[:n], []).append((slots_of[mu[n:]], coef))
    templates = {}
    for mu_delta, group in groups.items():
        heads: list[str | None] = [None] * len(exps)
        for slots, coef in group:
            text = head(coef)
            for i in slots:
                heads[i] = text
        filled_heads, filled_tails = list(filter(None, heads)), list(compress(texts, heads))
        templates[mu_delta] = [filled_heads[0], *map(add, filled_tails, filled_heads[1:]), filled_tails[-1]]
    points = sorted([(d, mu_delta) for mu_delta in templates for d in delta.orbit(mu_delta)], reverse=True)
    for k, (d, mu_delta) in enumerate(points):
        row = fill(templates[mu_delta], d)
        yield row if k else lead(row)


def orbits_json(alg: Algebra, orbits: dict[tuple[int, ...], int]) -> Iterator[str]:
    """Compact JSON text of the terms of an orbit form (``_rows``), each
    {"coef": str(c), "exp": [...]} with sorted keys, in pieces: "[", each
    row, "]"."""
    point = ",".join(["%d"] * alg.n)
    tail = ",%d" * alg.m + "]}"
    yield "["
    yield from _rows(
        alg,
        orbits,
        lambda exps: [tail % e for e in exps],
        lambda coef: f',{{"coef":"{coef}","exp":[',
        lambda pieces, d: (point % d).join(pieces),
        lambda row: row[1:],
    )
    yield "]"


def _monomial(names: list[str], exp: tuple[int, ...]) -> str:
    return "*".join(
        name if d == 2 else f"{name}^{d // 2}" if d % 2 == 0 else f"{name}^({d}/2)" for name, d in zip(names, exp) if d
    )


def orbits_text(alg: Algebra, orbits: dict[tuple[int, ...], int]) -> Iterator[str]:
    """The terms of an orbit form (``_rows``) in the variables x_i = e^{e_i},
    y_j = e^{d_j}, in pieces, joined by + and -; "0" when there are none.
    Exponents print halved, so x1^(1/2) and x1^(-1/2) can occur.  A term is
    its sign, |c| unless |c| is 1, and the y part, then the x part."""
    if not orbits:
        return iter(["0"])
    xs = [f"x{i + 1}" for i in range(alg.m)]
    ys = [f"y{i + 1}" for i in range(alg.n)]

    def head(coef: int) -> str:
        sign = " - " if coef < 0 else " + "
        return sign if coef in (1, -1) else f"{sign}{abs(coef)}*"

    def fill(pieces: list[str], d: tuple[int, ...]) -> str:
        if any(d):
            return _monomial(ys, d).join(pieces)
        # the zero delta point has no y part: '@*' goes, a coefficient alone
        # drops its '*', and a sign alone gets its 1
        return "@".join(pieces).replace("@*", "").replace("*@", "").replace("@", "1")

    return _rows(
        alg,
        orbits,
        lambda exps: ["*" + x if x else "" for x in (_monomial(xs, e) for e in exps)],
        head,
        fill,
        lambda row: "-" + row[3:] if row.startswith(" - ") else row[3:],
    )


@functools.lru_cache(maxsize=None)
def _seed_plan(b: BorelData, excluded: frozenset[Weight]) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The seed's factors (module docstring), built once per (Borel,
    excluded set): the offset rho_0 - sum_R beta/2, and one step
    (delta_classes, eps_classes, flips, moves) per factor, the singles in
    exponent order, those of d_i alone last, then the quads row by row, the
    rows T touches first.
    The classes are the twin rows and twin columns, each of two or more
    positions, of the factors still to come, this one included; flips holds
    once no single is left; each move is the (position, change) pairs of one
    term of the factor."""
    if not excluded <= b.pos_odd:
        raise InternalError(f"excluded roots are not positive for {b.sequence}")
    alg = b.algebra
    n = alg.n
    halves = sorted(tuple(v // 2 for v in r.exponent_key()) for r in b.pos_odd - excluded)  # beta/2, doubled
    offset = tuple(rho - sum(half[t] for half in halves) for t, rho in enumerate(even_rho(alg)))
    lines: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for half in halves:
        # an odd root's one nonzero delta coordinate comes first, then at most one eps coordinate
        nonzero = [t for t, v in enumerate(half) if v]
        lines.setdefault((nonzero[0], nonzero[-1]), []).append(half)
    # kinds[i][k] is the factor still to come in row i: at k = 0 the single
    # d_i (family B), at k = j + 1 the line through e_j; 2 for a quad, else
    # the single's sign on d_i times its sign there, 0 for none
    kinds = [[0] * (alg.m + 1) for _ in range(n)]
    singles, quads = [], []
    for (i, c), on_line in lines.items():
        k = c - n + 1 if c >= n else 0
        if len(on_line) == 1:
            (half,) = on_line
            kinds[i][k] = half[i] * half[c]
            singles.append(((i, k), tuple(tuple((t, s * v) for t, v in enumerate(half) if v) for s in (1, -1))))
        else:
            kinds[i][k] = 2
            quads.append(((i, k), tuple(((t, s),) for t in (i, c) for s in (2, -2))))
    singles.sort(key=lambda single: single[0][1] == 0)  # d_i alone last: the columns stay twins
    quads.sort(key=lambda quad: (min(kinds[quad[0][0]][1:]) == 2, quad[0]))  # the rows T touches first
    steps = []
    for s, ((i, k), moves) in enumerate(singles + quads):
        twins = []
        for grid in (kinds, list(zip(*kinds))[1:]):  # the rows, then the columns
            groups: dict[tuple[int, ...], list[int]] = {}
            for p, kind in enumerate(grid):
                groups.setdefault(tuple(kind), []).append(p)
            twins.append(tuple(tuple(g) for g in groups.values() if len(g) > 1))
        steps.append((*twins, s >= len(singles), moves))
        kinds[i][k] = 0
    return offset, tuple(steps)


def _seed(b: BorelData, lam_b: Weight, excluded: frozenset[Weight]) -> dict[tuple[int, ...], int]:
    """Terms with the W-alternants of the seed e^{lam_b + rho_0} prod_{pos odd
    minus excluded}(1 + e^{-beta}), expanded from its plan (module docstring):
    before each factor the terms are straightened by the step's twin classes
    and flips, if it has any, then multiplied by the factor's moves."""
    offset, steps = _seed_plan(b, excluded)
    terms = {tuple(map(add, lam_b.exponent_key(), offset)): 1}
    for delta_classes, eps_classes, flips, moves in steps:
        if delta_classes or eps_classes or flips:
            terms = _straightened(b.algebra, terms, delta_classes, eps_classes, flips)
        out: dict[tuple[int, ...], int] = {}
        for exp, coef in terms.items():
            for move in moves:
                x = list(exp)
                for k, v in move:
                    x[k] += v
                key = tuple(x)
                new = out.get(key, 0) + coef
                if new:
                    out[key] = new
                else:
                    del out[key]
        terms = out
    return terms


def _straightened(
    alg: Algebra, terms: dict[tuple[int, ...], int], delta_classes=None, eps_classes=None, flips: bool = True
) -> dict[tuple[int, ...], int]:
    """Each term's delta and eps parts carried by ``WeylFactor.straighten``
    with the given classes and flips, by default into the open chamber, which
    gives the c_nu of sum_w sgn(w) w(terms) = sum_nu c_nu A_nu.  Dropped
    terms and zeros are merged away."""
    n = alg.n
    delta, eps = weyl_factors(alg)
    out: dict[tuple[int, ...], int] = {}
    for exp, coef in terms.items():
        d = delta.straighten(exp[:n], delta_classes, flips)
        e = d and eps.straighten(exp[n:], eps_classes, flips)
        if e is None:
            continue
        key = d[1] + e[1]
        new = out.get(key, 0) + d[0] * e[0] * coef
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _divided_orbits(alg: Algebra, seed: dict[tuple[int, ...], int], j: int) -> dict[tuple[int, ...], int]:
    """Orbit form {dominant mu: m_mu / j} of (1/j) D_0^{-1} sum_w sgn(w) w(seed),
    the seed given as its terms {doubled exponent: coefficient}.

    Raises ``NotDivisible`` when a surviving alternant lies outside
    rho_0 + (weight lattice of g_0), and ``JDivisibilityFailure`` when a
    multiplicity is not divisible by j.
    """
    orbits = {}
    for mu, mult in _dominant_multiplicities(alg, _straightened(alg, seed)).items():
        quotient, rest = divmod(mult, j)
        if rest:
            raise JDivisibilityFailure(f"coefficient {mult} at {mu} not divisible by {j}")
        orbits[mu] = quotient
    return orbits


def _in_weight_lattice(n: int, exp: tuple[int, ...]) -> bool:
    """Doubled exponent in the weight lattice of g_0: sp(2n) x so(2m[+1])."""
    return all(v % 2 == 0 for v in exp[:n]) and len({v % 2 for v in exp[n:]}) == 1


# {(delta factor, nu_delta): the character {dominant mu: multiplicity} of A_nu / A_rho}
_DELTA_CHARACTERS: dict[tuple[WeylFactor, tuple[int, ...]], dict[tuple[int, ...], int]] = {}


def _dominant_multiplicities(
    alg: Algebra, alternants: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    """Dominant weight multiplicities of sum_nu c_nu A_nu / A_{rho_0}, one
    Weyl factor at a time (module docstring, step 2)."""
    n = alg.n
    rho = even_rho(alg)
    eps_numerator: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for nu, coef in alternants.items():
        top = tuple(a - b for a, b in zip(nu, rho))
        if not _in_weight_lattice(n, top):
            raise NotDivisible(f"alternant at {nu} lies outside rho_0 + the weight lattice of g_0")
        eps_numerator.setdefault(nu[n:], {})[nu[:n]] = coef
    delta, eps = weyl_factors(alg)
    eps_by_label: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for mu_eps, by_label in _racah(eps, eps_numerator).items():
        for nu_delta, b in by_label.items():
            eps_by_label.setdefault(nu_delta, []).append((mu_eps, b))
    missing = {d: {d: 1} for d in eps_by_label if (delta, d) not in _DELTA_CHARACTERS}
    for mu_delta, by_label in _racah(delta, missing).items():
        for nu_delta, a in by_label.items():  # a character's top weight has multiplicity 1
            _DELTA_CHARACTERS.setdefault((delta, nu_delta), {})[mu_delta] = a
    mult: dict[tuple[int, ...], int] = {}
    for nu_delta, eps_terms in eps_by_label.items():
        for mu_delta, a in _DELTA_CHARACTERS[delta, nu_delta].items():
            for mu_eps, b in eps_terms:
                mu = mu_delta + mu_eps
                new = mult.get(mu, 0) + a * b
                if new:
                    mult[mu] = new
                else:
                    del mult[mu]
    return mult


def _racah(
    factor: WeylFactor, numerator: dict[tuple[int, ...], dict[tuple[int, ...], int]]
) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Dominant weight multiplicities of sum_nu c_nu A_nu / A_rho over one
    Weyl factor, by Racah's recursion (see the module docstring).  Each c_nu
    and each multiplicity is a vector {label: nonzero int}, so one pass over
    the dominant weights serves every label; lifts are read off orbit points."""
    if not numerator:
        return {}
    rho = factor.rho
    tops = [tuple(a - b for a, b in zip(nu, rho)) for nu in numerator]
    ceiling = max(height(t, rho) for t in tops)
    mult: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    images: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}  # W mu -> m_mu, for mu in mult
    weights = sorted(((height(mu, rho), mu) for mu in factor.weights_below(tops)), reverse=True)
    for h, mu in weights:
        total = dict(numerator.get(tuple(map(add, mu, rho)), ()))
        room = ceiling - h
        for shift_height, sign, shift in factor.shifts:
            if shift_height > room:
                break  # every dominant weight above the ceiling has multiplicity 0
            higher = images.get(tuple(map(add, mu, shift)))
            if higher:
                for label, m in higher.items():
                    new = total.get(label, 0) - sign * m
                    if new:
                        total[label] = new
                    else:
                        del total[label]
        if total:
            mult[mu] = total
            images.update(dict.fromkeys(factor.orbit(mu), total))
    return mult


def kw_character(
    lam: HookPartition,
    alg: Algebra,
    minus: bool = False,
) -> CharacterResult:
    """Character of the irreducible with the given (tame) highest weight.

    Typical modules use the standard Borel with an empty distinguished set;
    atypical tame modules use the canonical witness Borel.  The minus twin
    is computed on the twisted witness Borel and T that ``is_tame`` reports.
    """
    report = is_tame(lam, alg, minus)
    if not report.tame:
        raise NotTame(f"{lam} is not tame over {alg.osp_name()}")
    b = report.witness_borel or b_standard(alg)
    T = report.distinguished_T
    seed = _seed(b, highest_weight_via_reflections(lam, b, minus), frozenset(T))
    return CharacterResult(
        orbits=_divided_orbits(alg, seed, report.j_lambda),
        highest_weight=natural_weight(lam)[minus],
        borel_used=b,
        T_used=T,
        j_used=report.j_lambda,
        atypicality_k=report.atypicality_k,
    )


def canonical_levi_roots(b: BorelData, report: TamenessReport) -> tuple[Weight, ...]:
    """Simple roots of the canonical Levi attached to a tameness report.

    B: the right-most 2k nodes of the odd-Borel diagram; D with
    lambda_{n+1} < m: the right-most 2k + e nodes; D with lambda_{n+1} = m
    (no e value in the report): the single sl(1|1) node d_i + e_m.  Typical
    modules get the empty Levi.
    """
    k = report.atypicality_k
    if k == 0:
        return ()
    if b.algebra.family == FAMILY_D and report.e_lambda is None:
        return report.distinguished_T
    count = 2 * k + (report.e_lambda or 0)
    return b.simple_roots[-count:]


def euler_char_character(
    levi_simple_roots: tuple[Weight, ...],
    lam_b: Weight,
    b: BorelData,
) -> dict[tuple[int, ...], int]:
    """Euler characteristic character of the parabolic Verma head, for a
    one-dimensional Levi module of b-highest weight lam_b, in Weyl-orbit form
    (as ``CharacterResult.orbits``).

    Evaluated in the u_1 form: the seed carries the product over odd
    nilradical roots, avoiding any division by Levi factors.
    """
    excluded = _levi_odd_roots(b, levi_simple_roots)
    return _divided_orbits(b.algebra, _seed(b, lam_b, excluded), 1)


def _levi_odd_roots(b: BorelData, levi_simple_roots: tuple[Weight, ...]) -> frozenset[Weight]:
    """The positive odd roots in the span of the Levi's simple roots, which
    must be simple roots of b: those whose coordinates in b's simple roots
    vanish off the Levi's."""
    return frozenset(r for r in b.pos_odd if in_simple_span(b, levi_simple_roots, r))


def supercharacter(cr: CharacterResult) -> dict[tuple[int, ...], int]:
    """The supercharacter in orbit form: signs flipped on the weight spaces
    of odd parity relative to the top weight.

    Parity is graded by the total d-degree: odd roots shift it by one, even
    roots by zero or two.  W keeps the d-degree modulo 2 on an integral
    delta part, so one sign per dominant weight serves its whole orbit.
    """
    alg = cr.borel_used.algebra

    def parity(exp: tuple[int, ...]) -> int:
        if any(a % 2 for a in exp[: alg.n]):
            raise InternalError(f"weight {exp} has a half-integral delta coordinate")
        return sum(exp[: alg.n]) // 2 % 2

    top = parity(cr.highest_weight.exponent_key())
    return {mu: c if parity(mu) == top else -c for mu, c in cr.orbits.items()}
