"""Tests for the character formula, Euler characters, and supercharacters."""

import itertools
import random
from fractions import Fraction

import pytest

from ospchar.atyp import NotTame, is_tame
from ospchar.blocks import preceq
from ospchar.characters import (
    JDivisibilityFailure,
    _dominant_multiplicities,
    _racah,
    _seed,
    _seed_plan,
    _levi_odd_roots,
    _divided_orbits,
    _straightened,
    canonical_levi_roots,
    euler_char_character,
    kw_character,
    orbits_text,
    supercharacter,
)
from ospchar.exactnum import InternalError, NotDivisible, Weight
from ospchar.hook import (
    HookPartition,
    highest_weight_via_reflections,
    hook_partitions,
    natural_weight,
)
from ospchar.rootdata import (
    Algebra,
    WeylFactor,
    all_sequences,
    b_odd,
    b_standard,
    borel_from_sequence,
    even_rho,
    height,
    pairing4,
    root_str,
    weyl_factors,
)
from oracles import (
    LaurentPolynomial,
    character,
    cleared_seed,
    coords_in_basis,
    denominators,
    divide_by_factors,
    dominant,
    evaluate_at_one,
    even_factors,
    expand_orbits,
    kw_character_with_borel,
    map_exponents,
    monomial,
    monomial_text,
    naive_cleared_sum,
    naive_numerator,
    poly_product,
    poly_sum,
    rho_even,
    scaled,
    sigma_twist_poly,
    straighten,
    supersymmetry_violations,
    weyl_alternating_sum,
    weyl_dimension,
    weyl_group,
)

B11 = Algebra("B", 1, 1)
B22 = Algebra("B", 2, 2)
D21 = Algebra("D", 2, 1)
D22 = Algebra("D", 2, 2)
D32 = Algebra("D", 3, 2)


def one(alg):
    return monomial(Weight.zero(alg.n, alg.m), 1)


def chamber_quotient(alg, seed, j=1):
    """(1/j) D_0^{-1} sum_w sgn(w) w(seed), through the dominant chamber."""
    return expand_orbits(alg, _divided_orbits(alg, seed.terms, j))


def in_span(weights, target):
    return coords_in_basis(weights, target) is not None


def is_w_invariant(alg, p):
    return all(map_exponents(p, act) == p for _, act in weyl_group(alg))


class TestDenominators:
    def test_b11_even_denominator_expansion(self):
        d0, _ = denominators(b_standard(B11))
        # (e^d - e^-d)(e^{e/2} - e^{-e/2}) over the positive evens {2d, e}
        assert d0.terms == {(2, 1): 1, (2, -1): -1, (-2, 1): -1, (-2, -1): 1}

    def test_b11_odd_denominator_expansion(self):
        _, d1 = denominators(b_standard(B11))
        # factors for d+e, d-e, d
        want = poly_product(
            poly_sum(monomial(Weight.from_doubled([1], [1]), 1), monomial(Weight.from_doubled([-1], [-1]), 1)),
            poly_sum(monomial(Weight.from_doubled([1], [-1]), 1), monomial(Weight.from_doubled([-1], [1]), 1)),
            poly_sum(monomial(Weight.from_doubled([1], [0]), 1), monomial(Weight.from_doubled([-1], [0]), 1)),
        )
        assert d1 == want


class TestTrivialModuleIdentity:
    def test_constant_one_across_shapes(self):
        for alg in (B11, B22, D21, D22, D32):
            lam = HookPartition.of((), alg.n, alg.m)
            cr = kw_character(lam, alg)
            assert character(cr) == one(alg), alg.label()
            assert cr.dimension == 1
            assert evaluate_at_one(character(cr)) == 1

    @pytest.mark.parametrize("label", ["B:4:4", "D:4:4"])
    def test_constant_one_at_rank_8(self, label):
        # the trivial seed holds every odd root but the k = 4 of T: expanded
        # root by root it had 8 792 448 terms on B:4:4 (47 s, 2 GB); the quads
        # keep it in the thousands
        alg = Algebra.parse(label)
        cr = kw_character(HookPartition.of((), alg.n, alg.m), alg)
        assert cr.orbits == {(0,) * alg.rank: 1}

    def test_j_and_T_match_square_shapes(self):
        import math

        cr = kw_character(HookPartition.of((), 1, 1), B11)
        assert cr.j_used == 2 and [root_str(r) for r in cr.T_used] == ["e1-d1"]
        cr = kw_character(HookPartition.of((), 2, 2), B22)
        assert cr.j_used == math.factorial(2) * 4
        cr = kw_character(HookPartition.of((), 1, 2), D21)
        assert cr.j_used == 2  # osp(2k+2|2k) at k = 1


class TestKWCharacter:
    def test_rejects_non_tame(self):
        with pytest.raises(NotTame):
            kw_character(HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3), Algebra("B", 3, 3))

    def test_highest_weight_coefficient_one(self):
        for alg in (B11, D21):
            for lam in hook_partitions(alg.n, alg.m, 5):
                rep = is_tame(lam, alg)
                if not rep.tame:
                    continue
                cr = kw_character(lam, alg)
                ch = character(cr)
                assert ch.terms[cr.highest_weight.exponent_key()] == 1
                assert all(c > 0 for c in ch.terms.values())

    def test_w_invariance(self):
        for alg in (B11, D21):
            for lam in hook_partitions(alg.n, alg.m, 4):
                if not is_tame(lam, alg).tame:
                    continue
                assert is_w_invariant(alg, character(kw_character(lam, alg)))

    def test_no_weight_exceeds_highest(self):
        b = b_standard(B11)
        cr = kw_character(HookPartition.of((2,), 1, 1), B11)
        for exp in character(cr).terms:
            w = Weight.from_doubled(exp[:1], exp[1:])
            assert preceq(w, cr.highest_weight, b)

    def test_typical_borel_independence(self):
        for alg in (B22, D21):
            for lam in hook_partitions(alg.n, alg.m, 4):
                rep = is_tame(lam, alg)
                if rep.atypicality_k != 0:
                    continue
                ref = character(kw_character(lam, alg))
                for seq in all_sequences(alg):
                    b = borel_from_sequence(alg, seq)
                    minus = seq.sign == -1
                    got = kw_character_with_borel(lam, alg, b, (), 1, minus=minus)
                    if minus:
                        got = sigma_twist_poly(alg, got)
                    assert got == ref, (alg.label(), lam.parts, str(seq))

    def test_round_trip_against_uncleared_numerator(self):
        # ch * D_0 * j re-assembles the raw alternating sum exactly
        lam = HookPartition.of((2,), 2, 2)
        rep = is_tame(lam, B22)
        assert rep.tame and rep.atypicality_k == 1
        cr = kw_character(lam, B22)
        b = cr.borel_used
        d0, _ = denominators(b)
        lam_b = highest_weight_via_reflections(lam, b)
        raw = weyl_alternating_sum(B22, cleared_seed(b, lam_b, set(cr.T_used)))
        assert scaled(poly_product(character(cr), d0), cr.j_used) == raw

    def test_sigma_twist_identity_family_d(self):
        for alg in (D21, D22):
            for lam in hook_partitions(alg.n, alg.m, 5):
                if not is_tame(lam, alg).tame:
                    continue
                plus = kw_character(lam, alg)
                minus = kw_character(lam, alg, minus=True)
                assert character(minus) == sigma_twist_poly(alg, character(plus))
                assert minus.highest_weight == natural_weight(lam)[1]
                assert character(minus).terms[minus.highest_weight.exponent_key()] == 1

    def test_osp_7_6_gamma_full_evaluation(self):
        # |W| = 2304 and a 37 456-term seed
        alg = Algebra("B", 3, 3)
        lam = HookPartition.of((5,), 3, 3)
        cr = kw_character(lam, alg)
        ch = character(cr)
        assert ch.terms[cr.highest_weight.exponent_key()] == 1
        assert all(c > 0 for c in ch.terms.values())
        assert cr.j_used == 8
        assert cr.dimension == 3276  # frozen from this evaluation, cross-run stable
        rng = random.Random(11)
        for _, act in rng.sample(weyl_group(alg), 12):
            assert map_exponents(ch, act) == ch


ORACLE_ALGEBRAS = [Algebra.parse(a) for a in ("B:1:1", "B:1:2", "B:2:1", "B:2:2", "D:2:1", "D:2:2")]


def tame_weights(alg, max_size=6):
    for lam in hook_partitions(alg.n, alg.m, max_size):
        rep = is_tame(lam, alg)
        if rep.tame:
            yield lam, rep


def seed_cases(alg, max_size):
    """(lam, b, lam_b, excluded) for every tame |lam| <= max_size and every
    Borel b: the distinguished set restricted to b, and the Euler excluded
    set (the odd roots in the span of the canonical Levi's simple roots)."""
    for lam, rep in tame_weights(alg, max_size):
        for seq in all_sequences(alg):
            b = borel_from_sequence(alg, seq)
            lam_b = highest_weight_via_reflections(lam, b, minus=seq.sign == -1)
            levi = canonical_levi_roots(b, rep)
            euler = frozenset(r for r in b.pos_odd if levi and in_span(levi, r))
            yield lam, b, lam_b, frozenset(r for r in rep.distinguished_T if r in b.pos_odd)
            yield lam, b, lam_b, euler


def excluded_sweep(alg, draws=2):
    """(b, lam_b, excluded) for every Borel b with no root excluded, with each
    odd simple root excluded, and with each orthogonal pair of isotropic
    simple roots excluded, each at draws seeded random lam_b."""
    rng = random.Random(f"{alg.label()}-{draws}")
    for seq in all_sequences(alg):
        b = borel_from_sequence(alg, seq)
        odd = [r for r in b.simple_roots if r in b.pos_odd]
        isotropic = [r for r in odd if pairing4(r, r) == 0]
        sets = [frozenset()] + [frozenset({r}) for r in odd]
        sets += [frozenset(pair) for pair in itertools.combinations(isotropic, 2) if pairing4(*pair) == 0]
        for excluded in sets:
            for _ in range(draws):
                delta, eps = ([rng.randint(-3, 3) for _ in range(size)] for size in (alg.n, alg.m))
                yield b, Weight.from_ints(delta, eps), excluded


def alternant_cases(alg):
    """(b, lam_b, excluded): every ``seed_cases`` with |lambda| <= 3, then the
    ``excluded_sweep``."""
    yield from ((b, lam_b, excluded) for _, b, lam_b, excluded in seed_cases(alg, 3))
    yield from excluded_sweep(alg)


@pytest.mark.parametrize("alg", [B22, D22, D32], ids=Algebra.label)
def test_seed_terms_match_the_generic_product(alg):
    # every Borel, with the distinguished set, the Euler excluded set and the
    # excluded sweep: the seed is flipped and sorted by its twin rows and
    # columns between its factors, so it has the alternants of the full
    # product, not its terms
    checked = straightened = 0
    for b, lam_b, excluded in alternant_cases(alg):
        want = cleared_seed(b, lam_b, excluded).terms
        seed = _seed(b, lam_b, excluded)
        got = _straightened(alg, seed)
        assert got == _straightened(alg, want), (lam_b, str(b.sequence), excluded)
        checked += 1
        straightened += seed != want
    assert checked >= 2 * len(list(all_sequences(alg)))
    assert straightened


def delta_index(r):
    """The i of the delta_i that the odd root r passes through."""
    return next(i for i, v in enumerate(r.delta) if v)


def straightened_before_touched_blocks(b, lam_b, excluded):
    """A wrong seed: the free delta blocks expanded in full, then the terms
    eps-straightened, and only then the blocks that hold an excluded root."""
    alg = b.algebra
    touched = {delta_index(r) for r in excluded}
    _, eps = weyl_factors(alg)
    seed = monomial(lam_b + rho_even(b), 1)
    for late in (False, True):
        if late:
            terms: dict[tuple[int, ...], int] = {}
            for exp, coef in seed.terms.items():
                hit = eps.straighten(exp[alg.n :])
                if hit:
                    key = exp[: alg.n] + hit[1]
                    terms[key] = terms.get(key, 0) + hit[0] * coef
            seed = LaurentPolynomial(alg.rank, terms)
        for r in b.pos_odd - set(excluded):
            if (delta_index(r) in touched) == late:
                seed = poly_product(seed, poly_sum(one(alg), monomial(-r, 1)))
    return seed.terms


@pytest.mark.parametrize("alg", [B22, D22], ids=Algebra.label)
def test_straightening_before_a_touched_block_changes_the_alternants(alg):
    # the alternant check above bites: a block holding a root of T is not
    # W_eps-invariant, so straightening may not move past it
    changed = 0
    for lam, rep in tame_weights(alg, 4):
        if rep.atypicality_k:
            b, T = rep.witness_borel, set(rep.distinguished_T)
            lam_b = highest_weight_via_reflections(lam, b)
            want = _straightened(alg, cleared_seed(b, lam_b, T).terms)
            changed += _straightened(alg, straightened_before_touched_blocks(b, lam_b, T)) != want
    assert changed


def dropped_flip_rule(family):
    """``WeylFactor.straighten`` with the family's own flip rule dropped
    between the seed's factors (classes given, flips on): on the eps factor,
    the entries taken nonnegative with sgn +1, which loses the sign of a
    family-B eps flip and family D's parity on the last entry."""
    straighten = WeylFactor.straighten

    def wrong(factor, values, classes=None, flips=True):
        if classes is not None and flips and factor.kind == family:
            values = tuple(map(abs, values))
        return straighten(factor, values, classes, flips)

    return wrong


def dropped_sort_sign(kind):
    """``WeylFactor.straighten`` with the sort's sign dropped inside the twin
    classes of one factor (kind "C": the twin rows, else the twin columns)
    between the seed's factors: the sign is that of the flips alone."""
    straighten = WeylFactor.straighten

    def wrong(factor, values, classes=None, flips=True):
        hit = straighten(factor, values, classes, flips)
        if hit and classes is not None and factor.kind == kind:
            return straighten(factor, values, (), flips)[0], hit[1]
        return hit

    return wrong


def flips_before_singles():
    """``_seed_plan`` with the flips allowed at every step, also before a
    single, which a flip of its d_i or e_j does not fix."""
    plan = _seed_plan

    def wrong(b, excluded):
        offset, steps = plan(b, excluded)
        return offset, tuple((rows, columns, True, moves) for rows, columns, _, moves in steps)

    return wrong


@pytest.mark.parametrize("alg", [B22, D22], ids=Algebra.label)
def test_a_wrong_flip_changes_the_alternants(alg, monkeypatch):
    # the alternant check above bites on the flips and on the sorts of the
    # twin rows and twin columns before each factor
    import ospchar.characters as characters

    cases = list(alternant_cases(alg))
    wants = [_straightened(alg, cleared_seed(*case).terms) for case in cases]
    bugs = {
        "flip rule": (WeylFactor, "straighten", dropped_flip_rule(alg.family)),
        "sort sign of the twin rows": (WeylFactor, "straighten", dropped_sort_sign("C")),
        "sort sign of the twin columns": (WeylFactor, "straighten", dropped_sort_sign(alg.family)),
        "flips before a single": (characters, "_seed_plan", flips_before_singles()),
    }
    for dropped, (owner, name, wrong) in bugs.items():
        with monkeypatch.context() as patched:
            patched.setattr(owner, name, wrong)
            changed = sum(_straightened(alg, _seed(*case)) != want for case, want in zip(cases, wants))
        assert changed, dropped


@pytest.mark.parametrize("label, parts", [("B:3:3", (5,)), ("B:2:3", (3, 2))], ids=["B:3:3-5", "B:2:3-3,2"])
def test_kw_orbits_match_the_full_seed(label, parts):
    # the weights where the full seed was the bottleneck: 37 456 and 3 344 terms
    alg = Algebra.parse(label)
    lam = HookPartition.of(parts, alg.n, alg.m)
    cr = kw_character(lam, alg)
    b, T = cr.borel_used, set(cr.T_used)
    lam_b = highest_weight_via_reflections(lam, b)
    full = cleared_seed(b, lam_b, T)
    assert len(_seed(b, lam_b, frozenset(T))) < len(full.terms)
    assert cr.orbits == _divided_orbits(alg, full.terms, cr.j_used)


@pytest.mark.parametrize(
    "seed, label, bound",
    [("trivial", "B:4:4", 256), ("trivial", "D:4:4", 116), ("euler", "B:4:4", 840), ("euler", "B:5:5", 5152)],
)
def test_trivial_seed_stays_small(seed, label, bound, monkeypatch):
    # the largest term dict straightened during the trivial character, or
    # during verify's euler-trivial-constant seed (singles only, through the
    # odd Borel with every odd root of its Levi excluded): before each factor
    # the seed sorts its twin rows and twin columns, and that keeps it at
    # these sizes; taking the singles d_i last keeps the columns twins, and
    # without it the Euler seeds reach 3 656 and 33 470
    import ospchar.characters as characters

    sizes = []
    straightened = characters._straightened

    def recording(alg, terms, *classes):
        sizes.append(len(terms))
        return straightened(alg, terms, *classes)

    monkeypatch.setattr(characters, "_straightened", recording)
    alg = Algebra.parse(label)
    zero = Weight.zero(alg.n, alg.m)
    if seed == "trivial":
        assert kw_character(HookPartition.of((), alg.n, alg.m), alg).dimension == 1
    else:
        b = b_odd(alg)
        assert euler_char_character(b.simple_roots[:-1], zero, b) == {zero.exponent_key(): 2**alg.m}
    assert max(sizes) <= bound


# the algebras of verify --max-rank 3
RANK_3_SWEEP = [Algebra(f, m, n) for m in (1, 2, 3) for n in (1, 2, 3) for f in ("B", "D") if f == "B" or m >= 2]


def doubled(half):
    return tuple(2 * v for v in half)


def line(exp):
    """An odd root up to sign, which sym(beta) = e^{beta/2} + e^{-beta/2} ignores."""
    return max(exp, tuple(-v for v in exp))


def factor_lines(moves, rank):
    """The lines of one seed factor, read off its moves: a quad's four moves
    are +-2 on d_i, then +-2 on e_j, and it holds the lines d_i -+ e_j; a
    single's two moves are +-beta/2."""
    if len(moves) == 4:
        (i, _), (c, _) = moves[0][0], moves[2][0]
        return [line(tuple(2 * (t == i) + 2 * sign * (t == c) for t in range(rank))) for sign in (1, -1)]
    half = [0] * rank
    for t, v in moves[0]:
        half[t] = v
    return [line(doubled(half))]


def twin_classes(coming, axes):
    """The classes, of two or more, of the axes that some transposition of
    axes, applied to every line, maps the lines still to come onto
    themselves: the definition of twin rows or twin columns."""
    classes: list[list[int]] = []
    for a in axes:
        for members in classes:
            swap = {a: members[0], members[0]: a}
            if sorted(line(tuple(exp[swap.get(t, t)] for t in range(len(exp)))) for exp in coming) == coming:
                members.append(a)
                break
        else:
            classes.append([a])
    return {tuple(members) for members in classes if len(members) > 1}


@pytest.mark.parametrize("alg", RANK_3_SWEEP[: RANK_3_SWEEP.index(D32) + 1], ids=Algebra.label)
def test_seed_plan_partitions_the_odd_roots(alg):
    # the factors (a single's line, a quad's two) and the excluded roots hold
    # each positive odd root exactly once, up to sign; the singles come first,
    # those of d_i alone last, then the quads, those of a row together, the
    # rows with a quad on every eps_j last; each step's classes are the twin
    # rows and twin columns of the lines still to come, by their definition,
    # and it may flip exactly when no single is left, where each flip fixes
    # those lines; the offset is rho_0 minus half the sum of the roots
    # outside the excluded set
    n, m, rank = alg.n, alg.m, alg.rank
    checked = set()
    keys = [(b, excluded) for _, b, _, excluded in seed_cases(alg, 4)]
    for b, excluded in keys + [(b, excluded) for b, _, excluded in excluded_sweep(alg, 1)]:
        if (b, excluded) in checked:
            continue
        checked.add((b, excluded))
        offset, steps = _seed_plan(b, excluded)
        held = [exp for *_, moves in steps for exp in factor_lines(moves, rank)]
        held += [line(r.exponent_key()) for r in excluded]
        assert sorted(held) == sorted(line(r.exponent_key()) for r in b.pos_odd), str(b.sequence)
        quads = [len(moves) == 4 for *_, moves in steps]
        assert quads == sorted(quads), str(b.sequence)
        alone = [len(moves[0]) == 1 for *_, moves in steps if len(moves) == 2]  # the single d_i
        assert alone == sorted(alone), str(b.sequence)
        rows = [moves[0][0][0] for *_, moves in steps if len(moves) == 4]
        runs = [i for s, i in enumerate(rows) if not s or rows[s - 1] != i]
        assert len(runs) == len(set(runs)) and set(runs) <= set(range(n)), str(b.sequence)
        full = [rows.count(i) == m for i in runs]
        assert full == sorted(full), str(b.sequence)
        for s, (delta_classes, eps_classes, flips, _) in enumerate(steps):
            coming = sorted(exp for *_, moves in steps[s:] for exp in factor_lines(moves, rank))
            assert set(delta_classes) == twin_classes(coming, range(n)), (str(b.sequence), s)
            want = {tuple(c - n for c in members) for members in twin_classes(coming, range(n, rank))}
            assert set(eps_classes) == want, (str(b.sequence), s)
            assert all(list(members) == sorted(members) for members in delta_classes + eps_classes)
            assert flips == all(quads[s:]), (str(b.sequence), s)
            for t in range(rank) if flips else ():
                flipped = sorted(line(tuple(-v if u == t else v for u, v in enumerate(exp))) for exp in coming)
                assert flipped == coming, (str(b.sequence), s, t)
        sigma = [sum(r.exponent_key()[t] for r in b.pos_odd - excluded) for t in range(rank)]
        assert doubled(offset) == tuple(2 * v - s for v, s in zip(even_rho(alg), sigma)), str(b.sequence)
    assert len(checked) > len(list(all_sequences(alg)))


def test_seed_plan_refuses_an_excluded_root_that_is_not_positive():
    b = b_standard(B22)
    root = next(iter(b.pos_odd))
    with pytest.raises(InternalError):
        _seed_plan(b, frozenset({-root}))
    # the cache key is the frozen set: a plain set is refused, not converted
    with pytest.raises(TypeError):
        _seed(b, Weight.zero(B22.n, B22.m), {root})


def test_seed_plan_is_built_once_per_borel_and_excluded_set(monkeypatch, capsys):
    # and verify's sweep runs every kind of step: singles and quads, each with
    # and without twin rows, and with and without twin columns
    import ospchar.characters as characters
    from ospchar import cli

    keys = []
    original = characters._seed

    def recording(b, lam_b, excluded):
        keys.append((b, excluded))
        return original(b, lam_b, excluded)

    monkeypatch.setattr(characters, "_seed", recording)
    characters._seed_plan.cache_clear()
    assert cli.main(["verify", "--max-rank", "3"]) == 0
    capsys.readouterr()
    info = characters._seed_plan.cache_info()
    assert info.misses == len(set(keys))
    assert info.hits == len(keys) - len(set(keys)) > 0
    steps = [step for key in set(keys) for step in characters._seed_plan(*key)[1]]
    # (a quad, some twin rows, some twin columns)
    kinds = {(len(moves) == 4, bool(rows), bool(columns)) for rows, columns, _, moves in steps}
    assert kinds == set(itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("alg", RANK_3_SWEEP, ids=Algebra.label)
def test_levi_odd_roots_match_the_span_solve(alg):
    # "in the span of the canonical Levi's simple roots", read off as zero
    # coordinates outside their indices, against the Fraction solve; every
    # canonical Levi root is simple in the witness Borel, or this raises
    checked = 0
    for minus in (False, True) if alg.family == "D" else (False,):
        for lam in hook_partitions(alg.n, alg.m, 6):
            rep = is_tame(lam, alg, minus)
            if not rep.tame or not rep.atypicality_k:
                continue
            b = rep.witness_borel
            levi = canonical_levi_roots(b, rep)
            want = frozenset(r for r in b.pos_odd if in_span(levi, r))
            assert _levi_odd_roots(b, canonical_levi_roots(b, rep)) == want, (lam.parts, minus)
            checked += 1
    assert checked


def checked_dimension(lam, alg):
    """``CharacterResult.dimension``, through Racah, the orbit sizes and the
    j division, after checking it against Weyl's formula on the alternants."""
    cr = kw_character(lam, alg)
    b, T = cr.borel_used, set(cr.T_used)
    alternants = _straightened(alg, _seed(b, highest_weight_via_reflections(lam, b), frozenset(T)))
    assert weyl_dimension(alg, alternants, cr.j_used) == cr.dimension, (alg.label(), lam.parts)
    return cr.dimension


@pytest.mark.parametrize("alg", RANK_3_SWEEP, ids=Algebra.label)
def test_dimension_matches_weyl_dimension_formula(alg):
    for lam, _ in tame_weights(alg, 4):
        checked_dimension(lam, alg)


def test_dimension_matches_weyl_dimension_formula_at_d32_top():
    assert checked_dimension(HookPartition.of((3, 3, 3, 2, 2, 2, 1), D32.n, D32.m), D32) == 5516800


def kac_typical_dimension(lam, alg):
    """2^{|D1+|} prod_{a in D0+} (lambda + rho, a) / (rho_0, a) (Kac 1977)."""
    b = b_standard(alg)
    shifted = natural_weight(lam)[0] + b.rho
    rho_0 = rho_even(b)
    dim = Fraction(2 ** len(b.pos_odd))
    for r in b.pos_even:
        dim *= Fraction(pairing4(shifted, r), pairing4(rho_0, r))
    return dim


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=Algebra.label)
class TestDominantPipelineOracle:
    """The dominant-chamber pipeline against the naive Weyl sum and division."""

    def test_kw_character(self, alg):
        for lam, rep in tame_weights(alg):
            b = rep.witness_borel if rep.atypicality_k else b_standard(alg)
            lam_b = highest_weight_via_reflections(lam, b)
            want = naive_cleared_sum(b, lam_b, set(rep.distinguished_T), rep.j_lambda)
            assert character(kw_character(lam, alg)) == want, lam.parts

    def test_kw_character_with_borel_over_every_borel(self, alg):
        # D_0 != 0, so numerator / D_0 = got exactly when numerator = D_0 got:
        # the same check as the long division, at the cost of one product
        borels = [borel_from_sequence(alg, seq) for seq in all_sequences(alg)]
        d0s = [poly_product(*even_factors(b)) for b in borels]
        for lam, rep in tame_weights(alg):
            for b, d0 in zip(borels, d0s):
                minus = b.sequence.sign == -1
                T = tuple(r for r in rep.distinguished_T if r in b.pos_odd)
                lam_b = highest_weight_via_reflections(lam, b, minus=minus)
                got = kw_character_with_borel(lam, alg, b, T, 1, minus=minus)
                assert poly_product(d0, got) == naive_numerator(b, lam_b, set(T)), (lam.parts, str(b.sequence))

    def test_euler_char_character(self, alg):
        for lam, rep in tame_weights(alg):
            b = rep.witness_borel if rep.atypicality_k else b_odd(alg)
            levi = canonical_levi_roots(b, rep)
            lam_b = highest_weight_via_reflections(lam, b)
            excluded = {r for r in b.pos_odd if levi and in_span(levi, r)}
            got = expand_orbits(alg, euler_char_character(levi, lam_b, b))
            assert got == naive_cleared_sum(b, lam_b, excluded), lam.parts

    def test_kac_dimension_of_typical_weights(self, alg):
        # |lambda| <= 8: B:2:2 has no typical hook weight below size 8
        typical = [lam for lam, rep in tame_weights(alg, 8) if rep.atypicality_k == 0]
        assert typical
        for lam in typical:
            assert kw_character(lam, alg).dimension == kac_typical_dimension(lam, alg), lam.parts

    def test_typical_character_is_d1_times_even_character(self, alg):
        # ch = D_1 A_{lambda + rho} / D_0, since D_1 is W-invariant.  In
        # family D the quotient chi^0 = A_{lambda + rho} / D_0 is itself a
        # g_0-character; in family B the odd roots d_p make the delta part of
        # lambda + rho - rho_0 half-integral, so D_1 goes in before dividing.
        b = b_standard(alg)
        _, d1 = denominators(b)
        typical = [lam for lam, rep in tame_weights(alg, 8) if rep.atypicality_k == 0]
        assert typical
        for lam in typical:
            shifted = highest_weight_via_reflections(lam, b) + b.rho
            numerator = weyl_alternating_sum(alg, monomial(shifted, 1))
            ch = character(kw_character(lam, alg))
            assert ch == divide_by_factors(poly_product(d1, numerator), even_factors(b)), lam.parts
            if alg.family == "D":
                assert ch == poly_product(d1, divide_by_factors(numerator, even_factors(b))), lam.parts

    def test_signed_seeds(self, alg):
        # integer combinations of monomials in rho_0 + (weight lattice of g_0),
        # with cancellations and terms on walls
        rng = random.Random(alg.label())
        rho = rho_even(b_standard(alg)).exponent_key()
        eps_parity = rho[alg.n] % 2
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                exp = tuple(2 * rng.randint(-3, 3) for _ in range(alg.n))
                exp += tuple(2 * rng.randint(-3, 3) + eps_parity for _ in range(alg.m))
                terms[exp] = rng.choice([-2, -1, 1, 3])
            seed = LaurentPolynomial(alg.rank, terms)
            want = divide_by_factors(weyl_alternating_sum(alg, seed), even_factors(b_standard(alg)))
            assert chamber_quotient(alg, seed) == want, terms


def whole_w_multiplicities(alg, alternants):
    """Oracle: Racah's recursion over all of W at once, with the shift of
    every w != 1 and the dominance interval of the whole even root system."""
    rho = even_rho(alg)
    shifts = []
    for sign, act in weyl_group(alg):
        shift = tuple(a - b for a, b in zip(rho, act(rho)))
        if any(shift):
            shifts.append((height(shift, rho), sign, shift))
    shifts.sort()
    tops = []
    for nu in alternants:
        top = tuple(a - b for a, b in zip(nu, rho))
        if any(v % 2 for v in top[: alg.n]) or len({v % 2 for v in top[alg.n :]}) != 1:
            raise NotDivisible(f"alternant at {nu} lies outside rho_0 + the weight lattice of g_0")
        tops.append(top)
    if not tops:
        return {}
    roots = [r.exponent_key() for r in b_standard(alg).pos_even]
    below = set(tops)
    stack = list(below)
    while stack:
        mu = stack.pop()
        for alpha in roots:
            lower = tuple(a - b for a, b in zip(mu, alpha))
            if lower not in below and dominant(alg, lower) == lower:
                below.add(lower)
                stack.append(lower)
    ceiling = max(height(t, rho) for t in tops)
    mult = {}
    for h, mu in sorted(((height(mu, rho), mu) for mu in below), reverse=True):
        total = alternants.get(tuple(a + b for a, b in zip(mu, rho)), 0)
        for shift_height, sign, shift in shifts:
            if h + shift_height > ceiling:
                break
            higher = mult.get(dominant(alg, tuple(a + b for a, b in zip(mu, shift))))
            if higher:
                total -= sign * higher
        if total:
            mult[mu] = total
    return mult


@pytest.mark.parametrize("alg", [Algebra.parse(a) for a in ("B:1:1", "B:2:2", "D:2:2", "D:3:2")], ids=Algebra.label)
class TestFactoredRacah:
    """Racah one Weyl factor at a time against the recursion over all of W."""

    def test_tame_weights(self, alg):
        for lam, rep in tame_weights(alg):
            b = rep.witness_borel if rep.atypicality_k else b_standard(alg)
            lam_b = highest_weight_via_reflections(lam, b)
            alternants = _straightened(alg, cleared_seed(b, lam_b, set(rep.distinguished_T)).terms)
            assert alternants, lam.parts
            got = _dominant_multiplicities(alg, alternants)
            assert got == whole_w_multiplicities(alg, alternants), lam.parts

    def test_random_signed_alternants(self, alg):
        # strictly dominant nu in rho_0 + (weight lattice of g_0), some
        # entered twice with opposite coefficients
        rng = random.Random(alg.label())
        rho = even_rho(alg)
        negative_eps_tops = 0
        for _ in range(30):
            alternants = {}
            for _ in range(rng.randint(1, 8)):
                parity = rng.randint(0, 1)
                top = tuple(2 * rng.randint(-3, 3) for _ in range(alg.n))
                top += tuple(2 * rng.randint(-3, 3) + parity for _ in range(alg.m))
                hit = straighten(alg, tuple(a + b for a, b in zip(top, rho)))
                if hit is None:
                    continue
                sign, nu = hit
                coefs = [rng.choice([-3, -2, -1, 1, 2, 3])]
                if rng.random() < 0.3:
                    coefs.append(-coefs[0])
                for coef in coefs:
                    alternants[nu] = alternants.get(nu, 0) + sign * coef
                    if not alternants[nu]:
                        del alternants[nu]
            negative_eps_tops += sum(nu[-1] - rho[-1] < 0 for nu in alternants)
            got = _dominant_multiplicities(alg, alternants)
            assert got == whole_w_multiplicities(alg, alternants), alternants
        if alg.family == "D":
            assert negative_eps_tops


class TestEmptyNumerator:
    def test_no_alternants_give_no_multiplicities(self):
        for alg in (B11, Algebra("B", 1, 2), D32):
            assert _dominant_multiplicities(alg, {}) == {}
            for factor in weyl_factors(alg):
                assert _racah(factor, {}) == {}

    def test_fully_cancelling_alternants(self):
        # e^{nu} + e^{s nu}, s the sign flip of d_1: the two alternants cancel
        for alg in (Algebra("B", 1, 2), D22, D32):
            nu = tuple(a + 2 for a in even_rho(alg))
            flipped = (-nu[0],) + nu[1:]
            seed = LaurentPolynomial(alg.rank, {nu: 1, flipped: 1})
            assert _straightened(alg, seed.terms) == {}
            assert chamber_quotient(alg, seed) == LaurentPolynomial(alg.rank)


class TestDivisibilityProof:
    def test_alternant_off_the_weight_lattice_is_refused(self):
        # e^{(3/2 | 1/2)} over osp(3|2): a regular alternant whose delta
        # coordinate is half-integral, so rho_0 + P does not contain it
        seed = monomial(Weight.from_doubled([3], [1]), 1)
        with pytest.raises(NotDivisible):
            chamber_quotient(B11, seed)
        with pytest.raises(NotDivisible):
            divide_by_factors(weyl_alternating_sum(B11, seed), even_factors(b_standard(B11)))

    def test_mixed_eps_parity_is_refused(self):
        alg = Algebra("B", 2, 1)
        seed = monomial(Weight.from_doubled([4], [4, 1]), 1)
        with pytest.raises(NotDivisible):
            chamber_quotient(alg, seed)

    def test_j_divides_the_dominant_multiplicities(self):
        alg = Algebra("B", 1, 1)
        seed = monomial(Weight.from_doubled([2], [1]), 6)  # 6 * A_{rho_0}
        assert chamber_quotient(alg, seed, 3) == scaled(one(alg), 2)
        with pytest.raises(JDivisibilityFailure):
            chamber_quotient(alg, seed, 4)


class TestStructuralCrossChecks:
    def test_defining_module_of_osp_4_2(self):
        # C^{4|2}: highest weight d_1, six weights, all multiplicity one
        cr = kw_character(HookPartition.of((1,), 1, 2), D21)
        assert character(cr).terms == {
            (2, 0, 0): 1, (-2, 0, 0): 1,
            (0, 2, 0): 1, (0, -2, 0): 1,
            (0, 0, 2): 1, (0, 0, -2): 1,
        }
        assert evaluate_at_one(expand_orbits(D21, supercharacter(cr))) == -2  # sdim(C^{4|2}) up to sign

    def test_adjoint_block_bottoms_at_trivial(self):
        # the adjoint highest weight shares the trivial central character
        from ospchar.blocks import bottom_of_block

        trace = bottom_of_block(HookPartition.of((2,), 1, 2), D21)
        assert trace.result.parts == ()


class TestSignedBorelCase:
    # smallest instance where the canonical Borel is a signed mid-sequence
    # one: D(2,2), lambda = (2,2,2,2), distinguished root d_1 + e_2

    def test_full_pipeline_on_signed_witness(self):
        lam = HookPartition.of((2, 2, 2, 2), 2, 2)
        rep = is_tame(lam, D22)
        assert rep.tame and rep.atypicality_k == 1
        assert str(rep.witness_borel.sequence) == "eded-"
        assert [root_str(r) for r in rep.distinguished_T] == ["d1+e2"]
        assert rep.j_lambda == 1
        b = rep.witness_borel
        lam_b = highest_weight_via_reflections(lam, b)
        # the reflection chain to this Borel never moves the shifted weight
        assert lam_b + b.rho == natural_weight(lam)[0] + b_standard(D22).rho
        cr = kw_character(lam, D22)
        assert cr.dimension == 1120
        ch = character(cr)
        assert ch.terms[cr.highest_weight.exponent_key()] == 1
        assert all(c > 0 for c in ch.terms.values())
        assert is_w_invariant(D22, ch)
        euler = euler_char_character(canonical_levi_roots(b, rep), lam_b, b)
        assert euler == cr.orbits
        crm = kw_character(lam, D22, minus=True)
        assert character(crm) == sigma_twist_poly(D22, ch)
        assert str(crm.borel_used.sequence) == "eded"
        assert [root_str(r) for r in crm.T_used] == ["d1-e2"]


class TestEulerCharacter:
    def test_trivial_constants(self):
        # 2^k over osp(2k+1|2k) and osp(2k+2|2k); 2^{k-1} over osp(2k|2k)
        for alg, expected in [(B11, 2), (B22, 4), (D22, 2), (D21, 2), (D32, 4)]:
            b = b_odd(alg)
            zero = Weight.zero(alg.n, alg.m)
            euler = euler_char_character(b.simple_roots[:-1], zero, b)
            assert euler == {zero.exponent_key(): expected}, alg.label()

    def test_equals_kw_for_tame_weights(self):
        for alg in (B22, D22):
            for lam in hook_partitions(alg.n, alg.m, 6):
                rep = is_tame(lam, alg)
                if not rep.tame:
                    continue
                cr = kw_character(lam, alg)
                b = rep.witness_borel if rep.atypicality_k else b_odd(alg)
                levi = canonical_levi_roots(b, rep)
                lam_b = highest_weight_via_reflections(lam, b)
                assert euler_char_character(levi, lam_b, b) == cr.orbits

    def test_equals_kw_for_minus_twins(self):
        for alg in (D21, D22):
            for lam in hook_partitions(alg.n, alg.m, 5):
                rep = is_tame(lam, alg, minus=True)
                if not rep.tame:
                    continue
                crm = kw_character(lam, alg, minus=True)
                b = rep.witness_borel if rep.atypicality_k else b_odd(alg)
                levi = canonical_levi_roots(b, rep)
                lam_b = highest_weight_via_reflections(lam, b, minus=True)
                assert euler_char_character(levi, lam_b, b) == crm.orbits


class TestSupercharacterAndDimension:
    def test_trivial_module_unchanged(self):
        cr = kw_character(HookPartition.of((), 1, 1), B11)
        assert supercharacter(cr) == cr.orbits
        assert evaluate_at_one(expand_orbits(B11, supercharacter(cr))) == 1

    def test_single_term_unchanged(self):
        from ospchar.characters import CharacterResult

        # one dominant weight: its W-orbit has a single d-parity
        hw = Weight.from_ints([3], [1])
        cr = CharacterResult({hw.exponent_key(): 1}, hw, b_standard(B11), (), 1, 0)
        assert len(character(cr).terms) == cr.dimension == 4
        assert supercharacter(cr) == cr.orbits

    def test_parity_grading_flips_odd_weight_spaces(self):
        cr = kw_character(HookPartition.of((2,), 1, 1), B11)
        sc, ch = expand_orbits(B11, supercharacter(cr)), character(cr)
        hw_d = cr.highest_weight.exponent_key()[0] // 2
        for exp, coef in sc.terms.items():
            parity = ((exp[0] // 2) - hw_d) % 2
            assert coef == ch.terms[exp] * (1 if parity == 0 else -1)

    def test_dimension_borel_independent_for_typical(self):
        lam = HookPartition.of((2,), 1, 1)
        assert is_tame(lam, B11).atypicality_k == 0
        cr = kw_character(lam, B11)
        dims = set()
        for seq in all_sequences(B11):
            b = borel_from_sequence(B11, seq)
            dims.add(evaluate_at_one(kw_character_with_borel(lam, B11, b, (), 1)))
        assert dims == {cr.dimension}
        assert evaluate_at_one(character(cr)) == cr.dimension >= 1


class TestMonomialText:
    def test_variables_and_half_exponents(self):
        p = poly_sum(
            monomial(Weight.from_ints([2], [0]), 1),
            monomial(Weight.from_doubled([1], [-1]), -2),
            monomial(Weight.zero(1, 1), 3),
        )
        assert monomial_text(p, 1, 1) == "y1^2 - 2*y1^(1/2)*x1^(-1/2) + 3"

    def test_orbit_form_by_hand(self):
        # B:1:1: the orbit of (1 | 1/2) is (+-1 | +-1/2), of (0 | 0) itself
        orbits = {(2, 1): -2, (0, 0): 3}
        assert "".join(orbits_text(B11, orbits)) == (
            "-2*y1*x1^(1/2) - 2*y1*x1^(-1/2) + 3 - 2*y1^-1*x1^(1/2) - 2*y1^-1*x1^(-1/2)"
        )
        assert "".join(orbits_text(B11, {})) == "0"

    def test_trivial_character(self):
        cr = kw_character(HookPartition.of((), 1, 1), B11)
        assert "".join(orbits_text(B11, cr.orbits)) == monomial_text(character(cr), 1, 1) == "1"

    @pytest.mark.parametrize("alg", [B11, Algebra("B", 1, 2), Algebra("B", 2, 1), D21, D22], ids=Algebra.label)
    def test_orbit_form_against_the_expanded_polynomial(self, alg):
        # family B puts half-integral eps exponents into every weight
        for lam, _ in tame_weights(alg, 5):
            for minus in (False, True) if alg.family == "D" else (False,):
                cr = kw_character(lam, alg, minus=minus)
                for orbits in (cr.orbits, supercharacter(cr)):
                    want = monomial_text(expand_orbits(alg, orbits), alg.n, alg.m)
                    assert "".join(orbits_text(alg, orbits)) == want, (lam.parts, minus)


SUPERSYMMETRY_SWEEP = [
    (Algebra.parse(label), size)
    for label, size in (("B:1:1", 5), ("B:2:1", 5), ("B:1:2", 5), ("D:2:1", 5), ("D:2:2", 4), ("B:2:2", 4), ("D:3:2", 3))
]


def test_supercharacters_are_supersymmetric():
    # Sergeev-Veselov: every supercharacter is t-free after e^{eps_i} = t,
    # e^{delta_j} = t^{+-1}; plain characters are not, so the check bites
    checked = plain_failures = 0
    for alg, size in SUPERSYMMETRY_SWEEP:
        for lam, _ in tame_weights(alg, size):
            cr = kw_character(lam, alg)
            assert supersymmetry_violations(expand_orbits(alg, supercharacter(cr)), alg.n, alg.m) == [], (alg.label(), lam.parts)
            plain_failures += bool(supersymmetry_violations(character(cr), alg.n, alg.m))
            checked += 1
    assert checked >= 50
    assert plain_failures >= 3 * checked // 4


def test_supersymmetry_catches_a_perturbed_orbit():
    # one more copy of a whole W-orbit keeps W-invariance but breaks supersymmetry
    lam = HookPartition.of((2, 1), 2, 2)
    cr = kw_character(lam, D22)
    mu = max(cr.orbits)
    sc = poly_sum(expand_orbits(D22, supercharacter(cr)), expand_orbits(D22, {mu: 1}))
    assert is_w_invariant(D22, sc)
    assert supersymmetry_violations(sc, D22.n, D22.m)


def test_euler_excluded_set_is_built_once():
    # a Levi given as a list gives what the tuple gives
    b = b_odd(D32)
    levi = b.simple_roots[:-1]
    zero = Weight.zero(D32.n, D32.m)
    assert euler_char_character(list(levi), zero, b) == euler_char_character(levi, zero, b) == {zero.exponent_key(): 4}
