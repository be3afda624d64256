"""Tests for Borel data, Weyl machinery, odd reflections, and the D twist."""

import itertools
import operator
import random

import pytest

from ospchar import rootdata
from ospchar.exactnum import InternalError, Weight
from ospchar.rootdata import (
    Algebra,
    EpsDeltaSequence,
    FamilyMismatch,
    NotSimpleIsotropic,
    NotSimpleRoot,
    all_sequences,
    b_odd,
    b_standard,
    borel_from_sequence,
    even_rho,
    height,
    in_simple_span,
    odd_reflection,
    pairing4,
    reflection_walk,
    root_str,
    sigma_twist,
    simple_coords4,
    weyl_factor,
    weyl_factors,
    weyl_orbit,
)
from ospchar.characters import _seed_plan
from ospchar.cli import _denominator_checks
from ospchar.hook import hook_partitions, natural_weight
from oracles import (
    all_sequences_by_permutations,
    coords_in_basis,
    denominators,
    dominant,
    monomial,
    poly_sum,
    reflection_walk_by_steps,
    rho_even,
    root_parity,
    scaled,
    sigma_twist_poly,
    straighten,
    weyl_alternating_sum,
    weyl_group,
)

B11 = Algebra("B", 1, 1)
B22 = Algebra("B", 2, 2)
D21 = Algebra("D", 2, 1)
D22 = Algebra("D", 2, 2)


def w(delta, eps):
    return Weight.from_ints(delta, eps)


class TestAlgebra:
    def test_d_requires_m_at_least_two(self):
        with pytest.raises(ValueError):
            Algebra("D", 1, 3)

    def test_parse(self):
        assert Algebra.parse("b:2:3") == Algebra("B", 2, 3)


class TestPairing:
    # pairing4 is 4 times the form, an int on doubled coordinates
    def test_isotropic_self_pairing(self):
        assert pairing4(w([1], [-1]), w([1], [-1])) == 0

    def test_eps_unit(self):
        assert pairing4(w([0], [1]), w([0], [1])) == 4

    def test_delta_sign_convention(self):
        x = Weight.from_doubled([11], [0])  # (11/2) d_1
        assert pairing4(x, w([1], [0])) == -22
        assert type(pairing4(x, x)) is int


# every algebra with m, n <= 3: B:1:1 to D:3:3
RANK_3_ALGEBRAS = [Algebra(f, m, n) for f in ("B", "D") for m in (1, 2, 3) for n in (1, 2, 3) if f == "B" or m >= 2]


def coordinate_probes(alg, rng):
    """Every positive root; the differences lambda - mu and lambda + rho - mu
    of natural hook weights, the second half-integral in family B; and a few
    random doubled weights with odd entries, half-integral in both families."""
    naturals = [natural_weight(lam)[0] for lam in hook_partitions(alg.n, alg.m, 2)]
    rho = b_standard(alg).rho
    probes = list(b_standard(alg).pos_even | b_standard(alg).pos_odd)
    probes += [x - y for x in naturals for y in naturals]
    probes += [x + rho - y for x in naturals for y in naturals]
    probes += [
        Weight.from_doubled([rng.randrange(-7, 8, 2) for _ in range(alg.n)], [rng.randint(-5, 5) for _ in range(alg.m)])
        for _ in range(6)
    ]
    return probes


@pytest.mark.parametrize("alg", RANK_3_ALGEBRAS, ids=Algebra.label)
def test_simple_coords4_match_the_gauss_jordan_solve(alg):
    # every Borel, signed D ones included: the partial sums, halved at the
    # type-D fork, against the exact solve over Fraction, scaled by 4
    rng = random.Random(alg.label())
    probes = coordinate_probes(alg, rng)
    assert any(v % 2 for x in probes for v in x.exponent_key())
    quarters = 0
    for b in every_borel(alg):
        simple = list(b.simple_roots)
        for x in probes:
            got = simple_coords4(b, x)
            assert list(got) == [4 * c for c in coords_in_basis(simple, x)], (str(b.sequence), x)
            quarters += any(c % 2 for c in got)
    assert (alg.family == "D") == bool(quarters)


def test_in_simple_span_refuses_a_root_that_is_not_simple():
    b = b_standard(D22)
    levi = b.simple_roots[-2:]
    assert in_simple_span(b, levi, levi[0] + levi[1])
    assert not in_simple_span(b, levi, b.simple_roots[0])
    assert in_simple_span(b, (), Weight.zero(D22.n, D22.m))
    not_simple = levi[0] + levi[1]
    with pytest.raises(NotSimpleRoot):
        in_simple_span(b, (not_simple,), not_simple)
    # the Euler character's excluded set and the positivity check use it
    from ospchar.characters import euler_char_character

    with pytest.raises(NotSimpleRoot):
        euler_char_character((not_simple,), Weight.zero(D22.n, D22.m), b)


def roots_by_definition(alg):
    """Every root of the algebra, as (even, odd): +-d_i+-d_j, +-2d_i and
    +-e_i+-e_j are even, +-d_i+-e_j odd, with +-e_j even and +-d_i odd in
    family B."""
    d = [Weight.basis_delta(alg.n, alg.m, i) for i in range(1, alg.n + 1)]
    e = [Weight.basis_eps(alg.n, alg.m, j) for j in range(1, alg.m + 1)]
    even = [x.scale(2) for x in d]
    even += [a + b.scale(s) for axes in (d, e) for a, b in itertools.combinations(axes, 2) for s in (1, -1)]
    odd = [a + b.scale(s) for a in d for b in e for s in (1, -1)]
    if alg.family == "B":
        even += e
        odd += d
    return tuple({x for r in roots for x in (r, -r)} for roots in (even, odd))


def positive_roots_by_definition(alg, seq):
    """The (even, odd) roots on which h > 0, where h takes the value N - p on
    the symbol at 0-based position p; a signed sequence's are those of its
    unsigned twin with the e_m coordinate negated."""
    value = {symbol: len(seq.symbols) - p for p, symbol in enumerate(seq.numbered())}
    h = [value["d", i] for i in range(1, alg.n + 1)] + [value["e", j] for j in range(1, alg.m + 1)]
    out = []
    for roots in roots_by_definition(alg):
        positive = {r for r in roots if sum(map(operator.mul, r.exponent_key(), h)) > 0}
        if seq.sign == -1:
            positive = {Weight(r.delta, r.eps[:-1] + (-r.eps[-1],)) for r in positive}
        out.append(positive)
    return tuple(out)


@pytest.mark.parametrize("alg", RANK_3_ALGEBRAS, ids=Algebra.label)
def test_root_data_matches_the_definition(alg):
    # every sequence, signed ones included: the positive roots, and the
    # simple roots as the positive roots that are not a sum of two of them
    for seq in all_sequences(alg):
        b = borel_from_sequence(alg, seq)
        even, odd = positive_roots_by_definition(alg, seq)
        positive = even | odd
        sums = {x + y for x, y in itertools.combinations_with_replacement(positive, 2)}
        assert (b.pos_even, b.pos_odd) == (even, odd), str(seq)
        assert set(b.simple_roots) == {r for r in positive if r not in sums}, str(seq)


def test_all_sequences_equal_the_permutation_enumeration():
    # the d positions list the patterns in the sorted order of the deduplicated
    # permutations, signed family-D variants in place, for every m, n <= 5
    for m in range(1, 6):
        for n in range(1, 6):
            for alg in [Algebra("B", m, n)] + ([Algebra("D", m, n)] if m >= 2 else []):
                assert list(all_sequences(alg)) == list(all_sequences_by_permutations(alg)), alg.label()


class TestBorelFromSequence:
    def test_standard_rho_family_b(self):
        # rho = sum (n-m-i+1/2) d_i + sum (m-j+1/2) e_j
        for m, n in [(1, 1), (2, 2), (3, 2), (1, 3)]:
            alg = Algebra("B", m, n)
            b = b_standard(alg)
            want = Weight.from_doubled(
                [2 * (n - m - i) + 1 for i in range(1, n + 1)],
                [2 * (m - j) + 1 for j in range(1, m + 1)],
            )
            assert b.rho == want

    def test_standard_rho_family_d(self):
        # rho = sum (n-m-i+1) d_i + sum (m-j) e_j
        for m, n in [(2, 1), (2, 2), (3, 2)]:
            alg = Algebra("D", m, n)
            b = b_standard(alg)
            want = Weight.from_ints(
                [n - m - i + 1 for i in range(1, n + 1)],
                [m - j for j in range(1, m + 1)],
            )
            assert b.rho == want

    def test_example_sequence_simple_roots(self):
        # osp(9|10) with sequence ddeeddeed
        alg = Algebra("B", 4, 5)
        b = borel_from_sequence(alg, EpsDeltaSequence.parse("ddeeddeed"))
        assert [root_str(r) for r in b.simple_roots] == [
            "d1-d2", "d2-e1", "e1-e2", "e2-d3", "d3-d4",
            "d4-e3", "e3-e4", "e4-d5", "d5",
        ]

    def test_rho_is_even_minus_odd_half_sums(self):
        for alg in (B11, B22, D21, D22):
            for seq in all_sequences(alg):
                b = borel_from_sequence(alg, seq)
                total_odd = Weight.zero(alg.n, alg.m)
                for r in b.pos_odd:
                    total_odd = total_odd + r
                assert b.rho == rho_even(b) - total_odd.half()

    @pytest.mark.parametrize("alg", RANK_3_ALGEBRAS, ids=Algebra.label)
    def test_simple_roots_are_positive_and_isotropy_is_odd_mixed(self, alg):
        # every Borel, signed D ones included: the set a root sits in is its
        # parity, read off its d-degree; every isotropic root is odd, so
        # odd_reflection needs no parity test to refuse an even simple root
        for b in every_borel(alg):
            allpos = b.pos_even | b.pos_odd
            assert not b.pos_even & b.pos_odd
            for r in b.simple_roots:
                assert r in allpos
            assert {root_parity(r) for r in b.pos_even} == {0}
            assert {root_parity(r) for r in b.pos_odd} == {1}
            for r in allpos | set(b.simple_roots):
                if pairing4(r, r) == 0:
                    assert r in b.pos_odd, (str(b.sequence), root_str(r))
            for r in b.simple_roots:
                if r in b.pos_even:
                    with pytest.raises(NotSimpleIsotropic):
                        odd_reflection(b, r, Weight.zero(alg.n, alg.m))

    def test_even_positive_system_shared_across_borels(self):
        for alg in (B22, D21, D22):
            ref = b_standard(alg).pos_even
            for seq in all_sequences(alg):
                assert borel_from_sequence(alg, seq).pos_even == ref


class TestBorelCache:
    def test_cached_borel_equals_a_fresh_build_and_is_shared(self):
        for alg in (B22, D22, Algebra("D", 3, 2)):
            for seq in all_sequences(alg):
                cached = borel_from_sequence(alg, seq)
                assert cached == borel_from_sequence.__wrapped__(alg, seq)
                assert borel_from_sequence(alg, seq) is cached
                assert borel_from_sequence(alg, EpsDeltaSequence(seq.symbols, seq.sign)) is cached

    def test_errors_are_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                borel_from_sequence(B22, EpsDeltaSequence.parse("dde"))
            with pytest.raises(FamilyMismatch):
                borel_from_sequence(B22, EpsDeltaSequence.parse("eedd-"))

    @pytest.mark.parametrize(
        "alg",
        [Algebra(f, m, n) for f in "BD" for m in range(1, 5) for n in range(1, 5) if f == "B" or m >= 2],
        ids=Algebra.label,
    )
    def test_standard_and_odd_borels_are_built_once_per_algebra(self, alg):
        standard = EpsDeltaSequence(("d",) * alg.n + ("e",) * alg.m)
        for get, seq in ((b_standard, standard), (b_odd, b_odd(alg).sequence)):
            assert get(alg) is get(alg)
            assert get(alg) is get(Algebra(alg.family, alg.m, alg.n))
            assert get(alg) == borel_from_sequence.__wrapped__(alg, seq)
        assert b_odd(alg) == b_odd.__wrapped__(alg)

    def test_cached_root_string_equals_a_fresh_rendering(self):
        for alg in (B22, D22, Algebra("D", 3, 2)):
            for seq in all_sequences(alg):
                b = borel_from_sequence(alg, seq)
                for r in b.pos_even | b.pos_odd | set(b.simple_roots):
                    text = root_str.__wrapped__(r)
                    assert root_str(r) == text
                    assert root_str(Weight(r.delta, r.eps)) is root_str(r)


class TestBOdd:
    def test_b11_sequence_and_simple_roots(self):
        b = b_odd(B11)
        assert str(b.sequence) == "ed"
        assert [root_str(r) for r in b.simple_roots] == ["e1-d1", "d1"]

    def test_b_excess_eps_prefixed(self):
        b = b_odd(Algebra("B", 3, 1))
        assert str(b.sequence) == "eeed"
        assert root_str(b.simple_roots[0]) == "e1-e2"

    def test_b_excess_deltas_prefixed(self):
        b = b_odd(Algebra("B", 1, 3))
        assert str(b.sequence) == "dded"

    def test_d_square_terminal_fork(self):
        b = b_odd(D22)
        assert str(b.sequence) == "dede"
        assert root_str(b.simple_roots[-2]) == "d2-e2"
        assert root_str(b.simple_roots[-1]) == "d2+e2"

    def test_d_rect_shapes(self):
        assert str(b_odd(D21).sequence) == "ede"
        assert str(b_odd(Algebra("D", 2, 3)).sequence) == "ddede"


class TestWeylGroup:
    def test_orders(self):
        assert len(weyl_group(B11)) == 4
        assert len(weyl_group(D21)) == 8
        assert len(weyl_group(B22)) == 64

    def test_identity_and_sign_flip_action(self):
        images = {act((2, 4)): sign for sign, act in weyl_group(B11)}
        assert images == {(2, 4): 1, (-2, 4): -1, (2, -4): -1, (-2, -4): 1}

    def test_even_sign_constraint_in_family_d(self):
        # W(D_2) flips eps signs only in pairs
        for _, act in weyl_group(D22):
            eps = act((0, 0, 2, 4))[2:]
            assert (eps[0] < 0) == (eps[1] < 0)

    def test_weyl_denominator_identity(self):
        # signed orbit sum of e^{rho_even} equals the even denominator product
        for alg in (B11, D21, B22, D22):
            b = b_standard(alg)
            d0, _ = denominators(b)
            assert weyl_alternating_sum(alg, monomial(rho_even(b), 1)) == d0

    def test_straighten_dominant_and_orbit_match_brute_force(self):
        # every doubled exponent in a box, against the images under all of W
        for alg in (B11, Algebra("B", 2, 1), D21, D22):
            elements = weyl_group(alg)
            rho = even_rho(alg)
            for exp in itertools.product(range(-3, 4), repeat=alg.rank):
                images: dict[tuple[int, ...], list[int]] = {}
                for sign, act in elements:
                    images.setdefault(act(exp), []).append(sign)
                # the dominant image is the unique orbit point of greatest height
                top = max(images, key=lambda e: height(e, rho))
                assert [e for e in images if height(e, rho) == height(top, rho)] == [top]
                assert dominant(alg, exp) == top
                assert sorted(weyl_orbit(alg, top)) == sorted(images)
                hit = straighten(alg, exp)
                if len(images) < len(elements):  # a nontrivial stabiliser
                    assert hit is None, (alg.label(), exp)
                else:
                    assert hit == (images[top][0], top), (alg.label(), exp)

    def test_dominant_weights_below_is_the_dominance_interval(self):
        cases = {
            B11: [(4, 3), (6, 2)],
            Algebra("B", 2, 1): [(4, 5, 3), (2, 4, 2)],
            D21: [(4, 4, -2), (2, 3, 1)],
            D22: [(4, 2, 4, -2), (2, 0, 3, 3)],
        }
        for alg, tops in cases.items():
            simple = _even_simple_roots(alg)
            bound = max(abs(v) for t in tops for v in t)
            want = set()
            for exp in itertools.product(range(-bound, bound + 1), repeat=alg.rank):
                if dominant(alg, exp) != exp:
                    continue
                for t in tops:
                    diff = Weight.from_doubled(
                        [a - b for a, b in zip(t[: alg.n], exp[: alg.n])],
                        [a - b for a, b in zip(t[alg.n :], exp[alg.n :])],
                    )
                    coords = coords_in_basis(simple, diff)
                    if coords is not None and all(c >= 0 and c.denominator == 1 for c in coords):
                        want.add(exp)
                        break
            # the interval of a product is the product of the factor intervals
            delta, eps = weyl_factors(alg)
            got = {
                d + e
                for t in tops
                for d in delta.weights_below([t[: alg.n]])
                for e in eps.weights_below([t[alg.n :]])
            }
            assert got == want, alg.label()


FACTORS = [("C", 1), ("C", 2), ("C", 3), ("B", 1), ("B", 2), ("B", 3), ("D", 2), ("D", 3)]


def _factor_group(kind, rank):
    """(sgn w, w) for every signed permutation w of a factor, by brute force:
    sgn w = (-1)^{inversions} * product of the signs."""
    out = []
    for perm in itertools.permutations(range(rank)):
        inversions = sum(perm[i] > perm[j] for i in range(rank) for j in range(i + 1, rank))
        for signs in itertools.product((1, -1), repeat=rank):
            flips = signs.count(-1)
            if kind == "D" and flips % 2:
                continue
            out.append(((-1) ** (inversions + flips), perm, signs))
    return out


def _act(perm, signs, values):
    image = [0] * len(values)
    for i, v in enumerate(values):
        image[perm[i]] = signs[i] * v
    return tuple(image)


def _in_closed_chamber(kind, values):
    if any(a < b for a, b in zip(values, values[1:])):
        return False
    return values[-2] >= abs(values[-1]) if kind == "D" else values[-1] >= 0


@pytest.mark.parametrize("kind,rank", FACTORS, ids=lambda v: str(v))
class TestWeylFactors:
    """Each factor of W against brute force over its own Weyl group."""

    def test_roots_rho_and_shifts(self, kind, rank):
        factor = weyl_factor(kind, rank)
        assert len(factor.roots) == (rank * (rank - 1) if kind == "D" else rank * rank)
        assert factor.rho == tuple(sum(col) // 2 for col in zip(*factor.roots))
        top = {"C": 2 * rank, "B": 2 * rank - 1, "D": 2 * rank - 2}[kind]
        assert factor.rho == tuple(range(top, top - 2 * rank, -2))
        want = []
        for sign, perm, signs in _factor_group(kind, rank):
            shift = tuple(a - b for a, b in zip(factor.rho, _act(perm, signs, factor.rho)))
            if any(shift):
                want.append((height(shift, factor.rho), sign, shift))
        assert sorted(factor.shifts) == sorted(want)
        assert [s[0] for s in factor.shifts] == sorted(s[0] for s in factor.shifts)

    def test_dominant_straighten_and_orbit(self, kind, rank):
        factor = weyl_factor(kind, rank)
        group = _factor_group(kind, rank)
        for values in itertools.product(range(-3, 4), repeat=rank):
            images: dict[tuple[int, ...], list[int]] = {}
            for sign, perm, signs in group:
                images.setdefault(_act(perm, signs, values), []).append(sign)
            (top,) = [e for e in images if _in_closed_chamber(kind, e)]
            assert factor.dominant(values) == top, values
            orbit = factor.orbit(values)
            assert len(set(orbit)) == len(orbit), values  # no sign flipped on a zero
            assert sorted(orbit) == sorted(images), values
            assert len(set(factor.orbit(top))) == len(images)
            hit = factor.straighten(values)
            if len(images) < len(group):  # a nontrivial stabiliser
                assert hit is None, values
            else:
                assert hit == (images[top][0], top), values

    def test_straighten_by_classes_and_flips_against_their_subgroup(self, kind, rank):
        # for every set of classes of positions (the blocks of two or more of
        # a set partition), with and without the flips, against the subgroup
        # that the permutations within each class, and the sign flips when
        # allowed, generate; its chamber is each class in decreasing order,
        # and with the flips every entry nonnegative, but the last in type D
        # when no entry is 0, each class ordered by size
        factor = weyl_factor(kind, rank)
        group = _factor_group(kind, rank)
        for partition in _set_partitions(tuple(range(rank))):
            classes = tuple(block for block in partition if len(block) > 1)
            home = {i: block for block in partition for i in block}
            for flips in (True, False):
                subgroup = [
                    (sign, perm, signs)
                    for sign, perm, signs in group
                    if all(perm[i] in home[i] for i in range(rank)) and (flips or -1 not in signs)
                ]
                size = abs if flips else int
                for values in itertools.product(range(-3, 4), repeat=rank):
                    images: dict[tuple[int, ...], set[int]] = {}
                    for sign, perm, signs in subgroup:
                        images.setdefault(_act(perm, signs, values), set()).add(sign)
                    (top,) = [
                        e
                        for e in images
                        if not flips
                        or min(e[:-1], default=0) >= 0
                        and (e[-1] >= 0 or kind == "D" and 0 not in e)
                        if all(size(e[a]) >= size(e[b]) for block in classes for a, b in zip(block, block[1:]))
                    ]
                    hit = factor.straighten(values, classes, flips)
                    if images[top] == {1, -1}:  # an element of sgn -1 fixes values
                        assert hit is None, (values, classes, flips)
                    else:
                        assert hit == (*images[top], top), (values, classes, flips)
                    if flips and classes == (tuple(range(rank)),):
                        assert hit == factor.straighten(values), (values, classes)

    def test_children_are_the_dominant_lowerings_by_a_root(self, kind, rank):
        factor = weyl_factor(kind, rank)
        tops = [mu for mu in itertools.product(range(-4, 5), repeat=rank) if factor.dominant(mu) == mu]
        assert tops
        for mu in tops:
            lowers = [tuple(a - b for a, b in zip(mu, alpha)) for alpha in factor.roots]
            assert factor.children(mu) == tuple(x for x in lowers if factor.dominant(x) == x), mu

    def test_memoized_values_are_immutable(self, kind, rank):
        # the tables are shared by every caller in the process
        factor = weyl_factor(kind, rank)
        assert _frozen(factor.shifts)
        for values in itertools.product(range(-3, 4), repeat=rank):
            for name in ("dominant", "straighten", "orbit"):
                assert _frozen(getattr(factor, name)(values)), (name, values)
            for flips in (True, False):
                assert _frozen(factor.straighten(values, (tuple(range(1, rank)),), flips)), values
            assert _frozen(factor.children(factor.dominant(values))), values
        # so are the seed plans of an algebra with this factor, built here
        # with no, one and every odd root excluded
        alg = Algebra("B", 1, rank) if kind == "C" else Algebra(kind, rank, 1)
        for seq in all_sequences(alg):
            b = borel_from_sequence(alg, seq)
            first = min(b.pos_odd, key=Weight.exponent_key)
            for excluded in (frozenset(), frozenset({first}), b.pos_odd):
                assert _frozen(_seed_plan(b, excluded)), (str(seq), len(excluded))


def _set_partitions(items: tuple[int, ...]):
    """Every partition of items into blocks, each block in increasing order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [(first,), *partition]
        for k, block in enumerate(partition):
            yield [*partition[:k], (first, *block), *partition[k + 1 :]]


def _frozen(value) -> bool:
    """Whether value is an int, None, or a tuple of such, all the way down."""
    if isinstance(value, tuple):
        return all(map(_frozen, value))
    return value is None or isinstance(value, int)


def test_d32_shift_counts():
    # C_2 has 7 nontrivial elements, D_3 23, and W of D:3:2 has 8 * 24 - 1
    delta, eps = weyl_factors(Algebra("D", 3, 2))
    assert (len(delta.shifts), len(eps.shifts)) == (7, 23)
    assert (len(delta.shifts) + 1) * (len(eps.shifts) + 1) - 1 == 191 == len(weyl_group(Algebra("D", 3, 2))) - 1


def _even_simple_roots(alg):
    """Simple roots of the even part: d_i - d_{i+1}, 2d_n, e_k - e_{k+1} and
    e_m (family B) or e_{m-1} + e_m (family D)."""
    n, m = alg.n, alg.m
    d = [Weight.basis_delta(n, m, i) for i in range(1, n + 1)]
    e = [Weight.basis_eps(n, m, k) for k in range(1, m + 1)]
    roots = [d[i] - d[i + 1] for i in range(n - 1)] + [d[-1].scale(2)]
    roots += [e[k] - e[k + 1] for k in range(m - 1)]
    roots.append(e[-1] if alg.family == "B" else e[-2] + e[-1])
    return roots


# verify --max-rank 2 and the rank-3 algebras whose expanded products cost
# under a second each; B:3:3 alone takes tens of seconds
PRODUCT_CHECK_ALGEBRAS = [
    Algebra.parse(label)
    for label in ("B:1:1", "B:1:2", "B:2:1", "B:2:2", "D:2:1", "D:2:2", "B:2:3", "B:3:2", "D:3:2", "D:2:3")
]


def every_borel(alg):
    return [borel_from_sequence(alg, seq) for seq in all_sequences(alg)]


def product_checks(alg, borels):
    """The denominator identities on the expanded products, with the names
    and in the order of ``cli._denominator_checks``."""
    products = [denominators(b) for b in borels]
    d0_ref, d1_ref = products[0]
    return [
        ("odd-denominator-borel-independent", all(d1 == d1_ref for _, d1 in products), ""),
        ("even-denominator-sign-stable", all(d0 in (d0_ref, scaled(d0_ref, -1)) for d0, _ in products), ""),
        # W-invariant: each coefficient is constant on the W-orbit of its exponent
        (
            "odd-denominator-weyl-invariant",
            all(d1_ref.terms.get(x) == coef for exp, coef in d1_ref.terms.items() for x in weyl_orbit(alg, exp)),
            "",
        ),
    ]


def with_odd(b, roots):
    return b._replace(pos_odd=frozenset(roots))


class TestDenominatorInvariances:
    """The root-data checks of ``verify`` against the products they stand for."""

    @pytest.mark.parametrize("alg", PRODUCT_CHECK_ALGEBRAS, ids=Algebra.label)
    def test_root_data_verdicts_equal_the_product_verdicts(self, alg):
        borels = every_borel(alg)
        want = product_checks(alg, borels)
        assert all(ok for _, ok, _ in want)
        assert _denominator_checks(alg, borels) == want

    def planted(self, alg, borels, failing):
        got, want = _denominator_checks(alg, borels), product_checks(alg, borels)
        assert got == want
        assert {name for name, ok, _ in got if not ok} == {failing}

    @pytest.mark.parametrize("alg", [B22, D22], ids=Algebra.label)
    def test_dropped_odd_root_breaks_borel_independence(self, alg):
        borels = every_borel(alg)
        last = borels[-1]
        borels[-1] = with_odd(last, sorted(last.pos_odd, key=root_str)[1:])
        self.planted(alg, borels, "odd-denominator-borel-independent")

    @pytest.mark.parametrize("alg", [B22, D22], ids=Algebra.label)
    def test_negative_beside_a_root(self, alg):
        # the line of beta counted twice: a set of lines would miss it
        borels = every_borel(alg)
        last = borels[-1]
        beta = min(last.pos_odd, key=root_str)
        borels[-1] = with_odd(last, last.pos_odd | {-beta})
        self.planted(alg, borels, "odd-denominator-borel-independent")
        line = {beta, -beta}
        borels = [with_odd(b, b.pos_odd | line) for b in every_borel(alg)]
        self.planted(alg, borels, "odd-denominator-weyl-invariant")

    @pytest.mark.parametrize("alg", [B22, D22], ids=Algebra.label)
    def test_odd_root_replaced_by_a_non_root_everywhere(self, alg):
        # +-(d1 - e1) becomes +-(d1 - 2e1) in every Borel
        old, new = w([1, 0], [-1, 0]), w([1, 0], [-2, 0])
        swap = {old: new, -old: -new}
        borels = [with_odd(b, [swap.get(r, r) for r in b.pos_odd]) for b in every_borel(alg)]
        self.planted(alg, borels, "odd-denominator-weyl-invariant")

    @pytest.mark.parametrize("alg", [B22, D22], ids=Algebra.label)
    def test_dropped_even_root_breaks_sign_stability(self, alg):
        borels = every_borel(alg)
        last = borels[-1]
        borels[-1] = last._replace(pos_even=frozenset(sorted(last.pos_even, key=root_str)[1:]))
        self.planted(alg, borels, "even-denominator-sign-stable")

    def test_short_even_root_in_every_borel_of_family_d(self):
        # e_2 is a root of osp(5|4), not of osp(4|4); with it in every Borel
        # the sets of lines still agree, but in the Borels whose terminal
        # root is e_1 + e_2 neither e_2 nor -e_2 has no negative coordinate
        short = w([0, 0], [0, 1])
        borels = [b._replace(pos_even=b.pos_even | {short}) for b in every_borel(D22)]
        got = _denominator_checks(D22, borels)
        assert {name for name, ok, _ in got if not ok} == {"even-denominator-sign-stable"}


class TestOddReflection:
    def test_orthogonal_case_shifts_by_alpha(self):
        b = b_standard(B11)
        alpha = w([1], [-1])
        b2, gamma2 = odd_reflection(b, alpha, Weight.zero(1, 1))
        assert str(b2.sequence) == "ed"
        # shifted weight gains alpha: was (-1/2|1/2), becomes (1/2|-1/2)
        assert (gamma2 + b2.rho) == Weight.from_doubled([1], [-1])

    def test_nonorthogonal_case_keeps_shifted_weight(self):
        b = b_standard(B11)
        alpha = w([1], [-1])
        gamma = w([2], [0])
        b2, gamma2 = odd_reflection(b, alpha, gamma)
        assert gamma2 + b2.rho == gamma + b.rho

    def test_round_trip(self):
        for alg in (B22, D22):
            b = b_standard(alg)
            gamma = Weight.from_ints([2, 1][: alg.n], [1, 0][: alg.m])
            for alpha in b.simple_roots:
                if root_parity(alpha) == 1 and pairing4(alpha, alpha) == 0:
                    b2, g2 = odd_reflection(b, alpha, gamma)
                    back = -alpha
                    b3, g3 = odd_reflection(b2, back, g2)
                    assert b3.sequence == b.sequence
                    assert g3 == gamma

    def test_rejects_non_simple_root(self):
        b = b_standard(B22)
        with pytest.raises(NotSimpleIsotropic):
            odd_reflection(b, w([1, 0], [0, -1]), Weight.zero(2, 2))

    def test_rejects_non_isotropic_odd_root(self):
        b = b_standard(B11)  # terminal simple root e_1 is even here; d_1 odd non-isotropic
        bo = b_odd(B11)
        with pytest.raises(NotSimpleIsotropic):
            odd_reflection(bo, w([1], [0]), Weight.zero(1, 1))

    def test_d_terminal_flip_creates_signed_sequence(self):
        b = borel_from_sequence(D21, EpsDeltaSequence.parse("ede"))
        alpha = w([1], [0, 1])  # d_1 + e_2 is the terminal root
        b2, _ = odd_reflection(b, alpha, Weight.zero(1, 2))
        assert str(b2.sequence) == "eed-"

    def test_reflection_adds_alpha_to_rho_and_makes_minus_alpha_simple(self):
        # the identity odd_reflection relies on for the new highest weight
        D32 = Algebra("D", 3, 2)
        terminal_flips = 0
        for alg in (B22, D22, D32):
            gammas = (Weight.zero(alg.n, alg.m), Weight.from_ints([3, 1][: alg.n], [2, 1, 1][: alg.m]))
            for seq in all_sequences(alg):
                b = borel_from_sequence(alg, seq)
                for alpha in b.simple_roots:
                    if root_parity(alpha) != 1 or pairing4(alpha, alpha) != 0:
                        continue
                    for gamma in gammas:
                        b2, g2 = odd_reflection(b, alpha, gamma)
                        assert b2.rho == b.rho + alpha
                        assert -alpha in b2.simple_roots
                        # the shifted weight is kept, or gains alpha when orthogonal
                        gain = alpha if pairing4(gamma, alpha) == 0 else Weight.zero(alg.n, alg.m)
                        assert g2 + b2.rho == gamma + b.rho + gain
                    if alpha == b.simple_roots[-1]:
                        assert alg.family == "D" and b2.sequence.sign == -1
                        terminal_flips += 1
        assert terminal_flips > 0

    def test_atypicality_invariant_along_chains(self):
        from ospchar.atyp import atypicality_degree_brute
        from ospchar.hook import HookPartition, natural_weight

        for alg, parts in [(B22, (2, 1)), (D22, (2, 2, 1)), (D21, (1, 1))]:
            lam = HookPartition.of(parts, alg.n, alg.m)
            gamma = natural_weight(lam)[0]
            base = atypicality_degree_brute(gamma + b_standard(alg).rho, alg)
            for seq in all_sequences(alg):
                b2, g2 = reflection_walk(alg, seq, gamma)
                assert b2.sequence == seq
                assert atypicality_degree_brute(g2 + b2.rho, alg, b2) == base

    @pytest.mark.parametrize("alg", [B22, D22, Algebra("D", 3, 2)], ids=Algebra.label)
    def test_planned_walk_equals_the_walk_by_steps(self, alg):
        # the walk replays a plan shared by every weight; each step's
        # odd_reflection must give the same Borel and weight
        for seq in all_sequences(alg):
            for lam in hook_partitions(alg.n, alg.m, 4):
                for gamma in set(natural_weight(lam)):
                    assert reflection_walk(alg, seq, gamma) == reflection_walk_by_steps(alg, seq, gamma), (seq, lam)

    def test_unreachable_target_raises_on_every_call(self, monkeypatch):
        # a failed plan is not memoized, so every walk to the target raises
        rootdata._walk_plan.cache_clear()
        monkeypatch.setattr(rootdata, "_bubble_moves", lambda start, target: iter(()))
        target = EpsDeltaSequence.parse("eedd")
        for _ in range(2):
            with pytest.raises(InternalError, match="reached ddee, not eedd"):
                reflection_walk(B22, target, Weight.zero(2, 2))


class TestSigmaTwist:
    def test_rejects_family_b(self):
        with pytest.raises(FamilyMismatch):
            sigma_twist(B11, Weight.zero(1, 1))

    def test_weight_and_root_action(self):
        x = w([0], [1, 1])  # e_1 + e_2 over D(2,1)
        assert sigma_twist(D21, x) == w([0], [1, -1])
        r = w([1], [0, 1])
        assert root_str(sigma_twist(D21, r)) == "d1-e2"

    def test_involution_on_all_kinds(self):
        x = w([2], [1, -1])
        assert sigma_twist(D21, sigma_twist(D21, x)) == x
        p = poly_sum(monomial(x, 3), monomial(w([0], [0, 1]), -2))
        assert sigma_twist_poly(D21, sigma_twist_poly(D21, p)) == p
        for seq in all_sequences(D22):
            b = borel_from_sequence(D22, seq)
            assert sigma_twist(D22, sigma_twist(D22, b)).sequence == b.sequence

    def test_rejects_a_sequence(self):
        with pytest.raises(TypeError):
            sigma_twist(D21, EpsDeltaSequence.parse("ded"))

    def test_fixes_eps_ending_borels(self):
        b = borel_from_sequence(D21, EpsDeltaSequence.parse("dee"))
        assert sigma_twist(D21, b).sequence == b.sequence

    def test_fixed_point_on_natural_weight_with_zero_last_coordinate(self):
        from ospchar.hook import HookPartition, natural_weight

        lam = HookPartition.of((1,), 1, 2)  # lambda_2 = 0 < m: kappa_m = 0
        plus, minus = natural_weight(lam)
        assert plus == minus
        assert sigma_twist(D21, plus) == plus
