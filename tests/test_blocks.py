"""Tests for fingerprints, dominance, bottoms, and the block family."""

import itertools

import pytest

from ospchar.atyp import NotTame, is_tame
from ospchar.blocks import (
    WrongRegime,
    bottom_of_block,
    fingerprint,
    lambda_x_family,
    preceq,
    same_central_character,
)
from ospchar.exactnum import InternalError, Weight
from ospchar.hook import HookPartition, highest_weight_via_reflections, hook_partitions, natural_weight
from ospchar.rootdata import Algebra, b_standard, pairing4, root_str
import oracles
from oracles import admissibility_positivity, even_nilradical_by_hand, max_matching_brute, pairing_edges

B33 = Algebra("B", 3, 3)
B11 = Algebra("B", 1, 1)
D32 = Algebra("D", 3, 2)


def shifted(lam, alg):
    return natural_weight(lam)[0] + b_standard(alg).rho


class TestPreceq:
    def test_reflexive(self):
        x = natural_weight(HookPartition.of((3, 1), 2, 2), )[0]
        assert preceq(x, x, b_standard(Algebra("B", 2, 2)))

    def test_osp_7_6_chain(self):
        lam = natural_weight(HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3))[0]
        nu = natural_weight(HookPartition.of((6, 6, 1, 1, 1, 1), 3, 3))[0]
        gamma = natural_weight(HookPartition.of((5,), 3, 3))[0]
        b = b_standard(B33)
        assert preceq(gamma, nu, b) and preceq(nu, lam, b) and preceq(gamma, lam, b)
        assert not preceq(lam, gamma, b)

    def test_positive_root_shift_is_one_directional(self):
        hw = natural_weight(HookPartition.of((2,), 1, 1))[0]
        root = Weight.from_ints([1], [-1])  # d_1 - e_1, positive for the standard Borel
        b = b_standard(B11)
        assert preceq(hw, hw + root, b)
        assert not preceq(hw + root, hw, b)

    def test_non_lattice_gap_rejected(self):
        b = b_standard(B11)
        half = Weight.from_doubled([1], [0])
        assert not preceq(Weight.zero(1, 1), half, b)


class TestFingerprints:
    def test_osp_7_6_chain_weights_equivalent(self):
        lams = [(6, 6, 5, 2, 1, 1), (6, 6, 1, 1, 1, 1), (5,)]
        ws = [shifted(HookPartition.of(p, 3, 3), B33) for p in lams]
        for x, y in itertools.combinations(ws, 2):
            assert same_central_character(x, y, B33)

    def test_osp_6_4_family_equivalent(self):
        members = [
            (3, 2, 2, 2, 2, 2, 1),
            (3, 3, 3, 2, 2, 2, 1),
            (4, 4, 3, 3, 3, 2, 1),
            (5, 4, 3, 3, 3, 3, 1),
        ]
        ws = [shifted(HookPartition.of(p, 2, 3), D32) for p in members]
        for x, y in itertools.combinations(ws, 2):
            assert same_central_character(x, y, D32)

    def test_different_typical_weights_differ(self):
        a = shifted(HookPartition.of((2,), 1, 1), B11)
        b = shifted(HookPartition.of((3,), 1, 1), B11)
        assert not same_central_character(a, b, B11)

    def test_equivalence_relation_on_census(self):
        alg = Algebra("B", 2, 2)
        ws = [shifted(lam, alg) for lam in hook_partitions(2, 2, 6)]
        fps = [fingerprint(x, alg) for x in ws]
        for (w1, f1), (w2, f2) in itertools.combinations(zip(ws, fps), 2):
            assert same_central_character(w1, w2, alg) == (f1 == f2)

    def test_reduced_multiset_matches_every_maximal_matching(self):
        # brute-force all maximal matchings and compare the surviving entries
        for alg in (Algebra("B", 2, 2), Algebra("D", 2, 2)):
            for lam in hook_partitions(alg.n, alg.m, 7):
                s = shifted(lam, alg)
                fp = fingerprint(s, alg)
                edges = pairing_edges(s, alg, False)
                pairs = [(i, j) for i in edges for j in edges[i]]
                best = fp.k
                assert best == max_matching_brute(edges)
                for combo in itertools.combinations(pairs, best):
                    ds = [i for i, _ in combo]
                    es = [j for _, j in combo]
                    if len(set(ds)) < best or len(set(es)) < best:
                        continue
                    red_d = tuple(sorted(abs(a) for t, a in enumerate(s.delta) if t not in ds))
                    red_e = tuple(sorted(abs(b) for t, b in enumerate(s.eps) if t not in es))
                    assert (red_d, red_e) == (fp.reduced_delta, fp.reduced_eps)

    def test_d_typical_twins_distinguished(self):
        # typical weights with nonzero kappa_m: plus and minus twins are
        # different central characters.  D:2:1 has three such twins with
        # |lambda| <= 6, D:2:2 six with |lambda| <= 10 (none below 10)
        for label, size, twins in (("D:2:1", 6, 3), ("D:2:2", 10, 6)):
            alg = Algebra.parse(label)
            rho = b_standard(alg).rho
            checked = 0
            for lam in hook_partitions(alg.n, alg.m, size):
                plus, minus = natural_weight(lam)
                if plus == minus or fingerprint(plus + rho, alg).k != 0:
                    continue
                assert not same_central_character(plus + rho, minus + rho, alg), (label, lam.parts)
                checked += 1
            assert checked == twins, label


class TestBottomOfBlock:
    def test_osp_7_6_golden_trace(self):
        lam = HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3)
        trace = bottom_of_block(lam, B33)
        assert len(trace.steps) == 2
        s1, s2 = trace.steps
        assert s1.before.display() == "(11/2,9/2,5/2|11/2,5/2,1/2)"
        assert s1.chosen_b == 5 and s1.b_tilde == 3  # doubled: 5/2 -> 3/2
        assert s1.after.display() == "(11/2,9/2,-3/2|11/2,3/2,1/2)"
        assert s2.chosen_b == 11 and s2.b_tilde == 5
        assert s2.after.display() == "(9/2,-3/2,-5/2|5/2,3/2,1/2)"
        assert trace.result.parts == (5,)

    def test_intermediate_partition_recovered(self):
        lam = HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3)
        trace = bottom_of_block(lam, B33)
        from ospchar.blocks import partition_from_shifted

        assert partition_from_shifted(trace.steps[0].after, B33).parts == (6, 6, 1, 1, 1, 1)

    def test_half_integral_remainder_is_an_internal_error(self):
        from ospchar.blocks import partition_from_shifted

        # the standard rho of D:2:2 is integral, so a half-odd coordinate in
        # the shifted weight leaves a half-integral remainder
        alg = Algebra("D", 2, 2)
        s = b_standard(alg).rho + Weight.from_doubled([1, 0], [0, 0])
        with pytest.raises(InternalError):
            partition_from_shifted(s, alg)

    def test_osp_3_2_single_step(self):
        lam = HookPartition.of((1,), 1, 1)
        trace = bottom_of_block(lam, B11)
        assert len(trace.steps) == 1
        assert trace.steps[0].b_tilde == 1
        assert trace.steps[0].after.display() == "(-1/2|1/2)"
        assert trace.result.parts == ()
        assert same_central_character(
            shifted(lam, B11), shifted(trace.result, B11), B11
        )

    def test_tame_input_returns_empty_trace(self):
        trace = bottom_of_block(HookPartition.of((5,), 3, 3), B33)
        assert trace.steps == () and trace.result.parts == (5,)

    def test_output_is_tame_same_block_and_below(self):
        for alg in (Algebra("B", 2, 2), Algebra("D", 2, 2)):
            b = b_standard(alg)
            for lam in hook_partitions(alg.n, alg.m, 7):
                trace = bottom_of_block(lam, alg)
                assert is_tame(trace.result, alg).tame
                assert same_central_character(
                    shifted(lam, alg), shifted(trace.result, alg), alg
                )
                assert preceq(
                    natural_weight(trace.result)[0], natural_weight(lam)[0], b
                )

    def test_steps_strictly_decrease(self):
        b = b_standard(B33)
        trace = bottom_of_block(HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3), B33)
        for step in trace.steps:
            assert preceq(step.after, step.before, b)
            assert step.after != step.before

    def test_uniqueness_within_fingerprint_class(self):
        # B always; D away from the k = 1, lambda_n >= m-1 regime
        for alg in (Algebra("B", 2, 2), Algebra("D", 2, 2)):
            groups = {}
            for lam in hook_partitions(alg.n, alg.m, 7):
                fp = fingerprint(shifted(lam, alg), alg)
                groups.setdefault(fp, []).append(lam)
            for fp, lams in groups.items():
                if alg.family == "D" and fp.k == 1:
                    lams = [l for l in lams if l.part(alg.n) < alg.m - 1]
                bottoms = {bottom_of_block(l, alg).result.parts for l in lams}
                assert len(bottoms) <= 1


# the benchmark's census (B:4:4 and D:4:4 at |lambda| <= 11) and seven
# smaller algebras at |lambda| <= 9
DESCENT_SWEEP = [("B:4:4", 11), ("D:4:4", 11)] + [
    (label, 9) for label in ("B:1:1", "B:2:2", "B:3:3", "D:2:1", "D:2:2", "D:3:2", "D:4:3")
]


@pytest.mark.parametrize("label, size", DESCENT_SWEEP, ids=[label for label, _ in DESCENT_SWEEP])
def test_descent_on_shifted_weights_equals_the_descent_by_partitions(label, size):
    # every step (before, b, b_tilde, after) and the result, against the
    # descent that rebuilds each step from its partition with a whole report
    alg = Algebra.parse(label)
    longest = 0
    for lam in hook_partitions(alg.n, alg.m, size):
        trace = bottom_of_block(lam, alg)
        assert trace == oracles.bottom_of_block_by_partitions(lam, alg), lam.parts
        longest = max(longest, len(trace.steps))
    assert longest >= min(2, alg.n, alg.m)


class TestLambdaXFamily:
    def test_osp_6_4_golden(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        fam = lambda_x_family(lam, D32)
        assert [(x, p.parts) for x, p in fam] == [
            (0, (3, 2, 2, 2, 2, 2, 1)),
            (1, (3, 3, 3, 2, 2, 2, 1)),
            (3, (4, 4, 3, 3, 3, 2, 1)),
            (4, (5, 4, 3, 3, 3, 3, 1)),
        ]

    def test_members_tame_and_equivalent(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        base = shifted(lam, D32)
        for _, member in lambda_x_family(lam, D32):
            assert is_tame(member, D32).tame
            assert same_central_character(base, shifted(member, D32), D32)

    def test_lambda_zero_is_minimum(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        fam = lambda_x_family(lam, D32)
        bottom = natural_weight(fam[0][1])[0]
        b = b_standard(D32)
        for _, member in fam:
            assert preceq(bottom, natural_weight(member)[0], b)

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            lambda_x_family(HookPartition.of((5,), 3, 3), B33)
        with pytest.raises(WrongRegime):
            # tame k = 1 but lambda_n = 0 < m - 1
            lambda_x_family(HookPartition.of((3,), 2, 2), Algebra("D", 2, 2))
        with pytest.raises(WrongRegime):
            # typical weight in family D
            lambda_x_family(HookPartition.of((4, 3, 2, 1), 2, 2), Algebra("D", 2, 2))


class TestAdmissibilityPositivity:
    def test_b_square_trivial_vacuous(self):
        for k in (1, 2):
            ok, witness = admissibility_positivity(
                HookPartition.of((), k, k), Algebra("B", k, k)
            )
            assert ok and witness is None

    def test_d_type_examples_strict(self):
        ok, witness = admissibility_positivity(HookPartition.of((), 1, 2), Algebra("D", 2, 1))
        assert ok and witness is None
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        ok, witness = admissibility_positivity(lam, D32)
        assert ok and witness is None

    def test_b_type_boundary_case_detected(self):
        # For osp(7|6), gamma = (5), the Lemma-shape entry b_{m-k} equals 1/2,
        # so (shifted, e_1 + e_2) = 0 and the strict inequality degenerates.
        ok, witness = admissibility_positivity(HookPartition.of((5,), 3, 3), B33)
        assert not ok
        assert root_str(witness) == "e1+e2"

    def test_typical_rejected(self):
        with pytest.raises(NotTame):
            admissibility_positivity(HookPartition.of((2,), 1, 1), B11)

    @pytest.mark.parametrize(
        "label", ["B:1:1", "B:2:2", "B:3:3", "B:2:3", "B:3:2", "D:2:1", "D:2:2", "D:3:2", "D:2:3", "D:3:3"]
    )
    def test_against_the_hand_built_nilradical(self, monkeypatch, label):
        """The roots the check tries, read off its pairing4(w, w) calls, are
        the hand-built nilradical in descending exponent order, up to and
        including the first violation, which is the witness."""
        tried = []

        def spy(x, y):
            if x is y:
                tried.append(x)
            return pairing4(x, y)

        monkeypatch.setattr(oracles, "pairing4", spy)
        alg = Algebra.parse(label)
        checked = 0
        for lam in hook_partitions(alg.n, alg.m, 6):
            report = is_tame(lam, alg)
            if not report.tame or report.atypicality_k == 0:
                continue
            b = report.witness_borel
            shifted = highest_weight_via_reflections(lam, b) + b.rho
            want = sorted(even_nilradical_by_hand(lam, alg), key=Weight.exponent_key, reverse=True)
            # (shifted, w) / (w, w) > 0 as the sign of a product of integers
            bad = [w for w in want if not pairing4(shifted, w) * pairing4(w, w) > 0]
            tried.clear()
            ok, witness = admissibility_positivity(lam, alg)
            assert ok == (not bad), lam.parts
            if bad:
                assert witness == bad[0], lam.parts
                want = want[: want.index(bad[0]) + 1]
            assert tried == want, lam.parts
            checked += 1
        assert checked
