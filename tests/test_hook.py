"""Tests for hook partitions and the partition/highest-weight dictionary."""

import pytest

from ospchar.exactnum import Weight
from ospchar.hook import (
    HookPartition,
    HookViolation,
    highest_weight_via_reflections,
    hook_partitions,
    natural_weight,
    parse_partition,
    transpose,
)
from ospchar.rootdata import (
    Algebra,
    EpsDeltaSequence,
    FamilyMismatch,
    all_sequences,
    b_odd,
    b_standard,
    borel_from_sequence,
)
from oracles import FrobeniusData, frobenius_data, frobenius_weight, natural_weight_by_index


def columns_oracle(parts):
    """Independent transpose: count boxes per column."""
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p > col) for col in range(parts[0])
    )


class TestTranspose:
    def test_small_example_against_column_counts(self):
        parts = (3, 2, 2, 2, 1)
        assert transpose(parts) == columns_oracle(parts) == (5, 4, 1)

    def test_empty(self):
        assert transpose(()) == ()

    def test_involution(self):
        parts = (10, 9, 6, 4, 4, 4, 3, 2, 1, 1, 1)
        assert transpose(transpose(parts)) == parts
        assert transpose(parts) == columns_oracle(parts)


class TestHookPartition:
    def test_hook_condition_enforced(self):
        with pytest.raises(HookViolation):
            HookPartition.of((3, 3), 1, 2)
        HookPartition.of((3, 2), 1, 2)  # lambda_2 = 2 <= m

    def test_part_is_total(self):
        lam = HookPartition.of((4, 2), 3, 3)
        assert lam.part(1) == 4 and lam.part(2) == 2 and lam.part(9) == 0

    def test_trailing_zeros_trimmed(self):
        assert HookPartition.of((5, 0, 0), 3, 3).parts == (5,)

    def test_parse_partition(self):
        assert parse_partition("6,6,5,2,1,1") == (6, 6, 5, 2, 1, 1)
        assert parse_partition("0") == ()
        assert parse_partition("") == ()
        # zeros are kept: HookPartition.of trims trailing ones and rejects the rest
        assert parse_partition("3,0,2") == (3, 0, 2)
        assert HookPartition.of(parse_partition("3,2,0"), 2, 2).parts == (3, 2)
        with pytest.raises(HookViolation):
            HookPartition.of(parse_partition("3,0,2"), 2, 2)


class TestNaturalWeight:
    def test_osp_6_4_example(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        alg = Algebra("D", 3, 2)
        plus, _ = natural_weight(lam)
        assert plus == Weight.from_ints([3, 3], [5, 4, 1])
        shifted = plus + b_standard(alg).rho
        assert shifted.display() == "(2,1|7,5,1)"

    def test_zero_partition(self):
        lam = HookPartition.of((), 2, 2)
        plus, minus = natural_weight(lam)
        assert plus == minus == Weight.zero(2, 2)

    def test_osp_7_6_example(self):
        lam = HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3)
        alg = Algebra("B", 3, 3)
        plus, _ = natural_weight(lam)
        shifted = plus + b_standard(alg).rho
        assert shifted.display() == "(11/2,9/2,5/2|11/2,5/2,1/2)"

    def test_minus_twin_differs_iff_kappa_m_positive(self):
        for n, m in [(2, 2), (1, 2)]:
            for lam in hook_partitions(n, m, 7):
                plus, minus = natural_weight(lam)
                kappa_m = plus.eps[-1]
                assert (plus == minus) == (kappa_m == 0)
                assert (plus == minus) == (lam.part(n + 1) < m)

    def test_equals_the_construction_index_by_index(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for lam in hook_partitions(n, m, 12):
                    assert natural_weight(lam) == natural_weight_by_index(lam), (n, m, lam.parts)

    def test_parts_weakly_decreasing_on_both_sides(self):
        for lam in hook_partitions(2, 3, 7):
            plus, _ = natural_weight(lam)
            deltas, kappas = list(plus.delta), list(plus.eps)
            assert deltas == sorted(deltas, reverse=True)
            assert kappas == sorted(kappas, reverse=True)
            assert all(k >= 0 for k in kappas)


class TestFrobeniusWeight:
    def test_example_2_2_golden(self):
        alg = Algebra("B", 4, 5)
        b = borel_from_sequence(alg, EpsDeltaSequence.parse("ddeeddeed"))
        lam = HookPartition.of((10, 9, 6, 4, 4, 4, 3, 2, 1, 1, 1), 5, 4)
        assert frobenius_weight(lam, b) == Weight.from_ints(
            [10, 9, 4, 2, 0], [9, 6, 3, 2]
        )

    def test_standard_borel_gives_natural_weight(self):
        for alg in (Algebra("B", 2, 2), Algebra("D", 2, 2)):
            for lam in hook_partitions(alg.n, alg.m, 6):
                assert frobenius_weight(lam, b_standard(alg)) == natural_weight(lam)[0]

    def test_zero_partition_any_borel(self):
        alg = Algebra("B", 2, 2)
        for seq in all_sequences(alg):
            b = borel_from_sequence(alg, seq)
            assert frobenius_weight(HookPartition.of((), 2, 2), b) == Weight.zero(2, 2)

    def test_breakpoints_recorded(self):
        fd = frobenius_data(
            HookPartition.of((10, 9, 6, 4, 4, 4, 3, 2, 1, 1, 1), 5, 4),
            EpsDeltaSequence.parse("ddeeddeed"),
        )
        assert isinstance(fd, FrobeniusData)
        assert fd.d_cum == (2, 4, 5) and fd.e_cum == (2, 4, 4)
        assert fd.p == (10, 9, 4, 2, 0) and fd.q == (9, 6, 3, 2)

    def test_unsupported_sign_pairing_raises(self):
        alg = Algebra("D", 2, 2)
        plain_delta_ending = borel_from_sequence(alg, EpsDeltaSequence.parse("deed"))
        signed = borel_from_sequence(alg, EpsDeltaSequence.parse("deed-"))
        lam = HookPartition.of((2, 1), 2, 2)
        with pytest.raises(ValueError):
            frobenius_weight(lam, plain_delta_ending, minus=True)
        with pytest.raises(ValueError):
            frobenius_weight(lam, signed, minus=False)

    def test_signed_sequence_carries_minus_twin(self):
        alg = Algebra("D", 2, 2)
        signed = borel_from_sequence(alg, EpsDeltaSequence.parse("deed-"))
        lam = HookPartition.of((2, 2, 2), 2, 2)
        assert frobenius_weight(lam, signed) == highest_weight_via_reflections(
            lam, signed, minus=True
        )


class TestReflectionWalk:
    def test_minus_twin_rejected_in_family_b(self):
        alg = Algebra("B", 2, 2)
        with pytest.raises(FamilyMismatch):
            highest_weight_via_reflections(HookPartition.of((1,), 2, 2), b_odd(alg), minus=True)

    def test_agrees_with_frobenius_exhaustively(self):
        for label in ("B:1:1", "B:1:2", "B:2:1", "B:2:2", "D:2:2", "D:2:1"):
            alg = Algebra.parse(label)
            for seq in all_sequences(alg):
                b = borel_from_sequence(alg, seq)
                minus = seq.sign == -1
                for lam in hook_partitions(alg.n, alg.m, 8):
                    assert frobenius_weight(lam, b) == highest_weight_via_reflections(
                        lam, b, minus=minus
                    ), (label, str(seq), lam.parts)

    def test_d_case_34_borel_keeps_shifted_weight(self):
        # lambda_{n+1} = m tame family: the walk to the signed Borel is silent
        from ospchar.atyp import is_tame

        alg = Algebra("D", 3, 2)
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        rep = is_tame(lam, alg)
        assert rep.tame and rep.atypicality_k == 1
        b = rep.witness_borel
        lam_b = highest_weight_via_reflections(lam, b)
        assert lam_b + b.rho == natural_weight(lam)[0] + b_standard(alg).rho

    def test_trivial_module_bodd_shifted_weight_b_type(self):
        # half-shift shape: +1/2 on every d, -1/2 on every e
        for k in (1, 2, 3):
            alg = Algebra("B", k, k)
            b = b_odd(alg)
            gamma = highest_weight_via_reflections(HookPartition.of((), k, k), b)
            shifted = gamma + b.rho
            assert shifted == Weight.from_doubled([1] * k, [-1] * k)
