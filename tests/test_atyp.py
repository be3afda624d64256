"""Tests for atypicality degrees, tameness classification, e, T, and j."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ospchar.atyp import (
    _case_34_borel,
    _d_case_ii_index,
    _distinguished_T,
    atypicality_degree,
    atypicality_degree_brute,
    e_of_lambda,
    is_tame,
    match_equal,
    shifted_tameness,
    shifted_weight,
)
from ospchar.blocks import fingerprint
from ospchar.exactnum import InternalError, Weight
from ospchar.hook import HookPartition, hook_partitions, natural_weight
from ospchar.rootdata import Algebra, b_odd, b_standard, pairing4, root_str, sigma_twist
from ospchar.hook import highest_weight_via_reflections
from oracles import (
    e_by_transpose,
    matched_values,
    max_matching_brute,
    natural_weight_by_index,
    pairing_edges,
    tame_by_definition,
    tameness_by_pairing,
)

B33 = Algebra("B", 3, 3)
D32 = Algebra("D", 3, 2)


def shifted_st(lam, alg):
    return natural_weight(lam)[0] + b_standard(alg).rho


class TestAtypicalityDegree:
    def test_osp_7_6_big_example(self):
        lam = HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3)
        s = shifted_st(lam, B33)
        assert s.display() == "(11/2,9/2,5/2|11/2,5/2,1/2)"
        assert atypicality_degree(s) == 2 == atypicality_degree_brute(s, B33)

    def test_typical_weight(self):
        lam = HookPartition.of((2,), 1, 1)
        alg = Algebra("B", 1, 1)
        s = shifted_st(lam, alg)
        assert s.display() == "(3/2|1/2)"
        assert atypicality_degree(s) == 0

    def test_osp_6_4_degree_one(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        s = shifted_st(lam, D32)
        assert atypicality_degree(s) == 1 == atypicality_degree_brute(s, D32)

    def test_matching_equals_brute_force_exhaustively(self):
        # acceptance criterion 8 at reduced size; the full scan lives in
        # test_acceptance
        for fam, m, n in [("B", 2, 2), ("D", 2, 2), ("B", 3, 1), ("D", 3, 2)]:
            alg = Algebra(fam, m, n)
            for lam in hook_partitions(n, m, 6):
                s = shifted_st(lam, alg)
                assert atypicality_degree(s) == atypicality_degree_brute(s, alg)


class TestMatchEqual:
    def test_small_multisets(self):
        assert match_equal([3, 1, 1, 5], [1, 3, 3, 7]) == (2, [1, 5], [3, 7])
        assert match_equal([], [2]) == (0, [], [2])
        assert match_equal((0, 0), (0,)) == (1, [0], [])

    @pytest.mark.parametrize("label", ["B:2:2", "B:3:3", "B:4:4", "D:2:2", "D:3:2", "D:4:4"])
    def test_against_the_counter_reference(self, label):
        alg = Algebra.parse(label)
        for lam in hook_partitions(alg.n, alg.m, 8):
            s = shifted_st(lam, alg)
            abs_d, abs_e = [abs(a) for a in s.delta], [abs(b) for b in s.eps]
            minus_d = [-a for a in s.delta]
            for ds, es in ((abs_d, abs_e), (minus_d, s.eps)):
                assert match_equal(ds, es)[0] == matched_values(ds, es).total(), (label, lam.parts)
            assert atypicality_degree(s) == atypicality_degree_brute(s, alg), (label, lam.parts)
            matched = matched_values(abs_d, abs_e)
            fp = fingerprint(s, alg)
            assert fp.k == matched.total()
            assert fp.reduced_delta == tuple(sorted((Counter(abs_d) - matched).elements()))
            assert fp.reduced_eps == tuple(sorted((Counter(abs_e) - matched).elements()))


def pairing_case_ii_hits(shifted, alg):
    n, m = alg.n, alg.m
    em = Weight.basis_eps(n, m, m)
    return [i for i in range(1, n + 1) if pairing4(shifted, Weight.basis_delta(n, m, i) + em) == 0]


class TestIntegerEdges:
    def test_edges_and_case_ii_index_match_the_pairing(self):
        for alg in (Algebra("B", 2, 2), B33, Algebra("D", 2, 2), D32):
            for lam in hook_partitions(alg.n, alg.m, 8):
                s = shifted_st(lam, alg)
                # any sign, as atypicality_degree; minus roots only, as is_tame
                assert atypicality_degree(s) == max_matching_brute(pairing_edges(s, alg, False))
                minus_k = matched_values((-a for a in s.delta), s.eps).total()
                assert minus_k == max_matching_brute(pairing_edges(s, alg, True))
                hits = pairing_case_ii_hits(s, alg)
                if len(hits) > 1:
                    with pytest.raises(InternalError):
                        _d_case_ii_index(s, alg)
                else:
                    assert _d_case_ii_index(s, alg) == (hits[0] if hits else None)

    def test_several_case_ii_pairs_are_an_internal_error(self):
        alg = Algebra("D", 2, 2)
        s = Weight.from_doubled((3, 3), (1, 3))
        assert pairing_case_ii_hits(s, alg) == [1, 2]
        with pytest.raises(InternalError):
            _d_case_ii_index(s, alg)


class TestIsTame:
    def test_osp_7_6_gamma_tame(self):
        gamma = HookPartition.of((5,), 3, 3)
        rep = is_tame(gamma, B33)
        assert rep.tame and rep.atypicality_k == 2
        assert rep.j_lambda == 8

    def test_osp_7_6_lambda_not_tame(self):
        lam = HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3)
        rep = is_tame(lam, B33)
        assert not rep.tame and rep.atypicality_k == 2
        assert rep.distinguished_T is None and rep.j_lambda is None

    def test_osp_6_4_case_ii(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        rep = is_tame(lam, D32)
        assert rep.tame and rep.atypicality_k == 1
        assert [root_str(r) for r in rep.distinguished_T] == ["d2+e3"]
        assert rep.j_lambda == 1  # lambda_{n+1} = m row of the table

    def test_typical_is_tame_with_empty_T(self):
        lam = HookPartition.of((2,), 1, 1)
        rep = is_tame(lam, Algebra("B", 1, 1))
        assert rep.tame and rep.atypicality_k == 0
        assert rep.distinguished_T == () and rep.j_lambda == 1
        assert rep.witness_borel is None

    def test_sigma_symmetry_of_tameness(self):
        for alg in (Algebra("D", 2, 2), D32):
            for lam in hook_partitions(alg.n, alg.m, 6):
                plain = is_tame(lam, alg)
                twisted = is_tame(lam, alg, minus=True)
                assert plain.tame == twisted.tame
                assert plain.atypicality_k == twisted.atypicality_k
                assert plain.j_lambda == twisted.j_lambda

    def test_report_serialization_fields(self):
        rep = is_tame(HookPartition.of((), 1, 1), Algebra("B", 1, 1))
        obj = rep.to_json()
        assert set(obj) == {"k", "tame", "T", "e", "j"}
        assert obj["k"] == 1 and obj["tame"] is True
        assert obj["T"] == ["e1-d1"] and obj["j"] == 2 and obj["e"] is None


RANK_3_ALGEBRAS = [Algebra(f, m, n) for f in ("B", "D") for m in (1, 2, 3) for n in (1, 2, 3) if f == "B" or m >= 2]


class TestShiftedTameness:
    def test_agrees_with_the_pairing_and_with_both_reports(self):
        # every hook weight of the rank-3 sweep at |lambda| <= 8: lambda + rho
        # against the weight read off the parts by index; (k, tame, case-ii
        # index) against the pairing with the case read off the partition,
        # and against the plain and minus reports, whose witness and T the
        # index picks
        kinds = Counter()
        for alg in RANK_3_ALGEBRAS:
            rho = b_standard(alg).rho
            for lam in hook_partitions(alg.n, alg.m, 8):
                shifted = natural_weight_by_index(lam)[0] + rho
                assert shifted_weight(lam, alg) == shifted, (alg.label(), lam.parts)
                k, tame, index = got = shifted_tameness(shifted, alg)
                assert got == tameness_by_pairing(lam, alg), (alg.label(), lam.parts)
                for minus in (False, True) if alg.family == "D" else (False,):
                    rep = is_tame(lam, alg, minus=minus)
                    assert (rep.atypicality_k, rep.tame) == (k, tame), (alg.label(), lam.parts, minus)
                    if tame and k:
                        witness = b_odd(alg) if index is None else _case_34_borel(alg, index)
                        T = _distinguished_T(alg, k, index)
                        if minus:
                            witness, T = sigma_twist(alg, witness), tuple(sigma_twist(alg, r) for r in T)
                        assert (rep.witness_borel, rep.distinguished_T) == (witness, T)
                pair_case = alg.family == "D" and lam.part(alg.n + 1) == alg.m
                kinds[pair_case, k > 0, tame, index is not None] += 1
        # typical and both atypical verdicts on each side of the case split,
        # and a pair d_i + e_m that leaves the weight wild (k > 1)
        assert set(kinds) >= {
            (False, False, True, False),
            (False, True, True, False),
            (False, True, False, False),
            (True, False, True, False),
            (True, True, True, True),
            (True, True, False, True),
            (True, True, False, False),
        }, kinds


class TestTamenessByDefinition:
    def test_is_tame_matches_the_definition_on_every_borel(self):
        # the plus module on every Borel, signed ones included; sizes keep
        # the sweep to about a second
        cases = [
            (Algebra(fam, m, n), 6)
            for fam, m, n in (("B", 1, 1), ("B", 1, 2), ("B", 2, 1), ("B", 2, 2), ("D", 2, 1), ("D", 2, 2))
        ]
        cases += [(Algebra("B", 3, 2), 4), (Algebra("D", 3, 2), 4)]
        seen = set()
        for alg, size in cases:
            for lam in hook_partitions(alg.n, alg.m, size):
                tame = is_tame(lam, alg).tame
                assert tame == tame_by_definition(lam, alg), (alg.label(), lam.parts)
                seen.add(tame)
        assert seen == {True, False}


class TestEOfLambda:
    def test_empty_square(self):
        assert e_of_lambda(HookPartition.of((), 2, 2)) == 0

    def test_empty_overwide(self):
        # H(k|k+1): the i = 1 test -1 + m - n >= 0 fires, the strict one not
        assert e_of_lambda(HookPartition.of((), 1, 2)) == 1
        assert e_of_lambda(HookPartition.of((), 2, 3)) == 1

    def test_always_zero_or_one(self):
        for lam in hook_partitions(2, 3, 7):
            assert e_of_lambda(lam) in (0, 1)

    @pytest.mark.parametrize("label", ["D:2:1", "D:3:2", "D:2:3"])
    def test_part_counts_match_the_transpose(self, label):
        alg = Algebra.parse(label)
        for lam in hook_partitions(alg.n, alg.m, 8):
            assert e_of_lambda(lam) == e_by_transpose(lam), lam.parts

    def test_cost_does_not_grow_with_the_first_part(self):
        # a transpose of (10^9) holds 10^9 entries; the child's 1 GiB address
        # space turns such a regression into a MemoryError, not a full host
        def cap_memory():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "ospchar.cli", "classify", "--algebra", "D:2:1", "--partition", "1000000000"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            preexec_fn=cap_memory,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            '{"algebra":"D:2:1","command":"classify","minus":false,"partition":[1000000000],'
            '"report":{"T":[],"e":1,"j":1,"k":0,"tame":true}}\n'
        )


class TestDistinguishedT:
    def test_b_square_trivial(self):
        for k in (1, 2):
            alg = Algebra("B", k, k)
            T = is_tame(HookPartition.of((), k, k), alg).distinguished_T
            assert [root_str(r) for r in T] == [f"e{i}-d{i}" for i in range(1, k + 1)]

    def test_d_minus_pair_case(self):
        alg = Algebra("D", 2, 1)
        T = is_tame(HookPartition.of((), 1, 2), alg).distinguished_T
        assert [root_str(r) for r in T] == ["d1-e2"]

    def test_d_plus_pair_case(self):
        lam = HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3)
        T = is_tame(lam, D32).distinguished_T
        assert [root_str(r) for r in T] == ["d2+e3"]

    def test_built_once_and_shared(self):
        for alg, k, index in ((B33, 2, None), (B33, 3, None), (D32, 1, 2), (D32, 2, None)):
            T = _distinguished_T(alg, k, index)
            assert _distinguished_T(alg, k, index) is T
            assert _distinguished_T.__wrapped__(alg, k, index) == T
        lam = HookPartition.of((5,), 3, 3)
        assert is_tame(lam, B33).distinguished_T is is_tame(lam, B33).distinguished_T

    def test_roots_orthogonal_to_bodd_shifted_weight(self):
        for alg in (Algebra("B", 2, 2), Algebra("D", 2, 2), D32):
            for lam in hook_partitions(alg.n, alg.m, 6):
                rep = is_tame(lam, alg)
                if not rep.tame or rep.atypicality_k == 0:
                    continue
                b = rep.witness_borel
                shifted = highest_weight_via_reflections(lam, b) + b.rho
                for r in rep.distinguished_T:
                    assert r in b.simple_roots
                    assert pairing4(r, r) == 0
                    assert pairing4(shifted, r) == 0
                for r1 in rep.distinguished_T:
                    for r2 in rep.distinguished_T:
                        if r1 != r2:
                            assert pairing4(r1, r2) == 0


class TestJLambda:
    def test_b_type_table(self):
        rep = is_tame(HookPartition.of((5,), 3, 3), B33)
        assert rep.j_lambda == 8  # k = 2

    def test_d_type_k1_e0(self):
        alg = Algebra("D", 2, 2)
        lam = HookPartition.of((2,), 2, 2)
        rep = is_tame(lam, alg)
        if rep.tame and rep.atypicality_k == 1 and rep.e_lambda == 0:
            assert rep.j_lambda == 1
        # explicit instance: find one in the census
        found = False
        for lam in hook_partitions(2, 2, 6):
            rep = is_tame(lam, alg)
            if rep.tame and rep.atypicality_k == 1 and rep.e_lambda == 0:
                assert rep.j_lambda == 1
                found = True
        assert found

    def test_trivial_modules_match_square_formula(self):
        # j = k! 2^k over osp(2k+1|2k) and osp(2k+2|2k); k! 2^{k-1} over osp(2k|2k)
        import math

        for k in (1, 2):
            rep = is_tame(HookPartition.of((), k, k), Algebra("B", k, k))
            assert rep.j_lambda == math.factorial(k) * 2**k
            rep = is_tame(HookPartition.of((), k, k + 1), Algebra("D", k + 1, k))
            assert rep.j_lambda == math.factorial(k) * 2**k
        rep = is_tame(HookPartition.of((), 2, 2), Algebra("D", 2, 2))
        assert rep.j_lambda == 2 * 2  # 2! 2^{2-1}