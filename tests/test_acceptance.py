"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single pass line on success (run pytest -s to see them);
a failed assertion is the fail line.
"""

from ospchar.atyp import atypicality_degree, atypicality_degree_brute, is_tame
from ospchar.blocks import bottom_of_block, fingerprint, lambda_x_family
from ospchar.characters import (
    canonical_levi_roots,
    euler_char_character,
    kw_character,
)
from ospchar.exactnum import Weight
from ospchar.hook import (
    HookPartition,
    highest_weight_via_reflections,
    hook_partitions,
    natural_weight,
)
from ospchar.rootdata import (
    Algebra,
    EpsDeltaSequence,
    all_sequences,
    b_odd,
    b_standard,
    borel_from_sequence,
)
from oracles import (
    character,
    denominators,
    exact_divide,
    frobenius_weight,
    kw_character_with_borel,
    map_exponents,
    monomial,
    poly_product,
    sigma_twist_poly,
    weyl_group,
)


def passed(num: int, text: str) -> None:
    print(f"CRITERION {num}: PASS  {text}")


def test_criterion_1_trivial_module_identity():
    """kw character of the trivial module is the constant 1, exactly."""
    shapes = ["B:1:1", "B:2:2", "D:2:1", "D:2:2", "D:3:2"]
    for label in shapes:
        alg = Algebra.parse(label)
        cr = kw_character(HookPartition.of((), alg.n, alg.m), alg)
        assert character(cr) == monomial(Weight.zero(alg.n, alg.m), 1), label
    passed(1, f"trivial character equals 1 for {', '.join(shapes)}")


def test_criterion_2_euler_constants():
    """Euler characteristic of the trivial Levi module hits the 2-power table.

    The osp(2k|2k) instance at k = 1 is osp(2|2), outside the m >= 2 domain
    of family D here; the osp(2k+2|2k) shapes carry the same 2^k constant
    and stand in at k = 1, 2.
    """
    table = [("B:1:1", 2), ("B:2:2", 4), ("D:2:2", 2), ("D:2:1", 2), ("D:3:2", 4)]
    for label, expected in table:
        alg = Algebra.parse(label)
        b = b_odd(alg)
        zero = Weight.zero(alg.n, alg.m)
        euler = euler_char_character(b.simple_roots[:-1], zero, b)
        assert euler == {zero.exponent_key(): expected}, label
    passed(2, "Euler constants " + ", ".join(f"{l}={v}" for l, v in table))


def test_criterion_3_frobenius_golden():
    """Block Frobenius highest weight for the 9-node sequence over osp(9|10)."""
    alg = Algebra("B", 4, 5)
    b = borel_from_sequence(alg, EpsDeltaSequence.parse("ddeeddeed"))
    lam = HookPartition.of((10, 9, 6, 4, 4, 4, 3, 2, 1, 1, 1), 5, 4)
    got = frobenius_weight(lam, b)
    assert got == Weight.from_ints([10, 9, 4, 2, 0], [9, 6, 3, 2])
    assert got == highest_weight_via_reflections(lam, b)
    passed(3, f"lambda^b = {got.display()} for ddeeddeed over osp(9|10)")


def test_criterion_4_bottom_algorithm_golden():
    """The osp(7|6) descent with the exact intermediate shifted weights."""
    alg = Algebra("B", 3, 3)
    trace = bottom_of_block(HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3), alg)
    assert [s.before.display() for s in trace.steps] == [
        "(11/2,9/2,5/2|11/2,5/2,1/2)",
        "(11/2,9/2,-3/2|11/2,3/2,1/2)",
    ]
    assert trace.steps[-1].after.display() == "(9/2,-3/2,-5/2|5/2,3/2,1/2)"
    assert trace.result.parts == (5,)
    from ospchar.blocks import partition_from_shifted

    assert partition_from_shifted(trace.steps[0].after, alg).parts == (6, 6, 1, 1, 1, 1)
    passed(4, "(6,6,5,2,1,1) -> (6,6,1,1,1,1) -> (5) over osp(7|6)")


def test_criterion_5_block_family_golden():
    """The osp(6|4) degree-one family with X = {0, 1, 3, 4}."""
    alg = Algebra("D", 3, 2)
    fam = lambda_x_family(HookPartition.of((3, 3, 3, 2, 2, 2, 1), 2, 3), alg)
    assert [(x, p.parts) for x, p in fam] == [
        (0, (3, 2, 2, 2, 2, 2, 1)),
        (1, (3, 3, 3, 2, 2, 2, 1)),
        (3, (4, 4, 3, 3, 3, 2, 1)),
        (4, (5, 4, 3, 3, 3, 3, 1)),
    ]
    passed(5, "X = {0,1,3,4} with the four listed partitions over osp(6|4)")


def test_criterion_6_euler_equals_kw():
    """Term-for-term equality of the Euler character and the kw character."""
    checked = 0
    for label in ("B:2:2", "D:2:2"):
        alg = Algebra.parse(label)
        for lam in hook_partitions(alg.n, alg.m, 6):
            rep = is_tame(lam, alg)
            if not rep.tame:
                continue
            cr = kw_character(lam, alg)
            b = rep.witness_borel if rep.atypicality_k else b_odd(alg)
            levi = canonical_levi_roots(b, rep)
            lam_b = highest_weight_via_reflections(lam, b)
            assert euler_char_character(levi, lam_b, b) == cr.orbits, (label, lam.parts)
            checked += 1
            if alg.family == "D":
                repm = is_tame(lam, alg, minus=True)
                crm = kw_character(lam, alg, minus=True)
                bm = repm.witness_borel if repm.atypicality_k else b_odd(alg)
                levim = canonical_levi_roots(bm, repm)
                lam_bm = highest_weight_via_reflections(lam, bm, minus=True)
                assert euler_char_character(levim, lam_bm, bm) == crm.orbits, (
                    label,
                    lam.parts,
                    "minus",
                )
                checked += 1
    passed(6, f"Euler == kw on {checked} tame modules over B(2,2), D(2,2)")


def test_criterion_7_property_suite():
    """W-invariance, positivity, normalization, twist, Borel-independence,
    and division round-trips for every tame weight at rank <= (2,2)."""
    algebras = [
        Algebra("B", 1, 1), Algebra("B", 1, 2), Algebra("B", 2, 1),
        Algebra("B", 2, 2), Algebra("D", 2, 1), Algebra("D", 2, 2),
    ]
    checked = 0
    for alg in algebras:
        elements = weyl_group(alg)
        d0, _ = denominators(b_standard(alg))
        for lam in hook_partitions(alg.n, alg.m, 6):
            rep = is_tame(lam, alg)
            if not rep.tame:
                continue
            cr = kw_character(lam, alg)
            ch = character(cr)
            assert all(c > 0 for c in ch.terms.values())
            assert ch.terms[cr.highest_weight.exponent_key()] == 1
            for _, act in elements:
                assert map_exponents(ch, act) == ch
            assert exact_divide(poly_product(ch, d0), d0) == ch
            if alg.family == "D":
                crm = kw_character(lam, alg, minus=True)
                assert character(crm) == sigma_twist_poly(alg, ch)
            if rep.atypicality_k == 0:
                for seq in all_sequences(alg):
                    b2 = borel_from_sequence(alg, seq)
                    got = kw_character_with_borel(
                        lam, alg, b2, (), 1, minus=seq.sign == -1
                    )
                    if seq.sign == -1:
                        got = sigma_twist_poly(alg, got)
                    assert got == ch
            checked += 1
    passed(7, f"property suite over {checked} tame modules at rank <= (2,2)")


def test_criterion_8_atypicality_oracle():
    """Multiset-intersection degree equals subset brute force, |lambda| <= 8, rank <= (3,3)."""
    checked = 0
    for fam in ("B", "D"):
        for m in range(1, 4):
            if fam == "D" and m < 2:
                continue
            for n in range(1, 4):
                alg = Algebra(fam, m, n)
                rho = b_standard(alg).rho
                for lam in hook_partitions(n, m, 8):
                    s = natural_weight(lam)[0] + rho
                    assert atypicality_degree(s) == atypicality_degree_brute(s, alg)
                    checked += 1
    passed(8, f"intersection == brute force on {checked} shifted weights")


def test_criterion_9_bottom_uniqueness():
    """Fingerprint-equal weights reach identical bottoms (B always; D outside
    the k = 1, lambda_n >= m-1 regime)."""
    classes = 0
    for fam in ("B", "D"):
        for m in range(1, 4):
            if fam == "D" and m < 2:
                continue
            for n in range(1, 4):
                alg = Algebra(fam, m, n)
                rho = b_standard(alg).rho
                groups = {}
                for lam in hook_partitions(n, m, 8):
                    fp = fingerprint(natural_weight(lam)[0] + rho, alg)
                    groups.setdefault(fp, []).append(lam)
                for fp, lams in groups.items():
                    if fam == "D" and fp.k == 1:
                        lams = [l for l in lams if l.part(n) < m - 1]
                    bottoms = {bottom_of_block(l, alg).result.parts for l in lams}
                    assert len(bottoms) <= 1, (alg.label(), [l.parts for l in lams])
                    classes += 1
    passed(9, f"unique bottoms across {classes} fingerprint classes")
