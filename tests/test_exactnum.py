"""Tests for exact scalars, weights, sparse Laurent polynomials, and the
test-side Laurent arithmetic the oracles are built from."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospchar.exactnum import NotDivisible, Weight, half_str
from json_oracle import poly_from_json, poly_to_json
from oracles import (
    LaurentPolynomial,
    evaluate_at_one,
    exact_divide,
    map_exponents,
    monomial,
    poly_product,
    poly_sum,
    scaled,
)


def w(delta, eps):
    return Weight.from_ints(delta, eps)


class TestHalfStr:
    def test_renders_halves(self):
        assert half_str(7) == "7/2"
        assert half_str(-1) == "-1/2"
        assert half_str(4) == "2"


class TestMonomial:
    def test_constant_one(self):
        p = monomial(Weight.zero(1, 1), 1)
        assert p.terms == {(0, 0): 1}

    def test_negative_single_term(self):
        p = monomial(w([1], [0]), -1)
        assert p.terms == {(2, 0): -1}

    def test_half_integer_exponents_stored_doubled(self):
        half = Weight.from_doubled([1], [-1])  # d/2 - e/2
        p = monomial(half, 2)
        assert p.terms == {(1, -1): 2}

    def test_zero_coefficient_gives_zero(self):
        assert monomial(w([1], [2]), 0) == LaurentPolynomial(2)


class TestExactDivide:
    def test_difference_of_squares(self):
        num = poly_sum(monomial(w([1], []), 1), monomial(w([-1], []), -1))
        den = poly_sum(monomial(Weight.from_doubled([1], []), 1), monomial(Weight.from_doubled([-1], []), -1))
        q = exact_divide(num, den)
        assert q.terms == {(1,): 1, (-1,): 1}

    def test_zero_numerator(self):
        den = poly_sum(monomial(w([1], []), 1), monomial(w([-1], []), -1))
        assert exact_divide(LaurentPolynomial(1), den) == LaurentPolynomial(1)

    def test_weyl_type_numerator_rank_one(self):
        # alternating sum for lambda = 2 over the rank-(1,0) even group
        num = poly_sum(monomial(w([3], []), 1), monomial(w([-3], []), -1))
        den = poly_sum(monomial(w([1], []), 1), monomial(w([-1], []), -1))
        q = exact_divide(num, den)
        assert q.terms == {(4,): 1, (0,): 1, (-4,): 1}
        assert poly_product(q, den) == num

    def test_not_divisible_raises(self):
        num = poly_sum(monomial(w([1], []), 1), monomial(Weight.zero(1, 0), 1))
        den = poly_sum(monomial(w([1], []), 1), monomial(Weight.zero(1, 0), -1))
        with pytest.raises(NotDivisible):
            exact_divide(num, den)

    def test_coefficient_not_divisible_raises(self):
        num = monomial(w([1], []), 3)
        den = monomial(w([0], []), 2)
        with pytest.raises(NotDivisible):
            exact_divide(num, den)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(monomial(w([1], []), 1), LaurentPolynomial(1))


class TestEvaluateAtOne:
    def test_constant(self):
        assert evaluate_at_one(monomial(Weight.zero(1, 1), 1)) == 1

    def test_two_terms(self):
        p = poly_sum(monomial(w([1], [0]), 1), monomial(w([-1], [0]), 1))
        assert evaluate_at_one(p) == 2

    def test_zero(self):
        assert evaluate_at_one(LaurentPolynomial(3)) == 0


exponents = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
coeffs = st.integers(-9, 9).filter(bool)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda t: LaurentPolynomial(2, t)
)
nonzero_polys = polys.filter(lambda p: p.terms)


class TestRingProperties:
    @given(polys, nonzero_polys)
    @settings(max_examples=150, deadline=None)
    def test_divide_round_trip(self, p, q):
        assert exact_divide(poly_product(p, q), q) == p

    @given(polys, polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_associativity_and_distributivity(self, p, q, r):
        assert poly_sum(poly_sum(p, q), r) == poly_sum(p, poly_sum(q, r)) == poly_sum(p, q, r)
        assert poly_product(poly_product(p, q), r) == poly_product(p, poly_product(q, r)) == poly_product(p, q, r)
        assert poly_product(p, poly_sum(q, r)) == poly_sum(poly_product(p, q), poly_product(p, r))

    @given(polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_commutativity(self, p, q):
        assert poly_sum(p, q) == poly_sum(q, p)
        assert poly_product(p, q) == poly_product(q, p)

    @given(st.lists(st.tuples(exponents, coeffs), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_independent_of_construction_order(self, term_list):
        forward = LaurentPolynomial(2)
        for exp, c in term_list:
            forward = poly_sum(forward, LaurentPolynomial(2, {exp: c}))
        backward = LaurentPolynomial(2)
        for exp, c in reversed(term_list):
            backward = poly_sum(backward, LaurentPolynomial(2, {exp: c}))
        assert forward == backward


class TestConstructors:
    def test_public_constructor_cleans_and_checks(self):
        terms = {(2, 0): 3, (0, 2): 0}
        p = LaurentPolynomial(2, terms)
        assert p.terms == {(2, 0): 3}
        terms[(4, 4)] = 1
        assert p.terms == {(2, 0): 3}  # a copy, not the caller's dict
        with pytest.raises(ValueError, match="rank mismatch"):
            LaurentPolynomial(2, {(2, 0, 0): 1})
        with pytest.raises(ValueError, match="rank mismatch"):
            LaurentPolynomial(3, {(2, 0): 1})

    def test_adopt_keeps_the_dict(self):
        terms = {(2, 0): 3}
        assert LaurentPolynomial._adopt(2, terms).terms is terms

    @given(polys, polys, st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_stays_canonical(self, p, q, k):
        flip = lambda e: (e[1], -e[0])  # noqa: E731
        minus_q = scaled(q, -1)
        for r in (poly_sum(p, q), poly_sum(p, minus_q), minus_q, poly_product(p, q), scaled(p, k), map_exponents(p, flip)):
            assert r.rank == 2
            assert all(r.terms.values())
            assert all(len(e) == 2 for e in r.terms)
        assert scaled(p, 0) == poly_sum(p, scaled(p, -1)) == LaurentPolynomial(2)

    def test_product_refuses_a_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            poly_product(LaurentPolynomial(2, {(2, 0): 1}), LaurentPolynomial(3, {(2, 0, 0): 1}))
        with pytest.raises(ValueError, match="rank mismatch"):
            poly_sum(LaurentPolynomial(2, {(2, 0): 1}), LaurentPolynomial(3, {(2, 0, 0): 1}))


class TestSerialization:
    def test_sorted_by_leading_term_order(self):
        p = poly_sum(monomial(w([0], [1]), 2), monomial(w([1], [-1]), -3), monomial(w([1], [0]), 5))
        obj = poly_to_json(p)
        assert obj == [
            {"exp": [2, 0], "coef": "5"},
            {"exp": [2, -2], "coef": "-3"},
            {"exp": [0, 2], "coef": "2"},
        ]
        assert poly_from_json(obj, 2) == p

    def test_bit_exact_across_runs(self):
        p = poly_sum(monomial(w([2], [1]), 7), monomial(w([-1], [3]), -4))
        blob1 = json.dumps(poly_to_json(p))
        blob2 = json.dumps(poly_to_json(poly_from_json(poly_to_json(p), 2)))
        assert blob1 == blob2

    def test_big_coefficients_as_decimal_strings(self):
        p = monomial(w([0], [0]), 10**30)
        assert poly_to_json(p) == [{"exp": [0, 0], "coef": str(10**30)}]
