"""Exact polynomial ring: frozen examples, ring axioms, division, interpolation."""

import json
import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbgram import polynomial
from mbgram.errors import NonIntegralResultError
from mbgram.polynomial import (DECIMAL_MIN_BITS, DENSE_MIN_TERMS, Polynomial, VARIABLES,
                               _sparse_product, interpolate, monomial_key)

D = Polynomial.variable("d")
W = Polynomial.variable("w")
X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")


def random_poly(rng, max_terms=4, max_exp=3, max_coef=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in VARIABLES)
        terms[exps] = terms.get(exps, 0) + rng.randint(-max_coef, max_coef)
    return Polynomial(terms)


class TestArithmetic:
    def test_additive_inverse(self):
        assert (D + (-D)).is_zero()

    def test_schoolbook_square(self):
        # (d^2 - 2)^2 expanded by hand: d^4 - 4 d^2 + 4
        p = D * D - 2
        expected = Polynomial.univariate("d", {4: 1, 2: -4, 0: 4})
        assert p * p == expected

    def test_multiplicative_identity_randomized(self):
        rng = random.Random(1)
        one = Polynomial.one()
        for _ in range(200):
            p = random_poly(rng)
            assert p * one == p
            assert one * p == p

    def test_ring_axioms_randomized(self):
        rng = random.Random(2)
        for _ in range(10_000):
            p = random_poly(rng, max_terms=3, max_exp=2, max_coef=5)
            q = random_poly(rng, max_terms=3, max_exp=2, max_coef=5)
            r = random_poly(rng, max_terms=3, max_exp=2, max_coef=5)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_poly(rng, max_terms=3, max_exp=2)
            direct = Polynomial.one()
            for k in range(5):
                assert p ** k == direct
                direct = direct * p

    def test_no_zero_coefficients_stored(self):
        p = Polynomial({(1, 0, 0, 0, 0): 2, (0, 0, 0, 0, 0): 0})
        assert (0, 0, 0, 0, 0) not in p.terms
        q = p - p
        assert q.terms == {}


@st.composite
def d_only_polys(draw):
    """d-only polynomials with gaps, on both sides of DENSE_MIN_TERMS and,
    with 2000-bit coefficients in both factors, of DECIMAL_MIN_BITS."""
    lo, step = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    size = draw(st.integers(0, 2 * DENSE_MIN_TERMS + 4))
    degrees = draw(st.lists(st.integers(0, 3 * DENSE_MIN_TERMS), min_size=size,
                            max_size=size, unique=True))
    big = draw(st.sampled_from([10 ** 40, 2 ** 2000]))
    coeffs = st.integers(-3, 3).filter(bool) | st.integers(-big, big).filter(bool)
    return Polynomial.univariate("d", {lo + step * k: draw(coeffs) for k in degrees})


def packed_bits(a, b):
    """The size DECIMAL_MIN_BITS is compared with: the dense product's
    slots times the bits of twice its coefficient bound."""
    da, db = [e[0] for e in a], [e[0] for e in b]
    g = math.gcd(*(x - min(da) for x in da), *(x - min(db) for x in db)) or 1
    slots = (max(da) - min(da)) // g + (max(db) - min(db)) // g + 1
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    return slots * (2 * bound).bit_length()


# the constants that force each route of a d-only product of two or more
# terms per factor (Polynomial.__mul__): the short loop, and Kronecker
# substitution on one int or on one Decimal
D_ROUTES = {
    "short": {"DENSE_MIN_TERMS": 10 ** 9},
    "int": {"DENSE_MIN_TERMS": 0, "DECIMAL_MIN_BITS": 10 ** 18},
    "decimal": {"DENSE_MIN_TERMS": 0, "DECIMAL_MIN_BITS": 0},
}


def forced_route(route):
    """The patches that send every d-only product down one route."""
    return mock.patch.multiple(polynomial, **D_ROUTES[route])


# exponents at powers of two and one below: the sum of two of them fills a
# field of packed keys to its last bit, so a carry into the next would show
EDGE_EXPONENTS = st.tuples(*[st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64,
                                              127, 128, 255, 256])] * len(VARIABLES))


def tuple_keyed_product(a, b):
    """Reference product: term pairs added on exponent tuples, no packing."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            out[k] = out.get(k, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestPackedProduct:
    @settings(deadline=None, max_examples=100)
    @given(a=st.dictionaries(EDGE_EXPONENTS, st.integers(-10 ** 20, 10 ** 20), max_size=5),
           b=st.dictionaries(EDGE_EXPONENTS, st.integers(-10 ** 20, 10 ** 20), max_size=5),
           points=st.lists(st.tuples(*[st.integers(-7, 7)] * len(VARIABLES)),
                           min_size=3, max_size=3))
    def test_matches_evaluation(self, a, b, points):
        a, b = Polynomial(a), Polynomial(b)
        product = a * b
        assert product == b * a
        for values in points:
            point = dict(zip(VARIABLES, values))
            assert product.evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert product.terms == tuple_keyed_product(a.terms, b.terms)

    def test_d_only_products_share_key_tuples(self):
        a = Polynomial.univariate("d", {0: 1, 3: -2, 5: 7})
        b = Polynomial.univariate("d", {1: 4, 2: 1})
        for exps in (a * b).terms:
            assert exps is Polynomial.univariate("d", {exps[0]: 1}).leading_term()[0]


class TestDenseProduct:
    @settings(deadline=None, max_examples=100)
    @given(a=d_only_polys(), b=d_only_polys(), data=st.data())
    def test_matches_dict_loop(self, a, b, data):
        # an extra w, x, y or z term makes one factor multivariate
        mixed = data.draw(st.sampled_from([None, "a", "b"]))
        extra = data.draw(st.sampled_from([W, X, Y, Z])) * D ** 2
        if mixed == "a":
            a = a + extra
        elif mixed == "b":
            b = b + extra
        calls = []

        def spy(name):
            real = getattr(polynomial, name)
            return lambda *args: calls.append(name) or real(*args)

        routes = ("_sparse_product", "_short_d_product", "_binary_digits", "_decimal_digits")
        with mock.patch.multiple(polynomial, **{name: spy(name) for name in routes}):
            got = a * b
        assert got.terms == _sparse_product(a.terms, b.terms)
        shorter = min(a.num_terms(), b.num_terms())
        if shorter < 2:  # a monomial factor scales and shifts the other
            assert calls == []
        elif mixed:
            assert calls == ["_sparse_product"]
        elif shorter < DENSE_MIN_TERMS:
            assert calls == ["_short_d_product"]
        elif packed_bits(a.terms, b.terms) < DECIMAL_MIN_BITS:
            assert calls == ["_binary_digits"]
        else:
            assert calls == ["_decimal_digits"]

    # 7 * 31 * 151 = 2^15 - 1: the middle coefficient is +-bound, one below
    # half the int route's base 2^16; with -31 every coefficient is
    # negative, and so is the packed product
    @example(a=Polynomial.univariate("d", {k: 31 for k in range(7)}),
             b=Polynomial.univariate("d", {k: 151 for k in range(7)}))
    @example(a=Polynomial.univariate("d", {k: -31 for k in range(7)}),
             b=Polynomial.univariate("d", {k: 151 for k in range(7)}))
    # lo > 0 in both factors, exponent steps 4 and 6: g = 2
    @example(a=Polynomial.univariate("d", {3 + 4 * k: k - 9 for k in range(20)}),
             b=Polynomial.univariate("d", {5 + 6 * k: 2 ** 70 - k for k in range(17)}))
    # the shorter factor at exactly DENSE_MIN_TERMS terms
    @example(a=Polynomial.univariate("d", {k: (-1) ** k * (k + 1)
                                           for k in range(DENSE_MIN_TERMS)}),
             b=Polynomial.univariate("d", {2 * k: 10 ** 40 - k
                                           for k in range(DENSE_MIN_TERMS + 3)}))
    @settings(deadline=None, max_examples=100)
    @given(a=d_only_polys(), b=d_only_polys())
    def test_every_route_matches_tuple_keyed(self, a, b):
        expected = tuple_keyed_product(a.terms, b.terms)
        assert (a * b).terms == expected
        for route in D_ROUTES:
            with forced_route(route):
                assert (a * b).terms == expected, route
                assert (b * a).terms == expected, route

    def test_coefficients_past_int_string_limit(self):
        # str(int) and int(str) refuse more than 4300 digits by default
        big = 10 ** 4400
        a = Polynomial.univariate("d", {k: big + k if k % 3 else -big
                                        for k in range(DENSE_MIN_TERMS + 4)})
        b = Polynomial.univariate("d", {2 * k + 1: (-1) ** k * (7 * big - k)
                                        for k in range(DENSE_MIN_TERMS)})
        limit = sys.get_int_max_str_digits()
        expected = _sparse_product(a.terms, b.terms)
        assert (a * b).terms == expected
        for route in ("int", "decimal"):
            with forced_route(route):
                assert (a * b).terms == expected, route
        assert sys.get_int_max_str_digits() == limit


class TestSubstitution:
    def test_kills_crosscap_product(self):
        # x*y*d with y -> 0 and w -> 1 vanishes
        p = X * Y * D
        assert p.substitute({"y": 0, "w": 1}).is_zero()

    def test_keeps_double_crosscap_factor(self):
        # w*d with y -> 0 and w -> 1 collapses to d
        p = W * D
        assert p.substitute({"y": 0, "w": 1}) == D

    def test_integer_point(self):
        p = D * D - 4
        assert p.substitute({"d": 3}) == Polynomial.integer(5)
        assert p.evaluate({"d": 3}) == 5

    def test_polynomial_binding(self):
        # d -> w turns a d-polynomial into the same polynomial in w
        p = D * D - 2
        assert p.substitute({"d": W}) == W * W - 2

    def test_unbound_variables_untouched(self):
        p = D * Z + X
        assert p.substitute({"w": 7}) == p

    def test_eval_var_matches_substitute(self):
        rng = random.Random(4)
        for _ in range(300):
            p = random_poly(rng)
            var = rng.choice(VARIABLES)
            t = rng.randint(-5, 5)
            assert p.eval_var(var, t) == p.substitute({var: t})


class TestDivision:
    def test_factor_by_inspection(self):
        p = Polynomial.univariate("d", {4: 1, 2: -4})  # d^4 - 4 d^2
        q = Polynomial.univariate("d", {2: 1})
        assert p.divide_exact(q) == D * D - 4
        assert (D * D - 1).divide_exact(D - 1) == D + 1  # d cancels in (d + 1)(d - 1)

    def test_divide_by_one(self):
        rng = random.Random(5)
        for _ in range(100):
            p = random_poly(rng)
            assert p.divide_exact(Polynomial.one()) == p

    def test_not_divisible(self):
        p = D * D - 4
        assert p.divide_exact(D) is None

    def test_floordiv_is_exact_division(self):
        p = (D + Z) * (W * X - 2)
        assert p // (D + Z) == W * X - 2
        assert p // 1 == p
        with pytest.raises(ArithmeticError):
            p // (D - Z)
        with pytest.raises(ArithmeticError):
            (D * D - 4) // D

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            D.divide_exact(Polynomial.zero())

    def test_divide_undoes_multiply_randomized(self):
        rng = random.Random(6)
        done = 0
        while done < 500:
            p = random_poly(rng)
            q = random_poly(rng)
            if q.is_zero():
                continue
            assert (p * q).divide_exact(q) == p
            done += 1

    def test_multivariate_divisibility(self):
        p = (D + Z) * (W * X - 2)
        assert p.divide_exact(D + Z) == W * X - 2
        assert p.divide_exact(W * X - 2) == D + Z
        assert p.divide_exact(D - Z) is None

    # small exponents and coefficients make a * b cancel terms often, so the
    # division must bring back monomials that the product no longer has
    @settings(deadline=None)
    @given(a=st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(VARIABLES)),
                             st.integers(-3, 3), max_size=6).map(Polynomial),
           b=st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(VARIABLES)),
                             st.integers(-3, 3), min_size=1, max_size=6).map(Polynomial))
    def test_divide_exact_is_exact(self, a, b):
        assume(not b.is_zero())
        assert (a * b).divide_exact(b) == a
        if b.total_degree() > 0:
            assert (a * b + 1).divide_exact(b) is None

    def test_negative_field_is_not_divisible(self):
        # x y^2 / (x^2 y): the total degree fits, the x exponent would be -1
        assert (X * Y ** 2).divide_exact(X ** 2 * Y) is None
        # the same through the packed kernel, with a two-term divisor
        assert (X * Y ** 2).divide_exact(X ** 2 * Y + 1) is None
        # y goes negative between two fields that stay non-negative
        assert (D * Z ** 3).divide_exact(D * Y + Z) is None
        assert (X * Z ** 4).divide_exact(X * Y ** 2 + Z) is None
        # quotients y / z and y^2 / z: without the guard bits a borrow from
        # the z field would go unseen and return z^7 and y z^15
        assert (2 * Y - Y * Z).divide_exact(2 * Z - Z ** 2) is None
        assert (Y ** 3 + 2 * Y ** 3 * Z).divide_exact(2 * Y * Z ** 2 + Y * Z) is None

    def test_mixed_d_only_and_multivariate(self):
        # a d-only dividend, a multivariate divisor, and the other way round
        assert (D ** 4).divide_exact(D * X + 1) is None
        assert (D * X).divide_exact(D ** 2 + 1) is None
        assert (D * X).divide_exact(D ** 2) is None
        p = (D ** 2 + 1) * (D * X - Z)
        assert p.divide_exact(D ** 2 + 1) == D * X - Z
        assert p.divide_exact(D * X - Z) == D ** 2 + 1
        assert (D ** 5 - D).divide_exact(D ** 2 + 1) == D ** 3 - D

    @settings(deadline=None, max_examples=60)
    @given(a=st.dictionaries(EDGE_EXPONENTS, st.integers(-3, 3), max_size=4).map(Polynomial),
           b=st.dictionaries(EDGE_EXPONENTS, st.integers(-3, 3), min_size=1,
                             max_size=4).map(Polynomial))
    def test_divide_exact_at_field_edges(self, a, b):
        assume(not b.is_zero())
        assert (a * b).divide_exact(b) == a
        if b.total_degree() > 0:
            assert (a * b + 1).divide_exact(b) is None


class TestInterpolation:
    def test_exact_quadratic(self):
        points = [(0, 0), (1, 1), (-1, 1), (2, 4)]
        assert interpolate("d", points) == D * D

    def test_cubic_from_grid(self):
        points = [(t, Polynomial.integer(t ** 3)) for t in range(4)]
        assert interpolate("d", points) == D ** 3

    def test_quartic_frozen_values(self):
        # evaluate the target d^4 - 4 d^2 at five points by hand
        target = {-2: 0, -1: -3, 0: 0, 1: -3, 2: 0}
        points = [(t, v) for t, v in target.items()]
        assert interpolate("d", points) == Polynomial.univariate("d", {4: 1, 2: -4})

    def test_polynomial_values(self):
        # values carry the remaining variables through interpolation
        p = D * D * Z + W
        samples = [(t, p.eval_var("d", t)) for t in (-2, -1, 0, 1, 2)]
        assert interpolate("d", samples) == p

    def test_roundtrip_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng, max_terms=4, max_exp=3)
            var = rng.choice(VARIABLES)
            deg = max(p.degree_in(var), 0)
            ts = list(range(-(deg // 2 + 1), deg // 2 + 2))[: deg + 1]
            assert len(ts) == deg + 1
            samples = [(t, p.eval_var(var, t)) for t in ts]
            assert interpolate(var, samples) == p

    def test_non_integral_raises(self):
        # no integer polynomial of degree <= 1 hits these points
        with pytest.raises(NonIntegralResultError):
            interpolate("d", [(0, 0), (2, 1)])

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ValueError):
            interpolate("d", [(1, 1), (1, 2)])

    @settings(deadline=None)
    @given(terms=st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(VARIABLES)),
                                 st.integers(-10 ** 12, 10 ** 12), max_size=6),
           var=st.sampled_from(VARIABLES), data=st.data())
    def test_reproduces_integer_polynomials(self, terms, var, data):
        p = Polynomial(terms)
        count = max(p.degree_in(var), 0) + 1 + data.draw(st.integers(0, 3))
        xs = data.draw(st.lists(st.integers(-40, 40), min_size=count, max_size=count,
                                unique=True))
        assert interpolate(var, [(t, p.eval_var(var, t)) for t in xs]) == p

    @settings(deadline=None)
    @given(terms=st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(VARIABLES)),
                                 st.integers(-10 ** 12, 10 ** 12), max_size=6),
           var=st.sampled_from(VARIABLES), data=st.data())
    def test_one_point_short_never_returns_p(self, terms, var, data):
        p = Polynomial(terms)
        count = p.degree_in(var)
        assume(count >= 1)
        xs = data.draw(st.lists(st.integers(-40, 40), min_size=count, max_size=count,
                                unique=True))
        try:
            q = interpolate(var, [(t, p.eval_var(var, t)) for t in xs])
        except NonIntegralResultError:
            return
        assert q != p

    @settings(deadline=None)
    @given(samples=st.dictionaries(st.integers(-40, 40), st.integers(-10 ** 6, 10 ** 6),
                                   min_size=1, max_size=8))
    def test_integer_data_fits_or_raises(self, samples):
        try:
            p = interpolate("d", list(samples.items()))
        except NonIntegralResultError:
            return
        assert p.degree_in("d") < len(samples)
        assert all(p.evaluate({"d": t}) == v for t, v in samples.items())


class TestCanonicalForm:
    def test_serialization_roundtrip_randomized(self):
        rng = random.Random(8)
        for _ in range(300):
            p = random_poly(rng)
            blob = json.dumps(p.to_json_obj())
            assert Polynomial.from_json_obj(json.loads(blob)) == p

    @pytest.mark.parametrize("terms", [
        [[1, -1, 0, 0, 0, 0]],                      # negative exponent
        [[1.5, 1, 0, 0, 0, 0]],                     # coefficient not an int
        [["7", 1, 0, 0, 0, 0]],
        [[1, 1, 0, 0.0, 0, 0]],                     # exponent not an int
        [[2, 1, 0, 0, 0, 0], [3, 1, 0, 0, 0, 0]],   # repeated monomial
        [[0, 1, 0, 0, 0, 0], [3, 1, 0, 0, 0, 0]],
        [[1, 1, 0, 0, 0]],                          # short row
    ])
    def test_malformed_terms_raise(self, terms):
        with pytest.raises(ValueError):
            Polynomial.from_json_obj({"format": "mbgram.poly/1", "terms": terms})

    def test_zero_coefficients_are_dropped(self):
        assert Polynomial.from_terms_obj([[0, 2, 0, 0, 0, 0], [3, 1, 0, 0, 0, 0]]) == 3 * D

    def test_terms_sorted_leading_first(self):
        p = D ** 2 + W * X * Y + Z + 3
        rows = p.to_terms_obj()
        keys = [monomial_key(tuple(row[1:])) for row in rows]
        assert keys == sorted(keys, reverse=True)

    def test_graded_lex_order(self):
        # total degree dominates; ties compare d before w before x, y, z
        assert monomial_key((0, 0, 0, 0, 2)) > monomial_key((1, 0, 0, 0, 0))
        assert monomial_key((1, 1, 0, 0, 0)) > monomial_key((0, 2, 0, 0, 0))

    def test_str_rendering(self):
        assert str(Polynomial.zero()) == "0"
        assert str(D * D - 4) == "d^2 - 4"
        assert str(-2 * X * Y) == "-2*x*y"

    def test_equality_with_int(self):
        assert Polynomial.integer(5) == 5
        assert Polynomial.zero() == 0
        assert D != 1
