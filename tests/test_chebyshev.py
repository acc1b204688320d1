"""Chebyshev generators: initial values, recurrence, identities, bounds."""

import random

import pytest

from mbgram import chebyshev
from mbgram.chebyshev import (IdentityId, _sum_of_S, _t_power_product, cheb_S, cheb_T,
                              verify_identity)
from mbgram.errors import BoundExceededError
from mbgram.polynomial import Polynomial

D = Polynomial.variable("d")


def naive_T(n):
    """Independent oracle: the recurrence walked upward, literally."""
    prev2, prev = Polynomial.integer(2), D
    if n == 0:
        return prev2
    for _ in range(n - 1):
        prev2, prev = prev, D * prev - prev2
    return prev


def naive_S(n):
    prev2, prev = Polynomial.one(), D
    if n == 0:
        return prev2
    for _ in range(n - 1):
        prev2, prev = prev, D * prev - prev2
    return prev


class TestGenerators:
    def test_initial_conditions(self):
        assert cheb_T(0) == 2
        assert cheb_T(1) == D
        assert cheb_S(0) == 1
        assert cheb_S(1) == D

    def test_small_frozen_values(self):
        assert cheb_T(2) == D * D - 2
        assert cheb_T(3) == D ** 3 - 3 * D
        assert cheb_S(3) == D ** 3 - 2 * D

    def test_negative_first_kind(self):
        # recurrence unrolled: T_3 = d^3 - 3d, and T_{-3} = T_3
        assert cheb_T(-3) == D ** 3 - 3 * D
        for n in range(0, 20):
            assert cheb_T(-n) == cheb_T(n)

    def test_negative_second_kind(self):
        # downward recurrence forces S_{-1} = 0 and S_{-n} = -S_{n-2}
        assert cheb_S(-1).is_zero()
        assert cheb_S(-2) == -1
        for n in range(1, 20):
            assert cheb_S(-n) == -cheb_S(n - 2)
        # the downward recurrence itself: S_{n} = d S_{n-1} - S_{n-2} at negatives
        for n in range(-18, 2):
            assert cheb_S(n) == D * cheb_S(n - 1) - cheb_S(n - 2)

    def test_matches_naive_recurrence(self):
        for n in range(0, 300):
            assert cheb_T(n) == naive_T(n)
            assert cheb_S(n) == naive_S(n)

    def test_recurrence_at_mersenne_indices(self):
        # the identity checks reach S and T at indices up to 4096; assert the
        # defining recurrence right where those values are used
        for k in range(2, 13):
            m = 2 ** k - 1
            assert cheb_S(m) == D * cheb_S(m - 1) - cheb_S(m - 2)
        for i in range(1, 13):
            p = 2 ** i
            assert cheb_T(p) == D * cheb_T(p - 1) - cheb_T(p - 2)

    def test_first_kind_is_second_kind_difference(self):
        # T_n = S_n - S_(n-2), the relation T's coefficients are built from;
        # with the recurrence checks above, it ties the two kinds together
        indices = set(range(0, 301))
        for i in range(1, 13):
            indices.update(n for n in (2 ** i - 1, 2 ** i, 2 ** i + 1) if n <= 4096)
        for n in sorted(indices):
            assert cheb_T(n) == cheb_S(n) - cheb_S(n - 2), n

    def test_degree_and_leading_coefficient(self):
        for n in range(0, 200):
            assert cheb_T(n).degree_in("d") == n
            assert cheb_S(n).degree_in("d") == n
            if n >= 1:
                assert cheb_T(n).leading_term()[1] == 1
                assert cheb_S(n).leading_term()[1] == 1

    def test_evaluation_anchors(self):
        # T_n(2) = 2 and S_n(2) = n + 1; alternating signs at -2
        for n in range(0, 400):
            assert cheb_T(n).evaluate({"d": 2}) == 2
            assert cheb_S(n).evaluate({"d": 2}) == n + 1
        for n in range(0, 50):
            sign = -1 if n % 2 else 1
            assert cheb_T(n).evaluate({"d": -2}) == 2 * sign
            assert cheb_S(n).evaluate({"d": -2}) == (n + 1) * sign

    def test_evaluation_anchors_large_indices(self):
        # spot the anchors at the extreme indices the identity suite touches
        for n in (1024, 2048, 4095, 4096):
            assert cheb_T(n).evaluate({"d": 2}) == 2
            assert cheb_S(n).evaluate({"d": 2}) == n + 1

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            cheb_T(4097)
        with pytest.raises(BoundExceededError):
            cheb_S(-4097)
        assert cheb_T(4096).degree_in("d") == 4096


class TestIdentities:
    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 3), (1, 9), (0, 64), (7, 121),
                                        (0, 128), (1, 127), (64, 64)])
    def test_sum_of_s_matches_chained_addition(self, lo, hi):
        total = Polynomial.zero()
        for i in range(lo, hi + 1, 2):
            total = total + cheb_S(i)
        assert _sum_of_S(lo, hi) == total
        assert _sum_of_S(lo, hi).to_json_obj() == total.to_json_obj()

    def test_prod_to_sum_t_hand_example(self):
        # T_2 T_3 = T_5 + T_1, both sides expanded by hand
        lhs = (D * D - 2) * (D ** 3 - 3 * D)
        assert lhs == cheb_T(5) + cheb_T(1)
        assert cheb_T(2) * cheb_T(3) == lhs

    def test_mersenne_k2_hand_example(self):
        # S_3 = T_1 T_2 = d (d^2 - 2)
        assert cheb_S(3) == D * (D * D - 2)

    def test_square_difference_hand_example(self):
        # (d^2-2)^2 - 4 = (d^2-4) d^2, both sides d^4 - 4 d^2
        lhs = cheb_T(2) * cheb_T(2) - 4
        rhs = (D * D - 4) * D * D
        expected = Polynomial.univariate("d", {4: 1, 2: -4})
        assert lhs == expected
        assert rhs == expected

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_identity_passes_reduced_range(self, identity):
        max_index = min(chebyshev._IDENTITY_SPECS[identity][2], 16)
        report = verify_identity(identity, max_index=max_index)
        assert report.status == "PASS", report.to_json_line()
        assert report.params["checked"] > 0

    def test_explicit_params(self):
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[(2, 3), (7, 11)])
        assert report.status == "PASS"
        assert report.params["checked"] == 2

    def test_out_of_domain_params_skipped(self):
        # the power-product identities need n >= 1
        report = verify_identity(IdentityId.COR_2_4A, params=[(0,), (1,), (2,)])
        assert report.status == "PASS"
        assert report.params["skipped"] == 1
        assert report.params["checked"] == 2

    def test_negative_index_note_attached(self):
        report = verify_identity(IdentityId.S_PROD_RECUR, params=[(0, 0)])
        assert report.status == "PASS"
        assert any("S_-1" in note for note in report.notes)

    def test_mersenne_chain_small(self):
        report = verify_identity(IdentityId.COR_2_6, max_index=6)
        assert report.status == "PASS"
        assert report.params["checked"] == 5

    def test_mersenne_default_range(self):
        report = verify_identity(IdentityId.COR_2_6)
        assert report.status == "PASS"
        assert report.params == {"checked": 11, "skipped": 0, "max_index": 12}
        assert not report.notes

    def test_t_power_product_in_any_order(self):
        # the one-entry cache must not leak a prefix of another (lo, hi)
        pairs = [(lo, hi) for lo in (0, 1) for hi in range(-1, 9)]
        random.Random(7).shuffle(pairs)
        for lo, hi in pairs + pairs[::-1]:
            expected = Polynomial.one()
            for i in range(lo, hi + 1):
                expected = expected * cheb_T(2 ** i)
            assert _t_power_product(lo, hi) == expected, (lo, hi)

    def test_mersenne_mismatch_fails_with_witness(self, monkeypatch):
        product = chebyshev._t_power_product
        monkeypatch.setattr(chebyshev, "_t_power_product",
                            lambda lo, hi: product(lo, hi) + (1 if hi == 3 else 0))
        report = verify_identity(IdentityId.COR_2_6)
        assert report.status == "FAIL"
        assert report.params == {"at": [4], "checked": 2, "skipped": 0}
        assert Polynomial.from_json_obj(report.witness["lhs"]) == cheb_S(15)
        assert Polynomial.from_json_obj(report.witness["rhs"]) == cheb_S(15) + 1

    @pytest.mark.parametrize("identity, max_index, top", [
        (IdentityId.LEMMA_2_3A, 1025, 4100), (IdentityId.COR_2_4A, 13, 8192),
        (IdentityId.COR_2_6, 13, 8191), (IdentityId.PROD_TO_SUM_T, 2049, 4098),
    ])
    def test_range_past_the_bound_fails_before_any_builder(self, monkeypatch, identity,
                                                            max_index, top):
        arity, minima, default_max, reach, builder = chebyshev._IDENTITY_SPECS[identity]
        built = []
        monkeypatch.setitem(chebyshev._IDENTITY_SPECS, identity,
                            (arity, minima, default_max, reach,
                             lambda *tup: built.append(tup) or builder(*tup)))
        with pytest.raises(BoundExceededError, match=f"reaches index {top},"):
            verify_identity(identity, max_index=max_index)
        assert built == []
        # one below, the range stays within the bound
        assert reach(max_index - 1) <= chebyshev.DEFAULT_BOUND

    def test_empty_range_passes_vacuously(self):
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[])
        assert report.status == "PASS"
        assert report.params["checked"] == 0
