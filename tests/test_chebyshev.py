"""Chebyshev generators: initial values, recurrence, identities, bounds."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbgram import chebyshev
from mbgram.chebyshev import IdentityId, _t_power_product, cheb_S, cheb_T, verify_identity
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
        parity_sum = chebyshev._Expansion().s_sum(lo, hi)
        assert parity_sum == total
        assert parity_sum.to_json_obj() == total.to_json_obj()

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


def l1(p):
    return sum(map(abs, p.terms.values()))


def parities(p):
    """The parity mask of p's nonzero coefficients: bit 0 even, bit 1 odd."""
    cs = chebyshev._dense(p)
    return any(cs[0::2]) | any(cs[1::2]) << 1


@st.composite
def d_polys(draw):
    """d-only polynomials: zero, of one degree parity, or of both."""
    parity = draw(st.sampled_from([0, 1, None]))
    exponent = st.integers(0, 8)
    if parity is not None:
        exponent = exponent.map(lambda k: 2 * k + parity)
    terms = draw(st.dictionaries(exponent, st.integers(-5, 5).filter(bool), max_size=5))
    return Polynomial.univariate("d", terms)


class TestNormMasks:
    """The first pass's bounds (_Norm) cover the polynomials they stand for."""

    @settings(deadline=None, max_examples=200)
    @given(a=d_polys(), b=d_polys() | st.integers(-3, 3), swap=st.booleans())
    def test_masks_cover_the_parities_of_every_result(self, a, b, swap):
        norm_b = b if isinstance(b, int) else chebyshev._norm_of(b)
        pairs = [(a, chebyshev._norm_of(a)), (b, norm_b)]
        if swap:
            pairs.reverse()
        (x, nx), (y, ny) = pairs
        for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
            result, bound = op(x, y), op(nx, ny)
            assert parities(result) & ~bound.par == 0, (x, y, bound.par)
            assert l1(result) <= bound.norm
            assert result.degree_in("d") <= bound.deg

    def test_the_zero_polynomial_has_the_empty_mask(self):
        assert chebyshev._norm_of(Polynomial.zero()).par == 0
        assert chebyshev._norm_of(cheb_S(-1)).par == 0

    def test_generators_have_the_parity_of_their_index(self):
        for n in range(0, 40):
            assert chebyshev._norm_of(cheb_T(n)).par == 1 << (n & 1)
            assert chebyshev._norm_of(cheb_S(n)).par == 1 << (n & 1)


class TestOnePointComparison:
    """verify_identity compares both sides at one Kronecker point d0, with
    d0^2 = B, when the first pass proves one degree parity, and expands
    them otherwise."""

    @pytest.fixture
    def packed_lengths(self, monkeypatch):
        """The length of every coefficient list the identity checks pack."""
        lengths = []
        to_int = chebyshev._to_int
        monkeypatch.setattr(chebyshev, "_to_int",
                            lambda cs, width: lengths.append(len(cs)) or to_int(cs, width))
        return lengths

    # ProdToSumT over 0..10 with one skipped tuple in front: T_5 + d^3 or
    # T_5 + d^2 first breaks the identity at (1, 4), since T_0 T_5 = T_5 +
    # T_5 holds for any T_5; S_6 + d^4 or S_6 + d^3 first breaks ProdToSumS
    # at (1, 5), where the sum S_4 + S_6 is a difference of two prefix sums
    # that hold it.  A plant of the generator's own parity keeps the run at
    # d0, one of the other parity sends it to the expansion.
    @pytest.mark.parametrize("identity, kind, k, plant, at, lhs, rhs", [
        (IdentityId.PROD_TO_SUM_T, "cheb_T", 5, 3, [1, 4],
         lambda T, S: T(1) * T(4), lambda T, S: T(5) + T(3)),
        (IdentityId.PROD_TO_SUM_T, "cheb_T", 5, 2, [1, 4],
         lambda T, S: T(1) * T(4), lambda T, S: T(5) + T(3)),
        (IdentityId.PROD_TO_SUM_S, "cheb_S", 6, 4, [1, 5],
         lambda T, S: S(5) * S(1), lambda T, S: S(4) + S(6)),
        (IdentityId.PROD_TO_SUM_S, "cheb_S", 6, 3, [1, 5],
         lambda T, S: S(5) * S(1), lambda T, S: S(4) + S(6)),
    ])
    def test_a_planted_generator_fails_with_the_expanded_sides(self, monkeypatch, packed_lengths,
                                                               identity, kind, k, plant, at,
                                                               lhs, rhs):
        generator = getattr(chebyshev, kind)
        monkeypatch.setattr(chebyshev, kind,
                            lambda n: generator(n) + (D ** plant if n == k else 0))
        params = [(-1, 2)] + list(itertools.product(range(11), repeat=2))
        report = verify_identity(identity, params=params)
        assert bool(packed_lengths) == (plant % 2 == k % 2)
        assert report.status == "FAIL"
        assert report.params == {"at": at, "checked": 11 * at[0] + at[1], "skipped": 1}
        T, S = chebyshev.cheb_T, chebyshev.cheb_S
        assert report.witness == {"lhs": lhs(T, S).to_json_obj(), "rhs": rhs(T, S).to_json_obj()}
        assert lhs(T, S) != rhs(T, S)

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_difference_that_vanishes_at_one_side_s_point_fails(self, monkeypatch,
                                                                  packed_lengths, side):
        # plant the even d^2 - B on one side of ProdToSumT at (7, 5), with
        # B = d0^2 for the point d0 that the other side's norm bound alone
        # would pick; it vanishes there, so only a point sized by both sides
        # tells the sides apart
        m, n = 7, 5
        norms = (l1(cheb_T(m)) * l1(cheb_T(n)), l1(cheb_T(m + n)) + l1(cheb_T(m - n)))
        nb = ((2 * norms[1 - side]).bit_length() + 7) // 8
        B = 1 << 8 * nb
        arity, minima, default_max, reach, builder = \
            chebyshev._IDENTITY_SPECS[IdentityId.PROD_TO_SUM_T]

        def planted(r, *tup):
            sides = list(builder(r, *tup)[:2])
            sides[side] = sides[side] + r.d * r.d - B
            return sides[0], sides[1], False

        monkeypatch.setitem(chebyshev._IDENTITY_SPECS, IdentityId.PROD_TO_SUM_T,
                            (arity, minima, default_max, reach, planted))
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[(m, n)])
        assert report.status == "FAIL"
        assert report.params == {"at": [m, n], "checked": 0, "skipped": 0}
        sides = [cheb_T(m) * cheb_T(n), cheb_T(m + n) + cheb_T(m - n)]
        sides[side] = sides[side] + D * D - B
        assert report.witness == {"lhs": sides[0].to_json_obj(), "rhs": sides[1].to_json_obj()}
        assert packed_lengths   # compared at d0, not expanded
        assert (D * D - B).evaluate({"d": 1 << 4 * nb}) == 0

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_mixed_parity_difference_that_vanishes_at_d0_fails(self, monkeypatch, side):
        # plant d^2 - d0 d on one side of ProdToSumT at (7, 5), with d0 =
        # 2^(4 nb) the point of the run; it vanishes at d0, so only its
        # mixed parity mask, which sends the run to the expansion, finds it
        m, n = 7, 5
        bound = l1(cheb_T(m)) * l1(cheb_T(n)) + l1(cheb_T(m + n)) + l1(cheb_T(m - n))
        # the run's bound holds the planted norm 1 + d0 as well; the fewest
        # bytes that fit it are the run's nb
        nb = next(k for k in itertools.count(1) if 2 ** (8 * k) > 2 * (bound + 1 + 2 ** (4 * k)))
        d0 = 1 << 4 * nb
        arity, minima, default_max, reach, builder = \
            chebyshev._IDENTITY_SPECS[IdentityId.PROD_TO_SUM_T]

        def planted(r, *tup):
            sides = list(builder(r, *tup)[:2])
            sides[side] = sides[side] + r.d * r.d - d0 * r.d
            return sides[0], sides[1], False

        monkeypatch.setitem(chebyshev._IDENTITY_SPECS, IdentityId.PROD_TO_SUM_T,
                            (arity, minima, default_max, reach, planted))
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[(m, n)])
        assert report.status == "FAIL"
        assert report.params == {"at": [m, n], "checked": 0, "skipped": 0}
        expanded = [cheb_T(m) * cheb_T(n), cheb_T(m + n) + cheb_T(m - n)]
        expanded[side] = expanded[side] + D * D - d0 * D
        assert report.witness == {"lhs": expanded[0].to_json_obj(),
                                  "rhs": expanded[1].to_json_obj()}
        # at d0 the planted term is zero, so a run there would pass
        assert (D * D - d0 * D).evaluate({"d": d0}) == 0

    def test_default_image_runs_pack_half_the_coefficients(self, packed_lengths):
        lengths = packed_lengths
        for identity, (_, _, default_max, reach, _) in chebyshev._IDENTITY_SPECS.items():
            lengths.clear()
            assert verify_identity(identity).status == "PASS"
            if identity in (IdentityId.COR_2_4A, IdentityId.COR_2_4B, IdentityId.COR_2_6):
                assert lengths == [], identity   # expanded
            else:
                # the top generator's index is the run's largest degree
                assert max(lengths) == reach(default_max) // 2 + 1, identity

    def test_one_mixed_parity_generator_sends_the_run_to_the_expansion(self, monkeypatch,
                                                                       packed_lengths):
        # T_0 T_5 = T_5 + T_5 holds for any T_5, so the run passes expanded
        lengths = packed_lengths
        generator = chebyshev.cheb_T
        monkeypatch.setattr(chebyshev, "cheb_T",
                            lambda n: generator(n) + (D * D if n == 5 else 0))
        assert verify_identity(IdentityId.PROD_TO_SUM_T, params=[(0, 5)]).status == "PASS"
        assert lengths == []
        lengths.clear()
        monkeypatch.setattr(chebyshev, "cheb_T", generator)
        assert verify_identity(IdentityId.PROD_TO_SUM_T, params=[(0, 5)]).status == "PASS"
        assert sorted(lengths) == [1, 3]

    def test_slots_are_the_fewest_bytes_above_twice_the_bound(self, monkeypatch):
        # the run's bound at one ProdToSumT tuple is the l1 norm product on
        # the left plus the two norms on the right; the tuple is one where
        # twice the bound needs a byte more than the bound
        def bound(m, n):
            return l1(cheb_T(m)) * l1(cheb_T(n)) + l1(cheb_T(m + n)) + l1(cheb_T(m - n))

        m, n = next((m, n) for m in range(64) for n in range(m + 1)
                    if (2 * bound(m, n)).bit_length() % 8 == 1)
        nb = next(k for k in itertools.count(1) if 2 ** (8 * k) > 2 * bound(m, n))
        assert 2 ** (8 * (nb - 1)) > bound(m, n)
        widths = set()
        to_int = chebyshev._to_int
        monkeypatch.setattr(chebyshev, "_to_int",
                            lambda cs, width: widths.add(width) or to_int(cs, width))
        assert verify_identity(IdentityId.PROD_TO_SUM_T, params=[(m, n)]).status == "PASS"
        assert widths == {nb}

    def test_a_default_run_below_the_crossover_multiplies_no_polynomial(self, monkeypatch):
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert verify_identity(IdentityId.PROD_TO_SUM_T).status == "PASS"
        assert calls == []
        # S_4095's images would pass polynomial.DECIMAL_MIN_BITS: expanded
        assert verify_identity(IdentityId.COR_2_6).status == "PASS"
        assert calls

    def test_one_shot_params_count_every_tuple(self):
        # the first pass over the tuples must not exhaust a generator
        params = ((m, n) for m in range(-1, 6) for n in range(6))
        report = verify_identity(IdentityId.PROD_TO_SUM_S, params=params)
        assert report.status == "PASS"
        assert report.params == {"checked": 36, "skipped": 6, "max_index": 64}

    def test_a_tuple_of_the_wrong_length_raises(self):
        with pytest.raises(ValueError, match="takes 2 parameter"):
            verify_identity(IdentityId.PROD_TO_SUM_T, params=[(1, 2), (3,)])

