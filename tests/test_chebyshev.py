"""Chebyshev generators: initial values, recurrence, identities, bounds."""

import itertools
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbgram import chebyshev
from mbgram.chebyshev import IdentityId, cheb_S, cheb_T, verify_identity
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

    def test_mersenne_mismatch_fails_with_witness(self, monkeypatch, rings):
        # an odd plant keeps both sides odd, so the run compares in t
        product = chebyshev._Ring.t_product
        monkeypatch.setattr(chebyshev._Ring, "t_product",
                            lambda r, lo, hi: product(r, lo, hi) + (r.d if hi == 3 else 0))
        report = verify_identity(IdentityId.COR_2_6)
        assert report.status == "FAIL"
        assert report.params == {"at": [4], "checked": 2, "skipped": 0}
        assert Polynomial.from_json_obj(report.witness["lhs"]) == cheb_S(15)
        assert Polynomial.from_json_obj(report.witness["rhs"]) == cheb_S(15) + D
        assert in_t(rings[0])

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

    @pytest.mark.parametrize("identity, params, index", [
        (IdentityId.PROD_TO_SUM_T, [(1, 2), (5000, 1)], 5000),
        (IdentityId.PROD_TO_SUM_S, [(1, 2), (0, 4097)], 4097),
        (IdentityId.COR_2_6, [(12,), (13,)], 8191),
    ])
    def test_explicit_params_past_the_bound_raise_before_any_check(self, rings, identity,
                                                                   params, index):
        # the images in t are closed forms that never call cheb_T or cheb_S,
        # so their rings check the index bound themselves, in the first pass
        with pytest.raises(BoundExceededError, match=rf"\|{index}\| exceeds"):
            verify_identity(identity, params=params)
        assert rings == []

    def test_empty_range_passes_vacuously(self):
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[])
        assert report.status == "PASS"
        assert report.params["checked"] == 0


def phi(p):
    """The image of a polynomial in d under d = t + 1/t, as {t-exponent:
    coefficient}: d^k goes to the sum of C(k, i) t^(k - 2i)."""
    out = {}
    for e, c in p.terms.items():
        k = e[0]
        for i in range(k + 1):
            out[k - 2 * i] = out.get(k - 2 * i, 0) + c * comb(k, i)
    return {e: c for e, c in out.items() if c}


def l1_t(p):
    """||phi(p)||_1, the l1 norm of p's image in t."""
    return sum(map(abs, phi(p).values()))


def parities(p):
    """The parity mask of p's degrees: bit 0 even, bit 1 odd."""
    mask = 0
    for e in p.terms:
        mask |= 1 << (e[0] & 1)
    return mask


def t_value(p, offset, h):
    """t0^offset p(t0 + 1/t0) at t0 = 2^h, read from p's d-coefficients as
    the sum of c_k (t0^2 + 1)^k t0^(offset - k), by Horner's rule in
    t0^2 + 1; None when p's degree passes offset."""
    if p.degree_in("d") > offset:
        return None
    cs = {e[0]: c for e, c in p.terms.items()}
    y = (1 << 2 * h) + 1
    acc = 0
    for k in range(offset, -1, -1):
        acc = acc * y + (cs.get(k, 0) << h * (offset - k))
    return acc


LINK_H = 8   # t0 = 2^8, so the images are taken at t0^2 = B = 2^16


def link_mismatches(kind, indices):
    """The indices n at which the generated polynomial P_n (kind "T" or "S",
    read from chebyshev.cheb_T or cheb_S) misses its closed-form image in
    t: t0^o P_n(t0 + 1/t0) against the image's value, o its offset."""
    ring = chebyshev._images(2 * LINK_H)
    generator = getattr(chebyshev, "cheb_" + kind)
    image = getattr(ring, kind)
    return [n for n in indices
            if t_value(generator(n), image(n).offset, LINK_H) != image(n).value]


# every index 0..130, every 2^k and 2^k - 1 up to the bound, and their negatives
LINK_INDICES = sorted({*range(131), *(m for k in range(13) for m in (2 ** k, 2 ** k - 1))})


@pytest.fixture
def rings(monkeypatch):
    """Every ring verify_identity compares a run in, in order: the images
    in t when ring.d is a chebyshev._Image, else the expansion."""
    made = []
    choose = chebyshev._comparison_ring
    monkeypatch.setattr(chebyshev, "_comparison_ring",
                        lambda *args: made.append(choose(*args)) or made[-1])
    return made


def in_t(ring):
    return isinstance(ring.d, chebyshev._Image)


class TestGeneratorLink:
    """The images in t never read the generated coefficients; t0^n P_n(t0 +
    1/t0), computed from them, ties each generator to its closed form."""

    @pytest.mark.parametrize("kind", ["T", "S"])
    def test_generated_coefficients_meet_the_images_in_t(self, kind):
        indices = LINK_INDICES + [-n for n in LINK_INDICES if n]
        assert link_mismatches(kind, indices) == []

    def test_horner_reads_the_image_of_small_hand_examples(self):
        # t0^2 (d^2 - 2) at d = t0 + 1/t0 is t0^4 + 1, and t0^3 S_1 is t0^4 + t0^2
        t0 = 1 << LINK_H
        assert t_value(cheb_T(2), 2, LINK_H) == t0 ** 4 + 1
        assert t_value(cheb_S(1), 3, LINK_H) == t0 ** 4 + t0 ** 2
        assert t_value(cheb_S(-1), 0, LINK_H) == 0


class TestImages:
    """The image ring is phi at t^2 = B: a side built on images is t0^offset
    side(t0 + 1/t0), read from the expanded side."""

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_sides_are_the_images_of_the_expanded_sides(self, identity):
        _, minima, default_max, _, builder = chebyshev._IDENTITY_SPECS[identity]
        top = {64: 9, 10: 5, 12: 6}[default_max]
        images = chebyshev._images(2 * LINK_H)
        for tup in itertools.product(*(range(lo, top + 1) for lo in minima)):
            expanded = builder(chebyshev._Expansion(), *tup)[:2]
            for image, side in zip(builder(images, *tup)[:2], expanded):
                assert image.value == t_value(side, image.offset, LINK_H), (tup, side)

    def test_a_zero_term_leaves_the_other_term_s_offset(self):
        # S_(-1) d^3 is zero at the odd offset 3; T_2 beside it stays at 2,
        # so that a later sum with T_4 shifts it by one slot
        ring = chebyshev._images(2 * LINK_H)
        zero = ring.S(-1) * ring.d * ring.d * ring.d
        for total in (zero + ring.T(2), ring.T(2) + zero, ring.T(2) - zero):
            assert (total.value, total.offset) == (ring.T(2).value, 2)
            assert (total + ring.T(4)).value == t_value(cheb_T(2) + cheb_T(4), 4, LINK_H)


@st.composite
def d_polys(draw):
    """d-only polynomials: zero, of one degree parity, or of both."""
    parity = draw(st.sampled_from([0, 1, None]))
    exponent = st.integers(0, 8)
    if parity is not None:
        exponent = exponent.map(lambda k: 2 * k + parity)
    terms = draw(st.dictionaries(exponent, st.integers(-5, 5).filter(bool), max_size=5))
    return Polynomial.univariate("d", terms)


def norm_of(p):
    return chebyshev._Norm(l1_t(p), parities(p))


class TestNormMasks:
    """The first pass's bounds (_Norm) cover the images in t of the
    polynomials they stand for."""

    @settings(deadline=None, max_examples=200)
    @given(a=d_polys(), b=d_polys() | st.integers(-3, 3), swap=st.booleans())
    def test_masks_cover_the_parities_of_every_result(self, a, b, swap):
        norm_b = b if isinstance(b, int) else norm_of(b)
        pairs = [(a, norm_of(a)), (b, norm_b)]
        if swap:
            pairs.reverse()
        (x, nx), (y, ny) = pairs
        for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
            result, bound = op(x, y), op(nx, ny)
            assert parities(result) & ~bound.par == 0, (x, y, bound.par)
            assert l1_t(result) <= bound.norm

    def test_the_zero_polynomial_has_the_empty_mask(self):
        assert norm_of(Polynomial.zero()).par == 0
        zero = chebyshev._norms().S(-1)
        assert (zero.norm, zero.par) == (0, 0)
        assert (chebyshev._Norm(2, 1) * 0).par == 0

    def test_a_mixed_factor_keeps_even_a_zero_product_mixed(self):
        # (d + 1) S_(-1) is zero, but the images cannot add d and 1
        mixed = chebyshev._Norm(2, 2) + 1
        assert mixed.par == 3
        assert (mixed * chebyshev._norms().S(-1)).par == 3
        assert (chebyshev._norms().S(-1) * mixed).par == 3
        assert (mixed * 0).par == 3

    def test_generators_have_the_parity_of_their_index(self):
        # and the first pass's closed-form norms are those of the images in t
        norms = chebyshev._norms()
        for n in range(-40, 40):
            assert (norms.T(n).norm, norms.T(n).par) == (l1_t(cheb_T(n)), parities(cheb_T(n)))
            assert (norms.S(n).norm, norms.S(n).par) == (l1_t(cheb_S(n)), parities(cheb_S(n)))
            assert norms.T(n).par == 1 << (n & 1)
            assert norms.S(n).par == (0 if n == -1 else 1 << (n & 1))
        assert (norms.d.norm, norms.d.par) == (l1_t(D), 2)


def ring_plant(monkeypatch, kind, k, plant):
    """Add d^plant to the generator kind ("T" or "S") at index k in every
    ring: the first pass's norms, the images in t and the expansion."""
    generator = getattr(chebyshev._Ring, kind)
    monkeypatch.setattr(chebyshev._Ring, kind,
                        lambda r, n: generator(r, n) + (prod([r.d] * plant, start=1)
                                                        if n == k else 0))


def planted_builder(identity, at, side, plant):
    """The identity's registry row with plant(r) added to one side at the
    tuple at."""
    arity, minima, default_max, reach, builder = chebyshev._IDENTITY_SPECS[identity]

    def build(r, *tup):
        sides = list(builder(r, *tup)[:2])
        if tup == at:
            sides[side] = sides[side] + plant(r)
        return sides[0], sides[1], False

    return arity, minima, default_max, reach, build


class TestOnePointComparison:
    """verify_identity compares both sides as images in t at one point t^2
    = B when the first pass proves one degree parity, and expands them
    otherwise."""

    # ProdToSumT over 0..10 with one skipped tuple in front: T_5 + d^3 or
    # T_5 + d^2 first breaks the identity at (1, 4), since T_0 T_5 = T_5 +
    # T_5 holds for any T_5; S_6 + d^4 or S_6 + d^3 first breaks ProdToSumS
    # at (1, 5), where the sum S_4 + S_6 is a difference of two prefix sums
    # that hold it.  The images in t do not read cheb_T or cheb_S, so a plant
    # there is caught by the link to the closed forms; planted in every
    # ring's generator, one of the generator's own parity keeps the run in
    # t, and one of the other parity sends it to the expansion.
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
    def test_a_planted_generator_fails_with_the_expanded_sides(self, monkeypatch, rings,
                                                               identity, kind, k, plant, at,
                                                               lhs, rhs):
        generator = getattr(chebyshev, kind)

        def planted(n):
            return generator(n) + (D ** plant if n == k else 0)

        with monkeypatch.context() as patch:
            patch.setattr(chebyshev, kind, planted)
            assert link_mismatches(kind[-1], range(-12, 13)) == [k]
        ring_plant(monkeypatch, kind[-1], k, plant)
        params = [(-1, 2)] + list(itertools.product(range(11), repeat=2))
        report = verify_identity(identity, params=params)
        assert in_t(rings[0]) == (plant % 2 == k % 2)
        assert report.status == "FAIL"
        assert report.params == {"at": at, "checked": 11 * at[0] + at[1], "skipped": 1}
        T, S = {"cheb_T": (planted, cheb_S), "cheb_S": (cheb_T, planted)}[kind]
        assert report.witness == {"lhs": lhs(T, S).to_json_obj(), "rhs": rhs(T, S).to_json_obj()}
        assert lhs(T, S) != rhs(T, S)

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_difference_that_vanishes_at_one_side_s_point_fails(self, monkeypatch, rings,
                                                                  side):
        # plant B1 d^2 - (B1 + 1)^2 on one side of ProdToSumT at (7, 5), with
        # B1 = 2^w1 the point t^2 that the other side's norm bound alone
        # would pick: at t^2 = B1, d^2 = B1 + 2 + 1/B1, so it vanishes there,
        # and only a point sized by both sides tells the sides apart
        m, n = 7, 5
        norms = (l1_t(cheb_T(m)) * l1_t(cheb_T(n)), l1_t(cheb_T(m + n)) + l1_t(cheb_T(m - n)))
        w1 = (2 * norms[1 - side]).bit_length()
        B1 = 1 << w1

        def plant(r):
            return r.d * r.d * B1 - (B1 + 1) ** 2

        monkeypatch.setitem(chebyshev._IDENTITY_SPECS, IdentityId.PROD_TO_SUM_T,
                            planted_builder(IdentityId.PROD_TO_SUM_T, (m, n), side, plant))
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[(m, n)])
        assert report.status == "FAIL"
        assert report.params == {"at": [m, n], "checked": 0, "skipped": 0}
        sides = [cheb_T(m) * cheb_T(n), cheb_T(m + n) + cheb_T(m - n)]
        sides[side] = sides[side] + D * D * B1 - (B1 + 1) ** 2
        assert report.witness == {"lhs": sides[0].to_json_obj(), "rhs": sides[1].to_json_obj()}
        assert in_t(rings[0]) and rings[0].d.w > w1
        assert plant(chebyshev._images(w1)).value == 0

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_mixed_parity_difference_fails_on_the_expansion(self, monkeypatch, rings, side):
        # plant d^2 - d on one side of ProdToSumT at (7, 5): images in t^2
        # cannot add its two parities, so its mixed mask sends the run to
        # the expansion, which finds it
        m, n = 7, 5

        def plant(r):
            return r.d * r.d - r.d

        monkeypatch.setitem(chebyshev._IDENTITY_SPECS, IdentityId.PROD_TO_SUM_T,
                            planted_builder(IdentityId.PROD_TO_SUM_T, (m, n), side, plant))
        report = verify_identity(IdentityId.PROD_TO_SUM_T, params=[(m, n)])
        assert report.status == "FAIL"
        assert report.params == {"at": [m, n], "checked": 0, "skipped": 0}
        expanded = [cheb_T(m) * cheb_T(n), cheb_T(m + n) + cheb_T(m - n)]
        expanded[side] = expanded[side] + D * D - D
        assert report.witness == {"lhs": expanded[0].to_json_obj(),
                                  "rhs": expanded[1].to_json_obj()}
        assert isinstance(rings[0], chebyshev._Expansion)

    def test_default_image_runs_pack_half_the_coefficients(self, rings):
        # an image holds one slot of w bits per power of t^2, half the 2n + 1
        # powers of t that phi(T_n) and phi(S_n) span: the top generator's
        # image, of the run's largest index, is n slots, the top one 1
        for identity, (_, _, default_max, reach, _) in chebyshev._IDENTITY_SPECS.items():
            rings.clear()
            assert verify_identity(identity).status == "PASS"
            ring, = rings
            assert in_t(ring), identity
            images = ring._generators.values()
            assert max(g.offset for g in images) == reach(default_max), identity
            assert max(g.value.bit_length() for g in images) == \
                reach(default_max) * ring.d.w + 1, identity

    def test_one_mixed_parity_generator_sends_the_run_to_the_expansion(self, monkeypatch,
                                                                       rings):
        # T_0 T_5 = T_5 + T_5 holds for any T_5, so the run passes expanded
        generator = chebyshev._Ring.T
        ring_plant(monkeypatch, "T", 5, 2)
        assert verify_identity(IdentityId.PROD_TO_SUM_T, params=[(0, 5)]).status == "PASS"
        assert isinstance(rings[0], chebyshev._Expansion)
        monkeypatch.setattr(chebyshev._Ring, "T", generator)
        assert verify_identity(IdentityId.PROD_TO_SUM_T, params=[(0, 5)]).status == "PASS"
        assert in_t(rings[1])
        assert sorted(g.offset for g in rings[1]._generators.values()) == [0, 5]

    # SProdRecur's bound at (1, 1) is 8: twice it is a power of two, which B
    # must pass, not meet
    @pytest.mark.parametrize("m, n, w", [(1, 1, 5), (2, 3, 6), (5, 7, 8)])
    def test_slots_are_the_fewest_bits_above_twice_the_bound(self, rings, m, n, w):
        # the run's bound at one SProdRecur tuple is the l1 norm product on
        # the left plus the norm product and the norm on the right, in t
        bound = (l1_t(cheb_S(n)) * l1_t(cheb_S(m)) + l1_t(cheb_S(m - 1)) * l1_t(cheb_S(n - 1))
                 + l1_t(cheb_S(n + m)))
        assert 2 ** w > 2 * bound >= 2 ** (w - 1)
        assert verify_identity(IdentityId.S_PROD_RECUR, params=[(m, n)]).status == "PASS"
        assert rings[0].d.w == w

    def test_a_default_run_multiplies_no_polynomial(self, monkeypatch, rings):
        # every default run, Cor2_6's S_4095 included, compares closed-form
        # images: no generator is built and no polynomial multiplied
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        for kind in ("cheb_T", "cheb_S"):
            monkeypatch.setattr(chebyshev, kind, lambda n: calls.append(n))
        for identity in IdentityId:
            assert verify_identity(identity).status == "PASS"
        assert calls == []
        assert all(map(in_t, rings))

    def test_one_shot_params_count_every_tuple(self):
        # the first pass over the tuples must not exhaust a generator
        params = ((m, n) for m in range(-1, 6) for n in range(6))
        report = verify_identity(IdentityId.PROD_TO_SUM_S, params=params)
        assert report.status == "PASS"
        assert report.params == {"checked": 36, "skipped": 6, "max_index": 64}

    def test_a_tuple_of_the_wrong_length_raises(self):
        with pytest.raises(ValueError, match="takes 2 parameter"):
            verify_identity(IdentityId.PROD_TO_SUM_T, params=[(1, 2), (3,)])


def expanded_only(monkeypatch):
    monkeypatch.setattr(chebyshev, "_comparison_ring", lambda *args: chebyshev._Expansion())


class TestCrossRoute:
    """The catalogue at reduced ranges gives the same reports compared in t
    and expanded in Z[d], planted faults included."""

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_the_same_reports_in_t_and_expanded(self, monkeypatch, rings, identity):
        default_max = chebyshev._IDENTITY_SPECS[identity][2]
        max_index = {64: 24, 10: 7, 12: 8}[default_max]
        in_t_report = verify_identity(identity, max_index=max_index)
        assert in_t(rings[0])
        expanded_only(monkeypatch)
        expanded = verify_identity(identity, max_index=max_index)
        assert in_t_report.status == "PASS"
        assert in_t_report.canonical_json() == expanded.canonical_json()

    # each plant keeps its side of one parity; the third is B1 d^2 - (B1 + 1)^2
    # with B1 = 2^4, the point t^2 that either side of ProdToSumT at (7, 5),
    # of l1 norm 4 in t, would pick alone, where it vanishes
    @pytest.mark.parametrize("identity, max_index, at, side, plant", [
        (IdentityId.PROD_TO_SUM_T, 12, (11, 5), 1, lambda r: r.d * r.d),
        (IdentityId.PROD_TO_SUM_S, 40, (30, 40), 1, lambda r: r.S(68) * -1),
        (IdentityId.PROD_TO_SUM_T, 12, (7, 5), 0, lambda r: r.d * r.d * 16 - 17 ** 2),
    ])
    def test_a_planted_fault_fails_at_the_same_tuple_both_ways(self, monkeypatch, rings,
                                                                identity, max_index, at,
                                                                side, plant):
        monkeypatch.setitem(chebyshev._IDENTITY_SPECS, identity,
                            planted_builder(identity, at, side, plant))
        in_t_report = verify_identity(identity, max_index=max_index)
        assert in_t(rings[0])
        expanded_only(monkeypatch)
        expanded = verify_identity(identity, max_index=max_index)
        assert in_t_report.status == "FAIL"
        assert in_t_report.params["at"] == list(at)
        assert in_t_report.canonical_json() == expanded.canonical_json()
        lhs, rhs = (Polynomial.from_json_obj(in_t_report.witness[s]) for s in ("lhs", "rhs"))
        difference = plant(chebyshev._Expansion())
        assert lhs - rhs == (difference if side == 0 else -difference)
