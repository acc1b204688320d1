"""Integer determinant backends against each other and a cofactor oracle."""

import random
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbgram import intdet
from mbgram.intdet import (_is_prime, bareiss_int, block_dets_mod, crt_det, hadamard_bound,
                           int_det, interpolate_mod, is_symmetric, multiply_mod, primes_for)
from mbgram.polynomial import Polynomial, interpolate


def cofactor_det(rows):
    """Independent oracle: Laplace expansion, fine up to ~7x7."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def random_matrix(rng, n, lo=-99, hi=99):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


class TestBareiss:
    def test_tiny_cases(self):
        assert bareiss_int([]) == 1
        assert bareiss_int([[7]]) == 7
        assert bareiss_int([[1, 2], [3, 4]]) == -2

    def test_singular(self):
        assert bareiss_int([[1, 2], [2, 4]]) == 0
        assert bareiss_int([[0, 0], [1, 1]]) == 0

    def test_pivot_swap(self):
        assert bareiss_int([[0, 1], [1, 0]]) == -1
        assert bareiss_int([[0, 2, 1], [3, 0, 0], [0, 0, 4]]) == -24

    def test_against_cofactor_oracle(self):
        rng = random.Random(10)
        for n in range(1, 7):
            for _ in range(30):
                m = random_matrix(rng, n, -9, 9)
                assert bareiss_int(m) == cofactor_det(m), m

    def test_input_not_mutated(self):
        m = [[1, 2], [3, 4]]
        bareiss_int(m)
        assert m == [[1, 2], [3, 4]]


class TestSymmetricBareiss:
    def test_zero_leading_pivot(self):
        # the first row swap ends the halving; both results need it
        assert bareiss_int([[0, 1], [1, 0]]) == -1
        m = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        assert bareiss_int(m) == cofactor_det(m) == 12

    def test_later_zero_pivot(self):
        m = [[1, 1, 0], [1, 1, 1], [0, 1, 5]]
        assert is_symmetric(m)
        assert bareiss_int(m) == cofactor_det(m) == -1

    def test_polynomial_matrix(self):
        d, x, y = (Polynomial.variable(v) for v in "dxy")
        m = [[d * d - 1, x * y, d + 2, x],
             [x * y, d, y * y - d, 1],
             [d + 2, y * y - d, x * x * d, d * y - 3],
             [x, 1, d * y - 3, d ** 3]]
        assert is_symmetric(m)
        assert bareiss_int(m) == cofactor_det(m)

    def test_halves_the_divisions(self, monkeypatch):
        # step k computes the m (m + 1) / 2 entries on and above the diagonal
        # of the m x m block left, m = n - k - 1, not all m^2 of them
        d = Polynomial.variable("d")
        n = 5
        m = [[(i + j + 1) * d ** (i * j % 3) + 7 * (i == j) for j in range(n)] for i in range(n)]
        assert bareiss_int(m) == cofactor_det(m)
        calls = []
        divide = Polynomial.divide_exact
        monkeypatch.setattr(Polynomial, "divide_exact",
                            lambda self, other: calls.append(1) or divide(self, other))
        bareiss_int(m)
        assert len(calls) == sum(k * (k + 1) // 2 for k in range(1, n))
        calls.clear()
        m[0][1] = m[0][1] + 1  # no longer symmetric: every entry
        bareiss_int(m)
        assert len(calls) == sum(k * k for k in range(1, n))


class TestCrt:
    def test_primality_helper(self):
        known = [2, 3, 5, 7, 2 ** 31 - 1]
        assert all(_is_prime(p) for p in known)
        assert not any(_is_prime(c) for c in (1, 4, 9, 2 ** 31 - 3))
        ps = primes_for(2 ** 140)
        assert len(set(ps)) == 5 and all(_is_prime(p) for p in ps)
        assert ps == sorted(ps, reverse=True) and ps[0] == 2 ** 31 - 1
        assert prod(ps) > 2 * 2 ** 140 >= prod(ps[:-1])

    def test_primes_for_an_order(self):
        assert primes_for(2 ** 140, 1) == primes_for(2 ** 140)
        for order in (3, 6, 8, 10):
            ps = primes_for(2 ** 200, order)
            assert all(_is_prime(p) and p % lcm(2, order) == 1 for p in ps)
            assert ps == sorted(ps, reverse=True) and prod(ps) > 2 * 2 ** 200

    def test_primes_for_in_any_call_order(self):
        def fresh(bound, order):
            # the descending scan primes_for extends, run from the top each time
            step = lcm(2, order)
            primes, c = [], (2 ** 31 - 2) // step * step + 1
            while prod(primes) <= 2 * bound:
                if _is_prime(c):
                    primes.append(c)
                c -= step
            return primes

        cases = [(2 ** bits, order) for bits in (0, 1, 30, 31, 62, 140, 400)
                 for order in (1, 2, 3, 4, 6, 12)]
        random.Random(13).shuffle(cases)
        for bound, order in cases:
            assert primes_for(bound, order) == fresh(bound, order), (bound, order)

    def test_hadamard_bound_dominates(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for _ in range(20):
                m = random_matrix(rng, n)
                assert abs(bareiss_int(m)) <= hadamard_bound(m)

    def test_matches_bareiss_small(self):
        rng = random.Random(12)
        for n in (1, 2, 5, 9):
            for _ in range(10):
                m = random_matrix(rng, n, -10 ** 6, 10 ** 6)
                assert crt_det(m) == bareiss_int(m)

    def test_matches_bareiss_medium(self):
        rng = random.Random(13)
        for _ in range(3):
            m = random_matrix(rng, 30, -10 ** 9, 10 ** 9)
            assert crt_det(m) == bareiss_int(m)

    def test_zero_row(self):
        m = [[0] * 8 for _ in range(8)]
        assert crt_det(m) == 0

    def test_diagonal(self):
        diag = [[0] * 25 for _ in range(25)]
        expected = 1
        for i in range(25):
            diag[i][i] = i + 2
            expected *= i + 2
        assert crt_det(diag) == expected

    def test_huge_entries_stay_modular(self, monkeypatch):
        # entries past int64 are reduced as Python ints; bareiss_int only checks
        big = 2 ** 70
        rng = random.Random(19)
        cases = [([[big, 1], [1, big]], None),
                 ([[big + rng.randint(-10 ** 6, 10 ** 6) for _ in range(6)] for _ in range(6)],
                  None),
                 invariant_matrix((4, 4), list(range(8)), lambda: rng.randint(-big, big))]
        expected = [bareiss_int(rows) for rows, _ in cases]
        assert expected[0] == big * big - 1 and all(expected)

        def refuse(rows):
            raise AssertionError("crt_det left the modular algorithm")

        monkeypatch.setattr(intdet, "bareiss_int", refuse)
        assert [crt_det(rows, orbits) for rows, orbits in cases] == expected

    @pytest.mark.parametrize("n", [4, 8])
    def test_hadamard_matrix_meets_the_bound(self, n):
        # a Sylvester Hadamard matrix scaled by 2^40 meets Hadamard's bound,
        # so any lower bound would not cover its determinant
        rows = [[2 ** 40 * (-1) ** bin(i & j).count("1") for j in range(n)] for i in range(n)]
        det = bareiss_int(rows)
        assert abs(det) == 2 ** (40 * n) * n ** (n // 2) == hadamard_bound(rows) - 1
        assert crt_det(rows) == det

    def test_structured_singular_mod_prime(self):
        # determinant divisible by several of the CRT primes still comes out right
        p1, p2 = primes_for(2 ** 40)
        m = [[p1 * p2, 0], [0, 1]]
        assert crt_det(m) == p1 * p2

    def test_zero_leading_pivot_batched(self):
        # the shared elimination meets a zero pivot for every prime at step 0
        rng = random.Random(16)
        for n in (24, 31):
            m = random_matrix(rng, n, -10 ** 6, 10 ** 6)
            m[0][0] = 0
            det = crt_det(m)
            assert det == bareiss_int(m) and det != 0

    def test_rank_deficient_batched(self):
        # column 3 depends on columns 0 and 1: no zero row, but after three
        # steps every prime finds column 3 zero below the diagonal
        rng = random.Random(17)
        m = random_matrix(rng, 26, -10 ** 4, 10 ** 4)
        for row in m:
            row[3] = row[0] - 2 * row[1]
        assert bareiss_int(m) == 0
        assert crt_det(m) == 0

    def test_dispatch(self):
        rng = random.Random(14)
        m = random_matrix(rng, 26, -10 ** 6, 10 ** 6)
        assert int_det(m) == bareiss_int(m)

    def test_small_matrix_stays_modular(self, monkeypatch):
        # int_det is the modular algorithm at every size, 10x10 included
        m = random_matrix(random.Random(22), 10, -10 ** 6, 10 ** 6)
        expected = bareiss_int(m)

        def refuse(rows):
            raise AssertionError("int_det left the modular algorithm")

        monkeypatch.setattr(intdet, "bareiss_int", refuse)
        assert int_det(m) == expected

    @pytest.mark.parametrize("rows", [
        [[1, 2, 3], [4, 5, 6]],
        [[1, 2], [3, 4], [5, 6]],
        [[1, 2], [3]],
        random_matrix(random.Random(23), 25)[:24],
    ], ids=["2x3", "3x2", "ragged", "24x25"])
    def test_non_square_raises(self, rows):
        for det in (crt_det, int_det):
            with pytest.raises(ValueError, match="square"):
                det(rows)


def invariant_matrix(cycle_sizes, labels, cell):
    """A matrix with G[r(i)][r(j)] == G[i][j] for the permutation r whose
    cycles are cut from `labels` in the given sizes, and r's orbits, each
    as (i, r(i), ...); cell() supplies one value per orbit of index pairs."""
    orbits, start = [], 0
    for size in cycle_sizes:
        orbits.append(tuple(labels[start:start + size]))
        start += size
    perm = {}
    for orbit in orbits:
        for t, i in enumerate(orbit):
            perm[i] = orbit[(t + 1) % len(orbit)]
    n = len(labels)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rows[i][j] is None:
                value, a, b = cell(), i, j
                while rows[a][b] is None:
                    rows[a][b] = value
                    a, b = perm[a], perm[b]
    return rows, orbits


class TestRotationBlocks:
    def test_order_six_needs_a_primitive_root(self):
        # L = 6: a root tested only by w^3 = -1 can be w = -1, e.g. for the
        # first prime 2^31 - 1, which puts wrong residues into the CRT
        rng = random.Random(18)
        labels = list(range(24))
        rng.shuffle(labels)
        rows, orbits = invariant_matrix((1, 2, 3, 6, 6, 6), labels,
                                        lambda: rng.randint(-10 ** 6, 10 ** 6))
        expected = bareiss_int(rows)
        assert expected != 0
        assert crt_det(rows, orbits) == expected
        assert int_det(rows, orbits) == expected


def spy_on_intdet(monkeypatch, name: str, record) -> list:
    """Replace intdet.<name> by a wrapper that appends record(*args) to the
    returned list before each call."""
    calls = []
    original = getattr(intdet, name)

    def spy(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(intdet, name, spy)
    return calls


class TestBlockSelection:
    def test_eliminations_stay_within_the_cap(self, monkeypatch):
        rng = random.Random(20)
        rows, orbits = invariant_matrix((1, 2, 3, 6, 6, 6), list(range(24)),
                                        lambda: rng.randint(-10 ** 6, 10 ** 6))
        expected = bareiss_int(rows)
        cap = 2 * len(orbits) * len(rows)  # two primes' representative rows
        monkeypatch.setattr(intdet, "_ELIMINATION_CELLS", cap)
        sizes = spy_on_intdet(monkeypatch, "dets_mod", lambda stack, moduli: stack.size)
        assert crt_det(rows, orbits) == expected != 0
        primes = primes_for(hadamard_bound(rows), 6)
        assert len(primes) > 2 and len(sizes) >= len(primes) / 2
        assert max(sizes) <= cap

    def test_symmetric_matrix_gets_half_the_blocks(self, monkeypatch):
        # G + G^T is invariant when G is; L = 8
        rng = random.Random(21)
        rows, orbits = invariant_matrix((2, 4, 8), list(range(14)),
                                        lambda: rng.randint(-10 ** 6, 10 ** 6))
        symmetric = [[a + b for a, b in zip(row, column)] for row, column in zip(rows, zip(*rows))]
        assert is_symmetric(symmetric) and not is_symmetric(rows)
        expected = [bareiss_int(symmetric), bareiss_int(rows)]
        calls = spy_on_intdet(monkeypatch, "block_dets_mod",
                              lambda values, codes, orbits, moduli, ks: [int(k) for k in ks])
        assert [crt_det(symmetric, orbits), crt_det(rows, orbits)] == expected
        assert calls == [[0, 1, 2, 3, 4], list(range(8))]


class TestRationalCross:
    def test_fraction_elimination_oracle(self):
        # one more independent route: Gaussian elimination over Fraction
        rng = random.Random(15)
        for _ in range(10):
            n = rng.randint(2, 8)
            m = random_matrix(rng, n, -50, 50)
            frac = [[Fraction(v) for v in row] for row in m]
            det = Fraction(1)
            sign = 1
            for k in range(n):
                pivot_row = next((i for i in range(k, n) if frac[i][k]), None)
                if pivot_row is None:
                    det = Fraction(0)
                    break
                if pivot_row != k:
                    frac[k], frac[pivot_row] = frac[pivot_row], frac[k]
                    sign = -sign
                det *= frac[k][k]
                inv = 1 / frac[k][k]
                for i in range(k + 1, n):
                    factor = frac[i][k] * inv
                    for j in range(k, n):
                        frac[i][j] -= factor * frac[k][j]
            expected = int(det) * sign if det else 0
            assert bareiss_int(m) == expected
            assert int_det(m) == expected


# -- property tests -------------------------------------------------------------

# deadline=None: example timings vary with host load; a slow example is not a failure


@st.composite
def integer_matrices(draw, max_size=8):
    """Random square matrices: some singular, some with a zero row, some with
    entries beyond int64; magnitude 1 (entries -1..1) makes zero pivots common."""
    n = draw(st.integers(1, max_size))
    magnitude = draw(st.sampled_from([1, 9, 10 ** 6, 2 ** 62, 2 ** 70]))
    cell = st.integers(-magnitude, magnitude)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["random", "singular", "zero-row"]))
    if n > 1 and shape == "singular":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1 % (n - 1)])]
    elif shape == "zero-row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    return rows


@settings(deadline=None, max_examples=150)
@given(integer_matrices())
def test_int_and_crt_det_match_bareiss(rows):
    expected = bareiss_int(rows)
    assert crt_det(rows) == expected
    assert int_det(rows) == expected


@st.composite
def symmetric_matrices(draw, max_size=6):
    """Matrices equal to their transpose; entries -1..1 make zero pivots, and
    with them the switch to full elimination, common."""
    n = draw(st.integers(1, max_size))
    magnitude = draw(st.sampled_from([1, 9, 10 ** 6, 2 ** 70]))
    upper = [draw(st.lists(st.integers(-magnitude, magnitude), min_size=n - i, max_size=n - i))
             for i in range(n)]
    return [[upper[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]


@settings(deadline=None, max_examples=150)
@given(symmetric_matrices())
def test_symmetric_bareiss_matches_cofactor(rows):
    assert is_symmetric(rows)
    assert bareiss_int(rows) == cofactor_det(rows)


@st.composite
def invariant_matrices(draw):
    """Matrices invariant under a random permutation with mixed cycle sizes:
    lcm 6 from sizes {1, 2, 3, 6}, lcm 8 from {2, 4, 8}; each size occurs."""
    sizes = draw(st.sampled_from([(1, 2, 3, 6), (2, 4, 8)]))
    cycle_sizes = list(sizes) + draw(st.lists(st.sampled_from(sizes), max_size=3))
    cycle_sizes = draw(st.permutations(cycle_sizes))
    labels = draw(st.permutations(range(sum(cycle_sizes))))
    magnitude = draw(st.sampled_from([1, 9, 10 ** 6, 10 ** 9]))
    return invariant_matrix(cycle_sizes, labels,
                            lambda: draw(st.integers(-magnitude, magnitude)))


@settings(deadline=None, max_examples=60)
@given(invariant_matrices())
def test_block_crt_det_matches_bareiss(case):
    rows, orbits = case
    assert crt_det(rows, orbits) == bareiss_int(rows)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6),
                min_size=1, max_size=4),
       st.integers(0, 3), st.sampled_from(primes_for(2 ** 62)))
def test_interpolate_mod_matches_ring_interpolation(columns, extra, p):
    # one integer polynomial per column, sampled at 0..k-1 with k above its degree
    k = max(len(c) for c in columns) + extra
    polys = [Polynomial.univariate("d", dict(enumerate(c))) for c in columns]
    values = np.array([[f.evaluate({"d": t}) % p for f in polys] for t in range(k)])
    got = interpolate_mod(values, p, axis=0)
    for col, f in enumerate(polys):
        ring = interpolate("d", [(t, f.evaluate({"d": t})) for t in range(k)])
        expected = [ring.terms.get((deg, 0, 0, 0, 0), 0) % p for deg in range(k)]
        assert got[:, col].tolist() == expected
    assert interpolate_mod(values.T, p, axis=1).tolist() == got.T.tolist()


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=7),
       st.sampled_from(primes_for(2 ** 62)))
def test_interpolate_mod_one_point_short_never_returns_f(coeffs, p):
    assume(coeffs[-1] % p)
    f = Polynomial.univariate("d", dict(enumerate(coeffs)))
    short = len(coeffs) - 1  # one point fewer than the degree bound
    values = np.array([f.evaluate({"d": t}) % p for t in range(short)])
    got = interpolate_mod(values, p).tolist() + [0]
    assert got != [c % p for c in coeffs]


# coefficient grids of polynomials in two variables, up to 5 x 3
coefficient_grids = st.integers(1, 5).flatmap(lambda rows: st.integers(1, 3).flatmap(
    lambda cols: st.lists(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, 2 ** 31)),
                                   min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


def check_multiply_mod(grids, p):
    # each factor as (offsets, residues) of its nonzero coefficients in
    # the box of the product, flattened in C order
    grids = [np.array(grid, dtype=object) % p for grid in grids]
    box = tuple(sum(grid.shape[v] - 1 for grid in grids) + 1 for v in range(2))
    factors, expected = [], np.zeros(box, dtype=object)
    expected[0, 0] = 1
    for grid in grids:
        cells = np.nonzero(grid)
        factors.append((np.ravel_multi_index(cells, box), grid[cells].astype(np.int64)))
        product = np.zeros(box, dtype=object)
        for (i, j), c in np.ndenumerate(grid):
            product[i:, j:] += c * expected[:box[0] - i, :box[1] - j]
        expected = product % p
    offsets, residues = multiply_mod(factors, p)
    # the nonzero coefficients only, offsets ascending
    assert offsets.tolist() == np.flatnonzero(expected).tolist()
    assert residues.tolist() == expected.ravel()[np.flatnonzero(expected)].tolist()


@settings(deadline=None, max_examples=60)
@given(st.lists(coefficient_grids, min_size=1, max_size=4), st.sampled_from(primes_for(2 ** 62)))
# an all-zero factor between two others: the product is zero
@example(grids=[[[1, 2], [3, 4]], [[0, 0, 0]], [[5], [6]]], p=primes_for(2 ** 62)[0])
# coefficients p - 1 only: every cell of the product's box is nonzero, and
# equal offsets sum pair products near p^2 that overflow int64 unreduced
@example(grids=[[[-1] * 3] * 5, [[-1] * 2] * 4, [[-1] * 3] * 2], p=primes_for(2 ** 62)[0])
# (1 + x)(1 - x): the two pairs at x sum to p, a zero residue the product drops
@example(grids=[[[1], [1]], [[1], [-1]]], p=primes_for(2 ** 62)[0])
def test_multiply_mod_matches_direct_product(grids, p):
    check_multiply_mod(grids, p)


@settings(deadline=None, max_examples=40)
@given(st.lists(coefficient_grids, min_size=1, max_size=4), st.sampled_from(primes_for(2 ** 62)),
       st.integers(1, 5))
@example(grids=[[[-1] * 3] * 5, [[-1] * 2] * 4, [[-1] * 3] * 2], p=primes_for(2 ** 62)[0],
         cells=2)
def test_multiply_mod_in_slices_matches_direct_product(grids, p, cells):
    # slices of a few pairs: each product spans several, merged one by one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intdet, "_ELIMINATION_CELLS", cells)
        check_multiply_mod(grids, p)


@settings(deadline=None, max_examples=40)
@given(invariant_matrices())
def test_block_dets_multiply_to_the_determinant(case):
    rows, orbits = case
    order = lcm(*map(len, orbits))
    p = primes_for(1, order)[0]
    # every entry its own code
    values = np.array([sum(rows, [])], dtype=np.int64) % p
    codes = np.arange(len(rows) ** 2).reshape(len(rows), -1)
    dets = block_dets_mod(values, codes, orbits, np.array([p]), list(range(order)))
    assert dets.shape == (order, 1)
    assert prod(dets[:, 0].tolist()) % p == bareiss_int(rows) % p
    # a subset of the blocks, in any order, gives the same block determinants
    ks = [order - 1, 0]
    assert block_dets_mod(values, codes, orbits, np.array([p]), ks)[:, 0].tolist() == [
        dets[k, 0] for k in ks]
