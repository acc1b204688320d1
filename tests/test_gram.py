"""Gram assembly, determinant backends, closed forms, and verification drivers."""

import itertools
import json
import random
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbgram import diagrams, gram, intdet
from mbgram.diagrams import Diagram, parse_diagram, rotate
from mbgram.errors import BoundExceededError, UnclassifiableComponentError
from mbgram.gram import (DET_FORMAT, GRAM_FORMAT, TILDE_SUBSTITUTION, ConjectureId, GramMatrix,
                         GramVariant, assemble_gram, choose_backend, class_matrix_4x4,
                         block_degree_bounds, conjecture_factors, conjecture_formula,
                         det_by_evaluation, det_exact, equal_up_to_simultaneous_permutation,
                         formula_value_at, get_det, get_gram, total_degree_bound,
                         verify_conjecture, verify_formula_identity, verify_theorem_3_6)
from mbgram.intdet import bareiss_int
from mbgram.pairing import bilinear_form
from mbgram.polynomial import VARIABLES, Polynomial
from mbgram.storage import cache_read, cache_write, payload_digest

D = Polynomial.variable("d")
W = Polynomial.variable("w")
X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")

# the hand-derived 3x3 determinant of the n=1 full matrix
N1_FULL_DET = (D - Z) * ((D + Z) * W - 2 * X * Y)


def cellwise_codes(rows):
    """Reference numbering, cell by cell: the distinct entries keyed by
    value in row-major order of first occurrence, and each cell's index."""
    index = {}  # entry value -> (its code, the entry)
    codes = np.array([[index.setdefault(frozenset(e.terms.items()), (len(index), e))[0]
                       for e in row] for row in rows], dtype=np.int64)
    return codes.reshape(len(rows), len(rows)), tuple(e for _, e in index.values())


def direct_entries(basis, variant):
    """Reference rows, every cell paired directly."""
    substitution = TILDE_SUBSTITUTION if variant is GramVariant.MBN1_TILDE else {}
    entries = {}  # pairing value's terms -> its substituted entry
    rows = []
    for m_i in basis:
        row = []
        for m_j in basis:
            value = bilinear_form(m_i, m_j)
            key = frozenset(value.terms.items())
            if key not in entries:
                entries[key] = value.substitute(substitution)
            row.append(entries[key])
        rows.append(tuple(row))
    return tuple(rows)


def count_pairings(monkeypatch) -> list:
    """Record the (m1, m2) of every pairing that gram hands the kernel."""
    calls = []
    original = gram.pair_exponents

    def spy(left, right, pairs):
        calls.extend((left[i], right[j]) for i, j in pairs)
        return original(left, right, pairs)

    monkeypatch.setattr(gram, "pair_exponents", spy)
    return calls


def poly_cofactor_det(rows):
    """Independent oracle: Laplace expansion over Polynomial entries."""
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return rows[0][0]
    total = Polynomial.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * poly_cofactor_det(minor)
        total = total + (-term if j % 2 else term)
    return total


class TestAssemble:
    def test_n1_full_matrix(self):
        gm = assemble_gram(1, GramVariant.MB1_FULL)
        assert [m.serialize() for m in gm.basis] == ["(1 2)", "(2 1)", "(1)(2)"]
        expected = [[D, Z, Y], [Z, D, Y], [X, X, W]]
        assert [list(row) for row in gm.entries] == expected

    def test_n2_tilde_matches_class_matrix(self):
        gm = assemble_gram(2, GramVariant.MBN1_TILDE)
        assert equal_up_to_simultaneous_permutation(gm.entries, class_matrix_4x4(1))

    def test_sizes(self):
        assert assemble_gram(3, GramVariant.MBN1).size == 15
        assert assemble_gram(2, GramVariant.MB1_FULL).size == 10
        assert GramVariant.MBN1_TILDE.size(4) == 56
        for variant in GramVariant:
            for n in range(1, 5):
                assert variant.size(n) == len(gram.gram_basis(n, variant)), (variant, n)

    def test_tilde_entries_carry_only_d(self):
        for n in (1, 2, 3):
            gm = assemble_gram(n, GramVariant.MBN1_TILDE)
            for row in gm.entries:
                for entry in row:
                    assert all(entry.degree_in(v) <= 0 for v in "wxyz")

    def test_tilde_diagonal(self):
        gm = assemble_gram(3, GramVariant.MBN1_TILDE)
        for i in range(gm.size):
            assert gm.entries[i][i] == D ** 2

    def test_transpose_exchanges_xy(self):
        gm = assemble_gram(2, GramVariant.MB1_FULL)
        swap = {"x": Y, "y": X}
        for i in range(gm.size):
            for j in range(gm.size):
                assert gm.entries[j][i] == gm.entries[i][j].substitute(swap)

    def test_matches_plain_double_loop(self):
        # assembly pairs one cell per orbit; every entry must equal a direct pairing
        cases = [(v, n) for v in GramVariant for n in (1, 2, 3, 4)] + [(GramVariant.MBN1_TILDE, 5)]
        for variant, n in cases:
            gm = assemble_gram(n, variant)
            assert gm.entries == direct_entries(gm.basis, variant), (variant, n)

    @pytest.mark.parametrize("variant, n, pairings", [(GramVariant.MBN1_TILDE, 5, 2231),
                                                      (GramVariant.MB1_FULL, 4, 1012)])
    def test_one_pairing_per_orbit(self, monkeypatch, variant, n, pairings):
        calls = count_pairings(monkeypatch)
        assemble_gram(n, variant)
        assert len(calls) == pairings

    def test_basis_not_closed_under_rotation_pairs_every_upper_cell(self, monkeypatch):
        # a rotation leaving the basis gives the identity, the plain i <= j loop
        outside = Diagram.build(3, [(1, 2)], [3, 4, 5, 6])  # in neither stratum
        monkeypatch.setattr(gram, "rotate", lambda m: outside)
        calls = count_pairings(monkeypatch)
        gm = assemble_gram(3, GramVariant.MB1_FULL)
        index = {m: i for i, m in enumerate(gm.basis)}
        assert [(index[m1], index[m2]) for m1, m2 in calls] == [
            (i, j) for i in range(gm.size) for j in range(i, gm.size)]
        assert gm.entries == direct_entries(gm.basis, GramVariant.MB1_FULL)

    def test_skewed_sweep_raises_as_the_pairing_does(self, monkeypatch):
        # a tail sweep of 2 on (1 2)(3)(4) makes its diagonal cycle {1, 2}
        # sweep 1; assembly pairs that cell in its one kernel call, then
        # raises the scalar pairing's error for it
        build = diagrams.pairing_tables

        def skewed(m):
            partner, sweep = build(m)
            if m.serialize() == "(1 2)(3)(4)":
                sweep = (None, 2, *sweep[2:])
            return partner, sweep

        monkeypatch.setattr(diagrams, "pairing_tables", skewed)
        m = parse_diagram("(1 2)(3)(4)")
        with pytest.raises(UnclassifiableComponentError) as scalar_error:
            bilinear_form(m, m)
        with pytest.raises(UnclassifiableComponentError) as assembly_error:
            assemble_gram(2, GramVariant.MBN1)
        assert str(assembly_error.value) == str(scalar_error.value) == (
            "cycle swept 1, expected 0 or +/-4")

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            assemble_gram(5, GramVariant.MB1_FULL)

    def test_json_roundtrip(self):
        gm = assemble_gram(2, GramVariant.MBN1)
        again = GramMatrix.from_json_obj(gm.to_json_obj())
        assert again.basis == gm.basis
        assert again.entries == gm.entries


@st.composite
def graded_matrices(draw, min_size=1, max_size=5):
    """(rows, a, b): a square matrix whose nonzero entries are sums of one
    or two monomials c d^e w^(a_i - x) x^x y^(b_j - a_i + x) z^f with
    signed c, so deg_x + deg_w is a_i on row i and deg_y + deg_w is b_j on
    column j."""
    n = draw(st.integers(min_size, max_size))
    a = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for _ in range(draw(st.integers(0, 2))):
                x = draw(st.integers(max(0, a[i] - b[j]), a[i]))
                exps = (draw(st.integers(0, 3)), a[i] - x, x, b[j] - a[i] + x, draw(st.integers(0, 2)))
                terms[exps] = draw(st.integers(-9, 9))
            row.append(Polynomial(terms))
        rows.append(row)
    return rows, a, b


def sylvester_hadamard(k: int) -> list:
    """The 2^k x 2^k Sylvester-Hadamard matrix of +-1s."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


class TestDetExact:
    def test_one_by_one(self):
        assert det_exact([[D ** 3]]) == D ** 3

    def test_class_matrix_hand_value(self):
        # cofactor expansion by hand gives d^4 - 4 d^2 = d^2 (d^2 - 4)
        expected = Polynomial.univariate("d", {4: 1, 2: -4})
        assert det_exact(class_matrix_4x4(1)) == expected
        assert poly_cofactor_det(class_matrix_4x4(1)) == expected

    def test_n1_full_hand_value(self):
        gm = assemble_gram(1, GramVariant.MB1_FULL)
        assert det_exact(gm) == N1_FULL_DET
        assert poly_cofactor_det(gm.entries) == N1_FULL_DET

    def test_against_cofactor_oracle(self):
        for n, variant in ((1, GramVariant.MB1_FULL), (2, GramVariant.MBN1),
                           (2, GramVariant.MBN1_TILDE)):
            gm = assemble_gram(n, variant)
            assert det_exact(gm) == poly_cofactor_det(gm.entries)

    def test_zero_pivot_column_swap(self):
        m = [[Polynomial.zero(), D], [D, Polynomial.zero()]]
        assert det_exact(m) == -(D * D)

    def test_singular(self):
        m = [[D, D], [D, D]]
        assert det_exact(m).is_zero()

    def test_integer_entries_match_bareiss_int(self):
        rng = random.Random(21)
        for n in (2, 5, 9):
            ints = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            ints[0][0] = 0
            polys = [[Polynomial.integer(v) for v in row] for row in ints]
            assert det_exact(polys) == bareiss_int(ints)
        assert det_exact([[Polynomial.integer(2), Polynomial.integer(4)],
                          [Polynomial.integer(1), Polynomial.integer(2)]]) == 0
        assert det_exact([]) == 1

    def test_permutation_invariance(self):
        rng = random.Random(20)
        for n, variant in ((2, GramVariant.MBN1_TILDE), (1, GramVariant.MB1_FULL),
                           (3, GramVariant.MBN1_TILDE)):
            gm = assemble_gram(n, variant)
            base = det_exact(gm)
            rows = gm.entries
            for _ in range(3):
                perm = list(range(gm.size))
                rng.shuffle(perm)
                permuted = [[rows[perm[i]][perm[j]] for j in range(gm.size)]
                            for i in range(gm.size)]
                assert det_exact(permuted) == base

    @settings(deadline=None, max_examples=60)
    @given(graded_matrices())
    def test_graded_family_against_cofactors(self, case):
        rows, a, b = case
        graded = gram.gradings(*gram._coded(rows)[:2])
        assert graded is not None
        for i, grade in enumerate(graded[0]):
            assert grade == (a[i] if any(rows[i]) else 0)
        assert det_exact(rows) == poly_cofactor_det(rows)

    @settings(deadline=None, max_examples=60)
    @given(graded_matrices(min_size=2, max_size=3), st.data())
    def test_broken_grading_gets_no_reduction(self, case, data):
        # one nonzero entry, next to nonzero ones in its row and column,
        # gets a second term times x or y (an entry with two grades), or is
        # multiplied by x (its row has two grades) or y (its column has).
        # At most 3x3: without the reduction every variable has its own
        # bound, and a 4x4 of this family can pack to 6.6 * 10^6 bits, past
        # PACKED_BITS_LIMIT, which det_exact refuses (3x3: 1.2 * 10^6)
        rows, a, b = case
        n = len(rows)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for r, c in ((i, j), (i, (j + 1) % n), ((i + 1) % n, j)):
            if not rows[r][c]:
                rows[r][c] = Polynomial({(0, 0, a[r], b[c], 0): 1})
        breaker = data.draw(st.sampled_from([X, Y]))
        if data.draw(st.booleans()):
            rows[i][j] = rows[i][j] + breaker * Polynomial({rows[i][j].leading_term()[0]: 1})
        else:
            rows[i][j] = breaker * rows[i][j]
        assert gram.gradings(*gram._coded(rows)[:2]) is None
        assert det_exact(rows) == poly_cofactor_det(rows)

    def test_zero_pivot_forces_a_row_swap(self):
        # the leading 2x2 minor x y - y x is 0, so the second pivot is 0
        rows = [[X, Y, Polynomial.one()], [X, Y, D], [Polynomial.one(), D, Z]]
        assert det_exact(rows) == poly_cofactor_det(rows) == -(D - 1) * (X * D - Y)

    def test_zero_row(self, monkeypatch):
        rows = [[D, X * Y, Z], [Polynomial.zero()] * 3, [W, D, D * Z]]
        monkeypatch.setattr(intdet, "bareiss_int", None)  # a zero row is answered at once
        assert det_exact(rows).is_zero()

    def test_coefficient_at_the_hadamard_bound(self):
        # 11 H_8 scaled by d^(a_i + b_j): |det| = 11^8 8^4 meets Hadamard's
        # inequality, and its 40 bits fill whole bytes, so the slot must
        # hold 2 |det| (one byte more than |det| alone needs)
        a, b = [0, 1, 2, 3, 0, 1, 2, 3], [2, 0, 1, 0, 3, 1, 0, 2]
        h = sylvester_hadamard(3)
        rows = [[Polynomial.monomial(11 * h[i][j], {"d": a[i] + b[j]}) for j in range(8)]
                for i in range(8)]
        codes, entries, _ = gram._coded(rows)
        coefficient = 11 ** 8 * bareiss_int(h)
        norms = [sum(map(abs, e.terms.values())) for e in entries]
        assert abs(coefficient) == 11 ** 8 * 8 ** 4 == intdet.hadamard_bound(codes, norms) - 1
        assert abs(coefficient).bit_length() == 40
        assert det_exact(rows) == Polynomial.monomial(coefficient, {"d": sum(a) + sum(b)})

    def test_packed_determinant_above_the_cap(self, monkeypatch):
        # one cell per degree of d, one byte per cell (hadamard bound 2)
        slots = gram.PACKED_BITS_LIMIT // 8
        assert det_exact([[D ** (slots - 1)]]) == D ** (slots - 1)
        calls = []
        monkeypatch.setattr(intdet, "bareiss_int", calls.append)
        with pytest.raises(BoundExceededError, match="packed determinant"):
            det_exact([[D ** slots]])
        assert not calls

    @pytest.mark.parametrize("n, variant", [
        (1, GramVariant.MB1_FULL), (2, GramVariant.MB1_FULL), (2, GramVariant.MBN1),
        (3, GramVariant.MBN1), (2, GramVariant.MBN1_TILDE), (3, GramVariant.MBN1_TILDE),
    ])
    def test_matches_the_engine(self, n, variant):
        gm = assemble_gram(n, variant)
        assert det_exact(gm) == det_by_evaluation(gm)

    def test_every_gram_matrix_is_graded(self):
        for variant in GramVariant:
            for n in range(1, variant.default_bound() + 1):
                gm = assemble_gram(n, variant)
                a, b = gram.gradings(gm.codes, gm.values)
                assert len(a) == len(b) == gm.size

    # det_exact's Kronecker image: digits of |c| < B / 2, B = 2^(8 nb).
    # +-(B/2 - 1) in every slot, B = 2^8, and a negative packed value
    @example((1, [127, -127, 127, -127]))
    @example((1, [-127] * 5))
    @example((1, [1, -1]))
    # |value| = B^3 - 1 has ordinary digits 255, 255, 255: the carry runs
    # across every slot into the top one
    @example((1, [-1, 0, 0, 1]))
    # str(int) and int(str) refuse more than 4300 digits by default;
    # packing and reading back go by bytes
    @example((((2 * 10 ** 4400).bit_length() + 7) // 8,
              [10 ** 4400, 1 - 10 ** 4400, 0, 7, -10 ** 4400, 10 ** 4400 - 1]))
    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 3).flatmap(lambda nb: st.tuples(
        st.just(nb), st.lists(st.integers(-(1 << 8 * nb - 1) + 1, (1 << 8 * nb - 1) - 1),
                              min_size=1, max_size=12))))
    def test_packed_digits_round_trip(self, case):
        nb, cs = case
        value = gram._to_int(cs, nb)
        assert value == sum(c << 8 * nb * i for i, c in enumerate(cs))
        assert gram._balanced_digits(*gram._slot_digits(value, len(cs), nb)) == cs


def engine_with_variables(rows) -> tuple:
    """det_by_evaluation(rows) and the variables its grid and box span,
    None for a matrix with a zero row, which the engine answers at once."""
    seen = []
    original = gram.block_degree_bounds

    def spy(codes, entries, plan, variables):
        seen.append(list(variables))
        return original(codes, entries, plan, variables)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gram, "block_degree_bounds", spy)
        det = det_by_evaluation(rows)
    assert len(seen) <= 1
    return det, seen[0] if seen else None


class TestDetByEvaluation:
    def test_class_matrix(self):
        expected = Polynomial.univariate("d", {4: 1, 2: -4})
        assert det_by_evaluation(class_matrix_4x4(1)) == expected

    def test_diagonal(self):
        m = [[D, Polynomial.zero()], [Polynomial.zero(), D * D]]
        assert det_by_evaluation(m) == D ** 3

    def test_multivariate(self):
        gm = assemble_gram(1, GramVariant.MB1_FULL)
        assert det_by_evaluation(gm) == N1_FULL_DET

    def test_matches_exact_on_tilde(self):
        for n in (2, 3):
            gm = assemble_gram(n, GramVariant.MBN1_TILDE)
            assert det_by_evaluation(gm) == det_exact(gm)

    def test_matches_exact_on_mbn1_n3(self):
        # symmetric, five variables, L = 6: the engine where elimination also runs
        gm = assemble_gram(3, GramVariant.MBN1)
        assert det_by_evaluation(gm) == det_exact(gm)

    def test_block_bounds_rule(self):
        # one block, G itself: four rows of largest degree 1
        codes, entries, _ = gram._coded(class_matrix_4x4(1))
        assert block_degree_bounds(codes, entries, intdet.block_plan(codes), ["d"]) == [(4,)]
        # one orbit of four: four 1x1 blocks, each a combination of row 0
        gm = assemble_gram(2, GramVariant.MBN1)
        bounds = block_degree_bounds(gm.codes, gm.values, plan_of(gm), ["d", "w"])
        assert bounds == [(1, 1)] * 4

    def test_empty_matrix(self):
        assert det_by_evaluation([]) == 1

    def test_zero_row(self):
        m = [[D, W + 1, 2], [0, 0, 0], [X, 1, D * D]]
        assert det_by_evaluation(m) == 0

    def test_singular_without_zero_row(self):
        # every block polynomial is zero mod p, so its product is too
        m = [[D, W + 1, X], [D, W + 1, X], [1, D, 2]]
        assert det_by_evaluation(m) == 0

    def test_integer_matrix(self):
        # a plain int entry is coerced the same way on both routes
        m = [[Polynomial.integer(3), 1],
             [Polynomial.integer(1), Polynomial.integer(2)]]
        assert det_by_evaluation(m) == 5
        assert det_exact(m) == 5

    @pytest.mark.parametrize("n", [4, 8])
    def test_hadamard_matrix_meets_the_bound(self, n):
        # a Sylvester Hadamard matrix scaled by 2^40 has |det| equal to the
        # Hadamard bound of its entry norms, and the grading d^(a_i + b_j)
        # leaves every norm as it is
        h = [[2 ** 40 * (-1) ** bin(i & j).count("1") for j in range(n)] for i in range(n)]
        det = bareiss_int(h)
        assert abs(det) == 2 ** (40 * n) * n ** (n // 2)
        a, b = [i % 3 for i in range(n)], [j % 2 for j in range(n)]
        graded = [[h[i][j] * D ** (a[i] + b[j]) for j in range(n)] for i in range(n)]
        assert det_by_evaluation(h) == det
        assert det_by_evaluation(graded) == det * D ** (sum(a) + sum(b))

    def test_coefficient_that_vanishes_mod_one_prime(self, monkeypatch):
        # p0 d, p0 the first prime: twice the bound p0 + 1 needs two primes,
        # and mod p0 the product has no nonzero coefficient, so the column of
        # d in the table is nonzero for the other prime only and CRT reads 0
        # for p0
        p0 = intdet.primes_for(1)[0]
        assert p0 == 2 ** 31 - 1
        lengths = []
        original = intdet.multiply_mod

        def spy(factors, p, box):
            product = original(factors, p, box)
            lengths.append(np.count_nonzero(product))
            return product

        monkeypatch.setattr(intdet, "multiply_mod", spy)
        assert det_by_evaluation([[p0 * D]]) == p0 * D
        assert lengths == [0, 1]

    def test_crt_runs_once_per_nonzero_coefficient(self, monkeypatch):
        # full n=2: a box of 1 275 cells over d, x and z, and 142 terms;
        # CRT reads the nonzero columns of the primes' table only
        gm = assemble_gram(2, GramVariant.MB1_FULL)
        calls = []
        original = intdet.crt

        def spy(residues, primes):
            calls.append(residues)
            return original(residues, primes)

        monkeypatch.setattr(intdet, "crt", spy)
        det = det_by_evaluation(gm)
        assert det == conjecture_formula(ConjectureId.C3_4, 2)
        assert det.num_terms() == len(calls) == 142

    def test_box_past_the_dense_cap_is_refused_before_evaluation(self, monkeypatch):
        # d^2048 x^2048 z^2048 is graded, and its box over d, x and z has
        # 2049^3 > 2^33 cells of degree bounds
        entry = Polynomial.monomial(1, {"d": 2 ** 11, "x": 2 ** 11, "z": 2 ** 11})
        assert gram.gradings(*gram._coded([[entry]])[:2]) is not None
        points = []
        monkeypatch.setattr(Polynomial, "evaluate", lambda self, point: points.append(point))
        with pytest.raises(BoundExceededError, match=f"more than {gram.DENSE_CELLS_LIMIT}:"):
            det_by_evaluation([[entry]])
        assert points == []

    @settings(deadline=None, max_examples=60)
    @given(graded_matrices())
    def test_graded_family_matches_det_exact(self, case):
        rows = case[0]
        det, variables = engine_with_variables(rows)
        assert variables == (["d", "x", "z"] if all(map(any, rows)) else None)
        assert det == det_exact(rows)

    def test_broken_grading_keeps_five_variables(self):
        # x y on row 0 has deg_x + deg_w = 1 where d has 0: row 0 has two grades
        rows = [[D, X * Y, Z + 2], [W * Y, D * W, X * Y - 3], [Y, W, D * D - Z]]
        assert gram.gradings(*gram._coded(rows)[:2]) is None
        det, variables = engine_with_variables(rows)
        assert variables == list("dwxyz")
        assert det == det_exact(rows) == poly_cofactor_det(rows)

    def test_full_n3_equals_the_closed_form(self):
        # 35x35, graded to d, x and z, L = 6, not symmetric: 12 309 terms
        gm = assemble_gram(3, GramVariant.MB1_FULL)
        det = det_by_evaluation(gm)
        assert det.num_terms() == 12309
        assert det == conjecture_formula(ConjectureId.C3_4, 3)

    def test_tilde_n4_needs_five_primes(self, monkeypatch):
        # twice the Hadamard bound of the entry norms needs five 31-bit primes
        counts = []
        original = intdet.primes_for

        def spy(bound, order=1):
            primes = original(bound, order)
            counts.append(len(primes))
            return primes

        monkeypatch.setattr(intdet, "primes_for", spy)
        gm = assemble_gram(4, GramVariant.MBN1_TILDE)
        assert det_by_evaluation(gm) == conjecture_formula(ConjectureId.C3_5, 4)
        assert counts == [5]


class TestDistinctEntries:
    def test_full_n4_has_44_distinct_entries(self):
        gm = assemble_gram(4, GramVariant.MB1_FULL)
        codes, entries = gm.codes, gm.values
        assert codes.shape == (126, 126) and len(entries) == 44
        assert sorted(set(codes.ravel().tolist())) == list(range(44))

    def test_one_code_matrix_per_determinant_miss(self, tmp_path, monkeypatch):
        # assembly builds the code matrix; choose_backend, det_by_evaluation
        # and the Gram cache write all read that one
        calls = []

        def spy(name):
            original = getattr(gram, name)

            def counted(rows, *args):
                calls.append(len(rows))
                return original(rows, *args)
            monkeypatch.setattr(gram, name, counted)

        spy("_code_rows")
        det, provenance = get_det(4, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert (provenance["backend"], provenance["cache"]) == ("interp", "miss")
        assert det == conjecture_formula(ConjectureId.C3_5, 4)
        assert calls == [56]

    def test_matrix_and_its_rows_code_alike(self):
        # _coded reads a GramMatrix's own code matrix and raw rows by value:
        # one numbering either way, and one determinant on each route
        gm = assemble_gram(2, GramVariant.MBN1_TILDE)
        codes, entries, perm = gram._coded(gm)
        row_codes, row_entries, row_perm = gram._coded(gm.entries)
        assert np.array_equal(codes, row_codes) and entries == row_entries
        assert perm == gram.rotation_permutation(gm.basis) and row_perm is None
        for matrix in (gm, gm.entries):
            assert det_exact(matrix) == det_by_evaluation(matrix)

    def test_int_cells_code_as_constants(self):
        rows = [[2, D, 0], [Polynomial.integer(2), 1, D], [0, D, Polynomial.one()]]
        codes, entries, _ = gram._coded(rows)
        assert codes.tolist() == [[0, 1, 2], [0, 3, 1], [2, 1, 3]]
        assert entries == (2, D, 0, 1)
        assert det_exact(rows) == det_by_evaluation(rows) == 2 - 2 * D - 2 * D * D

    def test_ragged_rows_raise_the_same_error_on_both_routes(self):
        messages = []
        for route in (det_exact, det_by_evaluation):
            with pytest.raises(ValueError, match="square") as raised:
                route([[D, 1], [1]])
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("variant, n", [
        (GramVariant.MB1_FULL, 3), (GramVariant.MBN1, 3), (GramVariant.MBN1_TILDE, 4),
    ])
    def test_cached_matrix_gets_the_same_codes(self, tmp_path, variant, n):
        assembled = get_gram(n, variant, cache_dir=tmp_path)
        cached = get_gram(n, variant, cache_dir=tmp_path)
        # read back from the cache: new entry objects, equal only in value
        assert cached.entries[0][0] is not assembled.entries[0][0]
        assert np.array_equal(cached.codes, assembled.codes)
        assert cached.values == assembled.values

    @pytest.mark.parametrize("variant, n", [
        *((variant, n) for variant in GramVariant for n in (1, 2, 3)),
        (GramVariant.MBN1_TILDE, 4),
    ])
    def test_json_matches_the_cellwise_form(self, variant, n):
        gm = assemble_gram(n, variant)
        cells = gm.to_json_obj()["entries"]
        assert cells == [[e.to_terms_obj() for e in row] for row in gm.entries]
        assert len({json.dumps(cell) for row in cells for cell in row}) == len(gm.values)
        # the cell-by-cell derivation, as the reference for assembly's numbering
        for codes, values in (cellwise_codes(gm.entries), gram._coded(gm.entries)[:2]):
            assert np.array_equal(gm.codes, codes) and gm.values == values

    def test_cached_read_parses_each_distinct_cell_once(self, tmp_path, monkeypatch):
        get_gram(4, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        calls = []
        original = Polynomial.from_terms_obj

        def spy(obj):
            calls.append(obj)
            return original(obj)

        monkeypatch.setattr(Polynomial, "from_terms_obj", spy)
        gm = get_gram(4, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert gm.size == 56 and len(calls) == len(gm.values)

    def test_codes_are_read_only(self):
        gm = assemble_gram(2, GramVariant.MBN1_TILDE)
        with pytest.raises(ValueError, match="read-only"):
            gm.codes[0, 0] = 1
        assert GramMatrix.from_json_obj(gm.to_json_obj()).codes.flags.writeable is False

    @pytest.mark.parametrize("variant, n", [
        (GramVariant.MB1_FULL, 2), (GramVariant.MBN1, 3), (GramVariant.MBN1_TILDE, 4),
    ])
    def test_bounds_match_the_cellwise_loops(self, variant, n):
        # the per-cell loops that the code matrix replaced, as the reference
        gm = assemble_gram(n, variant)
        g, plan = gm.entries, plan_of(gm)
        assert total_degree_bound(gm) == sum(
            max((e.total_degree() for e in row if not e.is_zero()), default=0) for row in g)
        for var in VARIABLES:
            degrees = [[max(max(g[orbit_a[0]][j].degree_in(var), 0) for j in orbit_b)
                        for orbit_b in plan.orbits] for orbit_a in plan.orbits]
            expected = []
            for block in plan.blocks:
                sub = [[degrees[a][b] for b in block] for a in block]
                expected.append((min(sum(map(max, sub)), sum(map(max, zip(*sub)))),))
            assert block_degree_bounds(gm.codes, gm.values, plan, [var]) == expected

    def test_non_square_matrix_raises(self):
        for rows in ([[D, 1]], [[D, 1], [1]]):
            with pytest.raises(ValueError, match="square"):
                det_by_evaluation(rows)


class TestPoolMap:
    def test_workers_never_exceed_the_tasks(self, monkeypatch):
        started = []

        class InProcessPool:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(gram, "ProcessPoolExecutor", InProcessPool)
        assert gram._pool_map(abs, [-1, -2, 3], 16) == [1, 2, 3]
        assert gram._pool_map(abs, [-1, -2, 3, -4], 2) == [1, 2, 3, 4]
        assert gram._pool_map(abs, [-5], 16) == [5]  # one task runs here, no pool
        # tilde n=4 needs five primes, so sixteen jobs start five workers
        gm = assemble_gram(4, GramVariant.MBN1_TILDE)
        assert det_by_evaluation(gm, jobs=16) == conjecture_formula(ConjectureId.C3_5, 4)
        assert started == [3, 2, 5]


def plan_of(gm):
    """The block plan of a GramMatrix under the rotation, as the engine takes it."""
    return intdet.block_plan(gm.codes, gram.rotation_permutation(gm.basis))


def spy_on_plans(monkeypatch) -> list:
    """Record the plan that every call of intdet.block_plan returns."""
    plans = []
    original = intdet.block_plan

    def spy(*args):
        plans.append(original(*args))
        return plans[-1]

    monkeypatch.setattr(intdet, "block_plan", spy)
    return plans


class TestRotationOrbits:
    @pytest.mark.parametrize("variant, n, sizes", [
        (GramVariant.MB1_FULL, 4, {8: 15, 4: 1, 2: 1}),
        (GramVariant.MBN1_TILDE, 4, {8: 7}),
        (GramVariant.MBN1_TILDE, 5, {10: 20, 5: 2}),
    ])
    def test_orbit_sizes_are_pinned(self, variant, n, sizes):
        gm = assemble_gram(n, variant)
        orbits = plan_of(gm).orbits
        assert {s: [len(o) for o in orbits].count(s) for s in sizes} == sizes
        assert sorted(i for orbit in orbits for i in orbit) == list(range(gm.size))

    @pytest.mark.parametrize("variant, n, order, factors", [
        # equal to its transpose: blocks 0..L/2, each 0 < k < L/2 twice
        (GramVariant.MBN1_TILDE, 4, 8, (0, 1, 1, 2, 2, 3, 3, 4)),
        (GramVariant.MBN1, 3, 6, (0, 1, 1, 2, 2, 3)),
        # not symmetric: every block
        (GramVariant.MB1_FULL, 2, 4, (0, 1, 2, 3)),
    ])
    def test_plans_are_pinned(self, variant, n, order, factors):
        plan = plan_of(assemble_gram(n, variant))
        assert (plan.order, plan.factors) == (order, factors)
        assert len(plan.blocks) == order

    def test_orbits_follow_the_rotation(self):
        gm = assemble_gram(3, GramVariant.MB1_FULL)
        for orbit in plan_of(gm).orbits:
            assert orbit[0] == min(orbit)
            for i, j in zip(orbit, orbit[1:] + orbit[:1]):
                assert rotate(gm.basis[i]) == gm.basis[j]

    def test_raw_rows_get_singletons(self, monkeypatch):
        rows = assemble_gram(2, GramVariant.MBN1_TILDE).entries
        exact = det_exact(rows)  # before the spy: det_exact asks for a one-block plan
        plans = spy_on_plans(monkeypatch)
        assert det_by_evaluation(rows) == exact
        assert [plan.orbits for plan in plans] == [tuple((i,) for i in range(len(rows)))]

    def test_changed_entry_gets_singletons(self, monkeypatch):
        gm = assemble_gram(3, GramVariant.MBN1_TILDE)
        assert len(plan_of(gm).orbits) == 3
        rows = [list(row) for row in gm.entries]
        rows[0][1] = rows[0][1] + D
        changed = GramMatrix(gm.n, gm.variant, gm.basis, *gram._coded(rows)[:2])
        exact = det_exact(changed)  # before the spy: det_exact asks for a one-block plan
        assert exact != det_exact(gm)
        plans = spy_on_plans(monkeypatch)
        assert det_by_evaluation(changed) == exact
        assert [plan.orbits for plan in plans] == [tuple((i,) for i in range(gm.size))]

    def test_parsed_matrix_gets_the_rotation(self, monkeypatch):
        # a cached matrix is parsed back into new codes; they pass the check
        gm = assemble_gram(3, GramVariant.MBN1_TILDE)
        parsed = GramMatrix.from_json_obj(json.loads(json.dumps(gm.to_json_obj())))
        expected = plan_of(gm)
        assert expected.order == 6
        exact = det_exact(gm)  # before the spy: det_exact asks for a one-block plan
        plans = spy_on_plans(monkeypatch)
        assert det_by_evaluation(parsed) == exact
        assert plans == [expected]


def block_det_polys_mod(gm, p):
    """(variables, coefficient arrays mod p of det B_k for every block k of
    gm's rotation plan), from gram.block_polys_mod on the grid 0..size x
    max entry degree per variable, which bounds the degree of every block's
    determinant: bounds of its own, not block_degree_bounds, which the
    tests check against these arrays."""
    codes, entries = gm.codes, gm.values
    variables = [v for v in VARIABLES if any(e.degree_in(v) > 0 for e in entries)]
    shape = tuple(gm.size * max(e.degree_in(v) for e in entries) + 1 for v in variables)
    grid = [dict(zip(variables, point)) for point in itertools.product(*map(range, shape))]
    values = [[e.evaluate(point) for e in entries] for point in grid]
    plan = plan_of(gm)
    plan = plan._replace(factors=list(range(plan.order)))  # also the blocks the rule skips
    bounds = [tuple(b - 1 for b in shape)] * plan.order
    return variables, list(gram.block_polys_mod(values, codes, plan, bounds, p).values())


class TestBlocks:
    @pytest.mark.parametrize("variant, n", [
        (GramVariant.MBN1_TILDE, 3), (GramVariant.MBN1_TILDE, 4),
        (GramVariant.MBN1, 2), (GramVariant.MB1_FULL, 1),
    ])
    def test_block_bounds_cover_block_degrees(self, variant, n):
        gm = assemble_gram(n, variant)
        plan = plan_of(gm)
        for p in intdet.primes_for(2 ** 62, plan.order):
            variables, polys = block_det_polys_mod(gm, p)
            bounds = block_degree_bounds(gm.codes, gm.values, plan, variables)
            for coeffs, bound in zip(polys, bounds):
                for axis, b in enumerate(bound):
                    nonzero = np.flatnonzero(np.moveaxis(coeffs, axis, 0).any(
                        axis=tuple(range(1, coeffs.ndim))))
                    assert nonzero.max(initial=0) <= b

    def test_tilde_block_bounds_are_tight(self):
        gm = assemble_gram(4, GramVariant.MBN1_TILDE)
        bounds = block_degree_bounds(gm.codes, gm.values, plan_of(gm), ["d"])
        assert bounds == [(21,)] * 8
        assert sum(b for b, in bounds) == conjecture_formula(ConjectureId.C3_5, 4).degree_in("d")

    def test_tilde_opposite_blocks_agree(self):
        # det B_k = det B_(L-k) mod p for the symmetric tilde matrix, L = 8
        gm = assemble_gram(4, GramVariant.MBN1_TILDE)
        _, polys = block_det_polys_mod(gm, intdet.primes_for(1, 8)[0])
        assert len(polys) == 8
        for k in range(1, 8):
            assert polys[k].tolist() == polys[8 - k].tolist()
        assert polys[1].tolist() != polys[2].tolist()

    def test_symmetric_matrix_gets_half_the_blocks(self, monkeypatch):
        calls = spy_on_blocks(monkeypatch)
        gm = assemble_gram(4, GramVariant.MBN1_TILDE)  # one orbit size, L = 8
        assert det_by_evaluation(gm) == conjecture_formula(ConjectureId.C3_5, 4)
        assert calls and all(ks == [0, 1, 2, 3, 4] for ks in calls)

    def test_non_symmetric_matrix_gets_every_block(self, monkeypatch):
        calls = spy_on_blocks(monkeypatch)
        gm = assemble_gram(2, GramVariant.MB1_FULL)  # orbit sizes 2, 4, 4: L = 4
        assert gm.entries != tuple(zip(*gm.entries))
        assert det_by_evaluation(gm) == det_exact(gm) == conjecture_formula(ConjectureId.C3_4, 2)
        assert calls and all(ks == [0, 1, 2, 3] for ks in calls)


    def test_engine_eliminations_stay_within_the_cap(self, monkeypatch):
        gm = assemble_gram(3, GramVariant.MBN1_TILDE)
        cap = 2 * len(plan_of(gm).orbits) * gm.size  # two points' representative rows
        monkeypatch.setattr(intdet, "_ELIMINATION_CELLS", cap)
        sizes = []
        original = intdet.dets_mod

        def spy(stack, moduli):
            sizes.append(stack.size)
            return original(stack, moduli)

        monkeypatch.setattr(intdet, "dets_mod", spy)
        assert det_by_evaluation(gm) == det_exact(gm)
        assert sizes and max(sizes) <= cap


def spy_on_blocks(monkeypatch) -> list:
    """Record the blocks that every call of intdet.block_dets_mod forms."""
    calls = []
    original = intdet.block_dets_mod

    def spy(values, codes, plan, moduli):
        dets = original(values, codes, plan, moduli)
        calls.append(list(dets))
        return dets

    monkeypatch.setattr(intdet, "block_dets_mod", spy)
    return calls


@st.composite
def rotation_invariant_matrices(draw):
    """Matrices on a real diagram basis, so that block_plan finds the
    rotation, with random entries in one or two variables that repeat along
    each orbit of index pairs, as in test_intdet.invariant_matrix; when
    symmetric, G[j][i] repeats G[i][j] as well."""
    n, variant = draw(st.sampled_from([(1, GramVariant.MB1_FULL), (2, GramVariant.MBN1),
                                       (2, GramVariant.MB1_FULL), (3, GramVariant.MBN1)]))
    basis = gram.gram_basis(n, variant)
    # the 15x15 basis (orbit sizes 6, 3, 6) in one variable only, to keep
    # the reference elimination fast
    names = draw(st.sampled_from([("d",), ("d", "w"), ("x", "z")] if n < 3 else [("d",)]))
    symmetric = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    terms = st.dictionaries(exps, st.integers(-4, 4), max_size=3)
    perm = gram.rotation_permutation(basis)
    size = len(basis)
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if rows[i][j] is None:
                value = Polynomial({tuple(dict(zip(names, e)).get(v, 0) for v in "dwxyz"): c
                                    for e, c in draw(terms).items()})
                a, b = i, j
                while rows[a][b] is None:
                    rows[a][b] = value
                    if symmetric:
                        rows[b][a] = value
                    a, b = perm[a], perm[b]
    return GramMatrix(n, variant, tuple(basis), *gram._coded(rows)[:2])


@settings(deadline=None, max_examples=30)
@given(rotation_invariant_matrices())
def test_blockwise_evaluation_matches_elimination(gm):
    assert len(plan_of(gm).orbits) < gm.size
    assert det_by_evaluation(gm) == det_exact(gm)


@st.composite
def polynomial_matrices(draw):
    """Square matrices of size 1-5 in one or two variables: sparse entries
    with negative and non-unit coefficients, zero entries included."""
    n = draw(st.integers(1, 5))
    names = draw(st.sampled_from([("d",), ("w",), ("d", "w"), ("x", "z")]))
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    entry = st.dictionaries(exps, st.integers(-4, 4), max_size=3)

    def poly(terms):
        out = Polynomial.zero()
        for e, c in terms.items():
            out = out + Polynomial.monomial(c, dict(zip(names, e)))
        return out

    return [[poly(draw(entry)) for _ in range(n)] for _ in range(n)]


@settings(deadline=None, max_examples=60)
@given(polynomial_matrices())
def test_evaluation_matches_elimination(rows):
    assert det_by_evaluation(rows) == det_exact(rows)


class TestCrossover:
    def test_small_goes_to_elimination(self):
        assert choose_backend(class_matrix_4x4(1)) == "bareiss"
        assert choose_backend([[D, 1], [1, D]]) == "bareiss"

    def test_size_alone_picks_the_route(self):
        # five variables each: only the size decides
        full = assemble_gram(3, GramVariant.MB1_FULL)
        mbn1 = assemble_gram(3, GramVariant.MBN1)
        assert (full.size, mbn1.size) == (35, 15)
        assert choose_backend(full) == "interp"
        assert choose_backend(mbn1) == "bareiss"

    def test_large_univariate_goes_to_interpolation(self, tmp_path):
        gm = get_gram(4, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert gm.size == 56
        assert choose_backend(gm) == "interp"
        # raw rows, with an int entry, route by their size too
        rows = [list(row) for row in gm.entries]
        rows[0][0] = 1
        assert choose_backend(rows) == "interp"


class TestFormulas:
    def test_tilde_via_s_n2(self):
        assert conjecture_formula(ConjectureId.C3_5, 2) == (D * D - 4) * D * D

    def test_tilde_via_t_n2(self):
        expected = Polynomial.univariate("d", {4: 1, 2: -4})  # T_4 - 2
        assert conjecture_formula(ConjectureId.C3_3, 2) == expected

    def test_full_basis_n1(self):
        assert conjecture_formula(ConjectureId.C3_4, 1) == N1_FULL_DET

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            conjecture_formula(ConjectureId.C3_5, 1)
        with pytest.raises(ValueError):
            conjecture_factors(ConjectureId.C3_3, 0)

    def test_expansion_guard(self):
        # expanded only up to the bound of the Gram variant it is compared with
        for conjecture, n in ((ConjectureId.C3_3, 8), (ConjectureId.C3_5, 6),
                              (ConjectureId.C3_4, 5), (ConjectureId.C5_1, 2)):
            with pytest.raises(BoundExceededError):
                conjecture_formula(conjecture, n)

    def test_formula_identity_factorwise(self):
        report = verify_formula_identity()
        assert report.status == "PASS"
        assert report.params["comparison"] == "factorwise"

    def test_value_at_matches_expansion(self):
        point = {"d": 7, "w": 3, "x": -2, "y": 5, "z": -4}
        for cid, n in ((ConjectureId.C3_5, 3), (ConjectureId.C3_4, 2)):
            expanded = conjecture_formula(cid, n)
            assert expanded.evaluate(point) == formula_value_at(cid, n, point)

    def test_whole_band_trailing_blocks(self):
        # the i = 1 trailing block of the whole-band form repeats the
        # substituted-family factors
        n = 3
        factors = conjecture_factors(ConjectureId.C5_1, n)
        tilde = conjecture_factors(ConjectureId.C3_5, n)
        trailing_len = sum(2 * (n - i) for i in range(1, n + 1))
        block_i1 = factors[-trailing_len:][: len(tilde)]
        assert [(str(f), e) for f, e in block_i1] == [(str(f), e) for f, e in tilde]

    def test_whole_band_factors_are_pinned(self):
        digests = {
            1: "8fc442bb1955be2ab1d081fecb66275189cc3108287a24f02509168e926db962",
            2: "509308ed1b618a9ba174218b77e21bd02da322bda5fc906d45e849081520a002",
            3: "678856a9b4db4eab6d8ee8261236fc92e167ec1f68fa71a075a7b8799469a80d",
            4: "8c04338feeee2887f735dee8d6eecc7213cb6b636fa602a13dc74bde473364bf",
            5: "3434d02e5efa4f849e8d5dc980342f20fc909b766ab4db2709e2e56c5acc4e6b",
            6: "1e32f90cbbb24d4b0d4c0aebc052d4b863c6a8a1a3caf107a0ce0ec99a444d67",
        }
        for n, digest in digests.items():
            factors = conjecture_factors(ConjectureId.C5_1, n)
            assert payload_digest([[f.to_json_obj(), e] for f, e in factors]) == digest, n


class TestVerification:
    def test_c3_5_exact_small(self, tmp_path):
        report = verify_conjecture(ConjectureId.C3_5, 2, cache_dir=tmp_path)
        assert report.status == "PASS"
        assert report.backend == "bareiss"

    def test_c3_4_exact_n1(self, tmp_path):
        report = verify_conjecture(ConjectureId.C3_4, 1, cache_dir=tmp_path)
        assert report.status == "PASS"

    def test_c3_4_randomized_matches_exact(self, tmp_path):
        report = verify_conjecture(ConjectureId.C3_4, 2, method="randomized",
                                   seed=7, points=4, cache_dir=tmp_path)
        assert report.status == "PASS"
        assert report.seed == 7
        assert 0 < report.params["failure_bound"] < 2 ** -40

    def test_randomized_independent_of_jobs(self, tmp_path):
        # the points go to at most `jobs` workers in contiguous shares: even
        # and uneven (3 = 2 + 1, 5 = 3 + 2 = 2 + 2 + 1) and a single share
        for points, jobs in ((3, (1, 2)), (5, (1, 2, 3)), (1, (1, 2))):
            reports = [verify_conjecture(ConjectureId.C3_4, 3, method="randomized", seed=11,
                                         points=points, jobs=j, cache_dir=tmp_path)
                       for j in jobs]
            assert {report.canonical_json() for report in reports} == {
                reports[0].canonical_json()}, points
            assert reports[0].status == "PASS"

    def test_randomized_degree_bound_covers_the_formula(self, tmp_path, monkeypatch):
        # a wrong closed form of higher degree than det(G): the stated degree
        # bound and the sample coordinates must cover det - formula
        builder, n_min, variant = gram._FACTOR_BUILDERS[ConjectureId.C3_4]
        monkeypatch.setitem(gram._FACTOR_BUILDERS, ConjectureId.C3_4,
                            (lambda n: builder(n) + [(D, 50)], n_min, variant))
        degree = total_degree_bound(get_gram(2, GramVariant.MB1_FULL, cache_dir=tmp_path)) + 50
        found = verify_conjecture(ConjectureId.C3_4, 2, method="randomized", points=4,
                                  cache_dir=tmp_path)
        assert found.status == "FAIL"
        assert found.params["degree_bound"] == degree
        assert all(abs(v) > degree for v in found.witness["point"].values())

    def test_randomized_needs_a_point(self, tmp_path):
        with pytest.raises(ValueError, match="points >= 1"):
            verify_conjecture(ConjectureId.C3_4, 2, method="randomized", points=0,
                              cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())  # raised before the Gram matrix was built

    def test_c5_1_skipped(self, tmp_path):
        report = verify_conjecture(ConjectureId.C5_1, 3, cache_dir=tmp_path)
        assert report.status == "SKIPPED"

    def test_c5_1_rejects_what_it_would_ignore(self, tmp_path):
        # the method is checked before the SKIPPED report, as for C3_5
        for conjecture in (ConjectureId.C5_1, ConjectureId.C3_5):
            with pytest.raises(ValueError, match=f"{conjecture.value} has no 'bogus' check"):
                verify_conjecture(conjecture, 3, method="bogus", cache_dir=tmp_path)
        # no Gram matrix to sample: the points and the seed would be ignored
        with pytest.raises(ValueError, match="C5_1 has no 'randomized' check"):
            verify_conjecture(ConjectureId.C5_1, 3, method="randomized", points=5, seed=1,
                              cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_theorem_divisibility_n2(self, tmp_path):
        report = verify_theorem_3_6(2, cache_dir=tmp_path)
        assert report.status == "PASS"
        assert report.params["divisor_exponent"] == 2
        quotient = Polynomial.from_json_obj(report.witness["quotient"])
        assert quotient == D * D - 4

    def test_theorem_divisibility_failure_is_a_finding(self, tmp_path):
        # a cached determinant that d^2 does not divide gives FAIL, not an error
        wrong = D ** 4 - 4 * D * D + 1
        cache_write(tmp_path, "det_tilde_2", DET_FORMAT, {
            "n": 2, "variant": "tilde", "backend": "bareiss", "det": wrong.to_json_obj()})
        report = verify_theorem_3_6(2, cache_dir=tmp_path)
        assert report.status == "FAIL"
        assert report.backend == "bareiss"
        assert Polynomial.from_json_obj(report.witness["determinant"]) == wrong

    def test_degree_bound_covers_true_degree(self, tmp_path):
        gm = get_gram(2, GramVariant.MB1_FULL, cache_dir=tmp_path)
        det = det_exact(gm)
        assert det.total_degree() <= total_degree_bound(gm)


class TestCaching:
    def test_gram_cache_roundtrip(self, tmp_path):
        first = get_gram(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert (tmp_path / "gram_tilde_2.json").exists()
        second = get_gram(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert first.entries == second.entries

    @pytest.mark.parametrize("damage", [
        lambda payload: payload["entries"][1].pop(),
        lambda payload: payload["entries"].pop(),
        lambda payload: payload["basis"].__setitem__(0, "(1"),
        lambda payload: payload.pop("entries"),
        lambda payload: payload["entries"][0][0][0].__setitem__(1, -1),
    ], ids=["short-row", "missing-row", "basis-parse-error", "no-entries", "negative-exponent"])
    def test_malformed_gram_payload_is_a_miss(self, tmp_path, damage):
        # digest-valid but malformed: recomputed and rewritten as a fresh run
        # writes it, never passed on
        get_gram(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path / "fresh")
        fresh = (tmp_path / "fresh" / "gram_tilde_2.json").read_bytes()
        gm = assemble_gram(2, GramVariant.MBN1_TILDE)
        payload = gm.to_json_obj()
        damage(payload)
        cache_write(tmp_path, "gram_tilde_2", GRAM_FORMAT, payload)
        assert get_gram(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path).entries == gm.entries
        assert cache_read(tmp_path, "gram_tilde_2", GRAM_FORMAT) == gm.to_json_obj()
        assert (tmp_path / "gram_tilde_2.json").read_bytes() == fresh
        cache_write(tmp_path, "gram_tilde_2", GRAM_FORMAT, payload)
        det, _ = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert det == conjecture_formula(ConjectureId.C3_5, 2)

    @pytest.mark.parametrize("damage", [
        lambda payload: payload.pop("det"),
        lambda payload: payload["det"].__setitem__("format", "mbgram.poly/0"),
        lambda payload: payload["det"]["terms"][0].__setitem__(1, -1),
        lambda payload: payload["det"]["terms"][0].__setitem__(0, 1.5),
        lambda payload: payload["det"]["terms"].append(payload["det"]["terms"][0]),
    ], ids=["no-det", "unknown-det-envelope", "negative-exponent", "float-coefficient",
            "repeated-monomial"])
    def test_malformed_det_payload_is_a_miss(self, tmp_path, damage):
        # digest-valid but malformed: recomputed and rewritten as a cold run writes it
        get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path / "cold")
        cold = (tmp_path / "cold" / "det_tilde_2.json").read_bytes()
        payload = cache_read(tmp_path / "cold", "det_tilde_2", DET_FORMAT)
        damage(payload)
        cache_write(tmp_path / "warm", "det_tilde_2", DET_FORMAT, payload)
        det, provenance = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path / "warm")
        assert det == conjecture_formula(ConjectureId.C3_5, 2)
        assert provenance["cache"] == "miss"
        assert (tmp_path / "warm" / "det_tilde_2.json").read_bytes() == cold

    def test_det_cache_roundtrip(self, tmp_path):
        det1, prov1 = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert prov1["backend"] == "bareiss"
        det2, prov2 = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert det1 == det2
        assert prov2["backend"] == "bareiss"

    def test_det_provenance_reports_cache_state(self, tmp_path):
        _, miss = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert miss["cache"] == "miss" and miss["elapsed_s"] >= 0
        _, hit = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        # a hit costs nothing to recompute, so it carries no stored timing
        assert hit == {"backend": "bareiss", "cache": "hit"}

    def test_det_cache_payload_is_deterministic(self, tmp_path):
        get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        first = (tmp_path / "det_tilde_2.json").read_bytes()
        payload = cache_read(tmp_path, "det_tilde_2", DET_FORMAT)
        assert set(payload) == {"n", "variant", "backend", "det"}
        (tmp_path / "det_tilde_2.json").unlink()
        get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert (tmp_path / "det_tilde_2.json").read_bytes() == first

    def test_full_n2_gram_digest_is_pinned(self, tmp_path):
        # SHA-256 of the canonical JSON of the cached matrix: a change of
        # enumeration order or pairing convention changes it, and must come
        # with a new GRAM_FORMAT so that no stale cached matrix is read
        get_gram(2, GramVariant.MB1_FULL, cache_dir=tmp_path)
        payload = cache_read(tmp_path, "gram_full_2", GRAM_FORMAT)
        assert (GRAM_FORMAT, payload_digest(payload)) == (
            "mbgram.gram/1", "325397881a14b18a7473a401f696ad13c4d26b07c15c53b8f1ac35c11bcfd6d5")

    def test_corrupt_cache_recomputed(self, tmp_path):
        get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        path = tmp_path / "det_tilde_2.json"
        path.write_text(path.read_text().replace('"terms"', '"wrong"', 1))
        det, _ = get_det(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path)
        assert det == Polynomial.univariate("d", {4: 1, 2: -4})


class TestPermutationHelper:
    def test_positive(self):
        a = [[1, 2], [3, 4]]
        b = [[4, 3], [2, 1]]
        assert equal_up_to_simultaneous_permutation(a, b)

    def test_negative(self):
        a = [[1, 2], [3, 4]]
        b = [[1, 2], [4, 3]]
        assert not equal_up_to_simultaneous_permutation(a, b)
