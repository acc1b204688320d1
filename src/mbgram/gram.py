"""Gram matrices of diagram pairings, exact determinants, formula checks.

Three matrix variants over the canonical diagram bases:

    full   pairings over both strata together (zero- then one-crosscap)
    mbn1   pairings over the one-crosscap stratum only
    tilde  mbn1 with y = 0 and w = 1 substituted entrywise

Assembly pairs one cell per orbit of cells.  By the transpose law,
<m_j, m_i> is <m_i, m_j> with x and y exchanged: both orders glue the
same curves with the two sides swapped.  By the rotation lemma (pairing
module docstring), turning both diagrams one boundary step with
diagrams.rotate, r, keeps their pairing.  So one pairing fills the orbit
of (i, j) under (i, j) -> (r(i), r(j)) and the transposed orbit.  The
orbits follow from the indices alone, and one pairing.pair_exponents
call pairs their representatives: 2 231 pairings for the 44 100 cells
of tilde n=5, where pairing every i <= j takes 22 155.  Equal entries
share one immutable Polynomial.

Determinants are always exact.  Two routes, and choose_backend alone
picks between them from the matrix size: fraction free elimination
(intdet.bareiss_int) of the plain integer matrix that one Kronecker
substitution makes of G, for matrices up to 15x15 (det_exact), and the
modular route (det_by_evaluation) for larger ones, in any number of
variables.  The two share intdet.hadamard_bound, the degree bounds and
the graded reduction.  Every Gram matrix has gradings, row and column
potentials that fix the exponents of w and y by that of x, so both
routes work in d, x and z alone (_reduction) and lift w and y back with
one helper (_lifted).  The elimination refuses a packed determinant past
PACKED_BITS_LIMIT bits, and the modular route a box of degree bounds of
more than DENSE_CELLS_LIMIT cells (full n=4, mbn1 n=5), before either
eliminates or evaluates anything.  Both routes are asserted equal
wherever both are feasible.  _pool_map spreads
the engine's primes, and shares of the randomized check's points, over
`jobs` as integer codes and values.

Every entry is a monomial with one variable per glued curve, so few
entries are distinct: 6 of the 44 100 cells of tilde n=5, 44 of the
15 876 of full n=4.  A GramMatrix is stored as those distinct entries,
`values`, and its code matrix, `codes`, the index of every cell's entry
among them; `entries` builds the rows from the two on demand, for
display.  Assembly numbers the entries while it pairs and a cached read
while it parses, each building every distinct entry once (_code_rows).
Every matrix-wide fact is read from the code matrix and the few distinct
entries: the rotation invariance, the symmetry, the degree and norm
bounds, the values at grid and sample points, and the cached JSON.
Every determinant route reads them through _coded, the one place that
tells a GramMatrix from raw rows, which it codes by value.

Both modular routes (the engine and the randomized check's integer
determinants) split G into Fourier blocks under r first: every assembled
Gram matrix satisfies G[r(i)][r(j)] == G[i][j] (rotation lemma), and
intdet.block_plan, given the code matrix and the permutation from
_coded, checks it, since a cached or hand-built matrix need not come from
assembly, and picks the blocks (intdet module docstring).

The engine works block by block.  Each block gets its own degree bound
per variable, the smaller of its row-wise and column-wise sums of entry
degrees (block_degree_bounds); over all blocks these sum to at most G's
own row-wise and column-wise bounds.  Per prime it eliminates every
needed block at each point of one grid, 0..max_k bound_k per variable,
and interpolates each det B_k mod p from the corner 0..bound_k of that
grid (block_polys_mod); intdet.multiply_mod then multiplies the block
polynomials in the order of the plan's factors, into one dense array
over the box of the determinant's degree bounds (the sums of the block
bounds), so that one code path serves three variables and five.  The
primes' products form one table, a row of int64 residues per prime over
the box's cells, and CRT runs on its nonzero columns only, never on
every cell.  The primes exceed
twice the Hadamard bound of the matrix of entry l1 norms, which bounds
every coefficient (proof at det_by_evaluation).  When G equals its
transpose (every tilde and mbn1 matrix at n <= 5, whose entries carry x
and y to equal powers; no full matrix at n <= 4, whose transpose
exchanges x and y), det B_(L-k) = det B_k, so the plan eliminates only
blocks 0..L/2.  At tilde n=5 the grid has 89 points where one grid for
det G itself needed 841.  Full n=3 (35x35, 12 309 terms, 3 primes) has
a grid of 988 points over d, x and z, where five variables needed
15 808, and takes 0.28-0.32 s in-process at jobs 1 on a 2-vCPU Xeon VM
(2.7 s over five variables with the sliced sparse product).

The conjectured closed forms for the determinants are built from the
Chebyshev generators, either fully expanded or as (factor, exponent)
lists; products with tens of thousands of degrees are only ever compared
factorwise.  Verification outcomes are Reports: a formula mismatch is a
finding, never an exception.
"""

from __future__ import annotations

import itertools
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import comb, prod
from typing import Mapping, Sequence

import numpy as np

from mbgram import intdet
from mbgram.chebyshev import _d2m4, cheb_S, cheb_T
from mbgram.diagrams import Stratum, enumerate_stratum, parse_diagram, rotate
from mbgram.errors import BoundExceededError
from mbgram.pairing import bilinear_form, pair_exponents
from mbgram.polynomial import VARIABLES, Polynomial
from mbgram.reporting import Report
from mbgram.storage import cache_read, cache_write, resolve_cache_dir

GRAM_FORMAT = "mbgram.gram/1"
DET_FORMAT = "mbgram.det/1"

TILDE_SUBSTITUTION = {"y": 0, "w": 1}

BAREISS_MAX_SIZE = 15       # crossover: elimination up to this size

# det_exact refuses a packed determinant past this many bits: mbn1 n=3,
# the largest Gram matrix it gets, has 1.1 * 10^5
PACKED_BITS_LIMIT = 1 << 22

# det_by_evaluation refuses a box of degree bounds past this many cells,
# 32 MB of int64 per dense product, and the CRT table holds primes x cells
# int64: mbn1 n=4, the largest Gram matrix it accepts, has 4.72 * 10^5
# cells and 6 primes, a table of 22.7 MB
DENSE_CELLS_LIMIT = 1 << 22

WITNESS_TERM_LIMIT = 120    # serialize full polynomials only up to this size

DEFAULT_SEED = 20230917     # published default for randomized checks


class GramVariant(Enum):
    MB1_FULL = "full"
    MBN1 = "mbn1"
    MBN1_TILDE = "tilde"

    @property
    def strata(self) -> tuple:
        """The strata its basis spans, in basis order."""
        if self is GramVariant.MB1_FULL:
            return (Stratum.ZERO_CROSSCAP, Stratum.ONE_CROSSCAP)
        return (Stratum.ONE_CROSSCAP,)

    def size(self, n: int) -> int:
        return sum(stratum.expected_count(n) for stratum in self.strata)

    def default_bound(self) -> int:
        return 4 if self is GramVariant.MB1_FULL else 5


class ConjectureId(Enum):
    C3_3 = "C3_3"   # tilde determinant as a product of (T_2k - 2) powers
    C3_4 = "C3_4"   # full-basis determinant, five variables
    C3_5 = "C3_5"   # tilde determinant via (d^2-4) and S_{k-1} powers
    C5_1 = "C5_1"   # whole-band determinant (builder only, not verified)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Square array of pairing monomials over an ordered diagram basis,
    stored as its code matrix and distinct entries (_code_rows)."""

    n: int
    variant: GramVariant
    basis: tuple
    codes: np.ndarray  # N x N int64, each cell's index into values (read-only from _code_rows)
    values: tuple      # distinct entries, in row-major order of first occurrence

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def entries(self) -> tuple:
        """The rows of entries, built from codes and values on every call."""
        return tuple(tuple(map(self.values.__getitem__, row)) for row in self.codes.tolist())

    def to_json_obj(self) -> dict:
        cells = [e.to_terms_obj() for e in self.values]
        return {
            "n": self.n,
            "variant": self.variant.value,
            "basis": [m.serialize() for m in self.basis],
            "entries": [[cells[c] for c in row] for row in self.codes.tolist()],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "GramMatrix":
        """Inverse of to_json_obj; each distinct cell is parsed once.  A
        payload that does not rebuild into a square matrix over its basis
        raises ValueError (a malformed basis raises its ParseError)."""
        basis = tuple(parse_diagram(text) for text in obj["basis"])
        cells = [[tuple([tuple(term) for term in cell]) for cell in row] for row in obj["entries"]]
        codes, values = _code_rows(cells, Polynomial.from_terms_obj, len(basis))
        return cls(n=int(obj["n"]), variant=GramVariant(obj["variant"]),
                   basis=basis, codes=codes, values=values)


def _code_rows(rows: list, build, size: int) -> tuple:
    """(codes, values) of a size x size matrix given as one hashable key
    per cell; rows of any other length raise ValueError.

    build(key) makes a key's entry, once per distinct key.  Keys whose
    entries are equal share one code (two exponent vectors under the
    tilde substitution), so values holds the distinct entries, numbered
    in row-major order of first occurrence.  The codes come read-only.
    """
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError(f"matrix must be square, {size}x{size}")
    index: dict = {}  # entry value -> (its code, the entry)
    code_of = {}      # key -> its code
    for key in dict.fromkeys(itertools.chain.from_iterable(rows)):
        entry = build(key)
        code_of[key] = index.setdefault(frozenset(entry.terms.items()), (len(index), entry))[0]
    codes = np.fromiter(map(code_of.__getitem__, itertools.chain.from_iterable(rows)),
                        dtype=np.int64, count=size * size).reshape(size, size)
    codes.setflags(write=False)
    return codes, tuple(e for _, e in index.values())


def gram_basis(n: int, variant: GramVariant) -> list:
    return [m for stratum in variant.strata for m in enumerate_stratum(n, stratum)]


def rotation_permutation(basis: Sequence) -> list:
    """perm[i], the index of rotate(basis[i]) in the basis; the identity
    when the rotation does not map the basis onto itself."""
    index = {m: i for i, m in enumerate(basis)}
    perm = [index.get(rotate(m)) for m in basis]
    return perm if set(perm) == set(range(len(basis))) else list(range(len(basis)))


def assemble_gram(n: int, variant: GramVariant) -> GramMatrix:
    """Pairing matrix over the canonical basis; tilde substitutes y=0, w=1.

    The first unfilled cell i <= j in row-major order represents its
    orbit under (i, j) -> (r(i), r(j)), r = rotation_permutation(basis),
    which keeps the pairing (rotation lemma, pairing module docstring), and
    with x and y exchanged the transposed orbit (transpose law).  Both
    sets are closed under r, so the walk that marks them stops at the
    first marked cell having marked them all.  The orbits come from the
    indices alone; one pairing.pair_exponents call then pairs every
    representative, and each cell takes its representative's value or
    the swapped one.  With r the identity the representatives are every
    cell i <= j.
    """
    limit = variant.default_bound()
    if n > limit:
        raise BoundExceededError(f"n={n} exceeds bound {limit} for {variant.value}")
    basis = gram_basis(n, variant)
    size = len(basis)
    perm = rotation_permutation(basis)
    reps = []  # (i, j) of the k-th orbit's first cell; its cells hold 2k, transposed 2k + 1
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if rows[i][j] is not None:
                continue
            slot, swapped = 2 * len(reps), 2 * len(reps) + 1
            reps.append((i, j))
            a, b = i, j
            while rows[a][b] is None:
                rows[b][a], rows[a][b] = swapped, slot
                a, b = perm[a], perm[b]
    exps, unclassified = pair_exponents(basis, basis, reps)
    if unclassified.any():
        i, j = reps[int(np.argmax(unclassified))]
        bilinear_form(basis[i], basis[j])  # raises, naming the cycle's sweep
    numbers: dict = {}  # exponent vector -> its number, in pairing order
    slots = []          # slot -> the number of its exponent vector
    for d, w, x, y, z in exps.tolist():
        swapped = numbers.setdefault((d, w, y, x, z), len(numbers))
        slots += (numbers.setdefault((d, w, x, y, z), len(numbers)), swapped)
    for row in rows:
        row[:] = map(slots.__getitem__, row)
    substitution = TILDE_SUBSTITUTION if variant is GramVariant.MBN1_TILDE else {}
    entries = [Polynomial({vector: 1}).substitute(substitution) for vector in numbers]
    return GramMatrix(n, variant, tuple(basis), *_code_rows(rows, entries.__getitem__, size))


# -- determinant backends -----------------------------------------------------


def _coded(matrix) -> tuple:
    """(codes, entries, perm) of a GramMatrix (its own codes, values and
    rotation_permutation) or of raw rows (_code_rows keyed by value, ints
    as constants, perm None); rows that are not square raise ValueError.
    The one place a determinant route tells the two apart."""
    if isinstance(matrix, GramMatrix):
        return matrix.codes, matrix.values, rotation_permutation(matrix.basis)
    keys = [[frozenset((Polynomial.integer(e) if isinstance(e, int) else e).terms.items())
             for e in row] for row in matrix]
    return (*_code_rows(keys, lambda terms: Polynomial(dict(terms)), len(keys)), None)


def _pool_map(fn, args: list, jobs: int) -> list:
    """map(fn, args) over `jobs` processes; the results do not depend on jobs."""
    if jobs <= 1 or len(args) < 2:
        return list(map(fn, args))
    with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
        return list(pool.map(fn, args))


def gradings(codes: np.ndarray, entries: Sequence) -> tuple | None:
    """(a, b), a[i] the one value of deg_x + deg_w over the terms of the
    nonzero entries of row i and b[j] the one value of deg_y + deg_w over
    those of column j, or None when some row or column has two; codes and
    entries as from _coded.  A row or column with no nonzero entry gets 0.

    Every Gram matrix assemble_gram builds has them (full n <= 4, mbn1
    and tilde n <= 5).  When they exist, every term of
    det G = sum_s sign(s) prod_i G[i][s(i)] has deg_x + deg_w = A = sum(a)
    and deg_y + deg_w = B = sum(b), as each product takes one entry from
    every row and one from every column; so do the terms of every minor,
    with the sums over its rows and columns.  A term is then fixed by its
    exponents of d, x and z, with w = A - x and y = B - A + x, and
    substituting w = y = 1, a ring homomorphism, maps det G one to one
    onto det G(w = y = 1).  Within one entry G[i][j] w = a[i] - x and
    y = b[j] - a[i] + x are fixed by x, so no two terms of an entry merge
    and the substitution keeps every entry's l1 norm.
    """
    x_w, y_w = [], []  # per distinct entry, its one grade, or -1 for zero
    for entry in entries:
        rows = {e[1] + e[2] for e in entry.terms}
        columns = {e[1] + e[3] for e in entry.terms}
        if len(rows) > 1 or len(columns) > 1:
            return None
        x_w.append(rows.pop() if rows else -1)
        y_w.append(columns.pop() if columns else -1)

    def grades(cells: np.ndarray):
        """Each row's one grade over its nonzero cells, or None."""
        top = cells.max(axis=1, initial=-1)
        if not ((cells == top[:, None]) | (cells < 0)).all():
            return None
        return tuple(np.maximum(top, 0).tolist())

    a, b = grades(np.array(x_w)[codes]), grades(np.array(y_w)[codes].T)
    return None if a is None or b is None else (a, b)


def _reduction(codes: np.ndarray, entries: Sequence, plan: intdet.BlockPlan) -> tuple:
    """(gradings or None, variables, block_degree_bounds under the plan)
    of both determinant routes: d, x and z when the matrix has gradings
    (w = y = 1, lifted back by _lifted), all five otherwise."""
    graded = gradings(codes, entries)
    variables = [v for v in VARIABLES if graded is None or v not in ("w", "y")]
    return graded, variables, block_degree_bounds(codes, entries, plan, variables)


def det_exact(matrix) -> Polynomial:
    """Fraction-free elimination (intdet.bareiss_int) of one integer
    matrix, the image phi(G) of G under a Kronecker substitution (von zur
    Gathen & Gerhard, Modern Computer Algebra, 8.4), read back as balanced
    digits.

    phi works in d, x and z when G has gradings (w = y = 1, lifted back
    term by term afterwards), in all five variables otherwise.  Each
    variable gets its bound from block_degree_bounds under the one-block
    plan intdet.block_plan(codes), and the box of those bounds is laid out
    in C order with the largest bound varying fastest, so that the
    entries' images stay short: on a 2-vCPU Xeon VM mbn1 n=3 took 0.15 s
    this way against 1.5-1.8 s with d or x varying slowest, and full n=2
    0.011 s against up to 0.076 s.  phi sends c m to c B^offset(m),
    B = 2^(8 nb), nb the fewest whole bytes that hold the bits of 2 bound,
    bound the intdet.hadamard_bound of the entry l1 norms; it is a ring
    homomorphism to Z.

    Proof.  Let M be G or a minor of it.  Its terms lie in the box: a
    determinant's degree in a variable is at most both its row-wise and
    its column-wise sums of largest entry degrees, and as entry degrees
    are >= 0 a minor's sums are at most G's.  Its coefficients are below
    bound: the Hadamard bound covers every coefficient (proof at
    det_by_evaluation), and dropping rows and columns does not raise it,
    as a nonzero integer row has l1 norm >= 1.  So they are below B / 2,
    the balanced digits of phi(M), one per cell, are M's coefficients
    (_balanced_digits), and phi(M) = 0 only when M = 0.
    bareiss_int is exact on every integer matrix and returns det phi(G) =
    phi(det G); by Sylvester's identity each of its pivots and interior
    entries is +-phi of a minor, so none outgrows the packed determinant,
    8 nb (cells of the box) bits.  A matrix whose packed determinant would
    exceed PACKED_BITS_LIMIT raises BoundExceededError before anything is
    eliminated, and one with a zero row (bound 0) gives 0 at once.  With
    gradings the substitution w = y = 1 loses nothing (proof at gradings),
    and a lifted exponent below 0 would raise ValueError.
    """
    codes, entries, _ = _coded(matrix)
    if not codes.size:
        return Polynomial.one()
    bound = intdet.hadamard_bound(codes, [sum(map(abs, e.terms.values())) for e in entries])
    if bound == 0:
        return Polynomial.zero()
    graded, variables, (block_bounds,) = _reduction(codes, entries, intdet.block_plan(codes))
    bounds = dict(zip(variables, block_bounds))
    axes = sorted(variables, key=bounds.__getitem__)  # C order: the largest bound fastest
    box = tuple(bounds[v] + 1 for v in axes)
    cells, nb = prod(box), ((2 * bound).bit_length() + 7) // 8
    bits = 8 * nb * cells
    if bits > PACKED_BITS_LIMIT:
        raise BoundExceededError(f"packed determinant has {bits} bits, more than "
                                 f"{PACKED_BITS_LIMIT}: too large for elimination")
    index = [VARIABLES.index(v) for v in axes]
    strides = [prod(box[t + 1:]) for t in range(len(box))]

    def packed(entry: Polynomial) -> int:
        slots = {sum(e[i] * s for i, s in zip(index, strides)): c for e, c in entry.terms.items()}
        digits = [0] * (max(slots, default=0) + 1)
        for offset, c in slots.items():
            digits[offset] = c
        return _to_int(digits, nb)

    images = [packed(e) for e in entries]
    det = intdet.bareiss_int([[images[c] for c in row] for row in codes.tolist()])
    coefficients = _balanced_digits(*_slot_digits(det, cells, nb))
    offsets = [k for k, c in enumerate(coefficients) if c]
    return _lifted(offsets, [coefficients[k] for k in offsets], axes, box, graded)


def _to_int(cs: list, nb: int) -> int:
    """sum cs[i] * 2^(8 nb i), every |cs[i]| below 2^(8 nb), built by
    int.from_bytes: no strings, so the interpreter's limit on integer
    string digits never applies."""
    zero = bytes(nb)
    pos = b"".join(c.to_bytes(nb, "little") if c > 0 else zero for c in cs)
    neg = b"".join((-c).to_bytes(nb, "little") if c < 0 else zero for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _slot_digits(value: int, n: int, nb: int) -> tuple:
    """(negative, digits, base) of an int below 2^(8 nb n) in absolute
    value: whether it is negative, and the n digits of its absolute value
    in base 2^(8 nb), low first, read by int.to_bytes."""
    buf = abs(value).to_bytes(n * nb, "little")
    from_bytes = int.from_bytes
    digits = [from_bytes(buf[i:i + nb], "little") for i in range(0, n * nb, nb)]
    return value < 0, digits, 1 << 8 * nb


def _balanced_digits(negative: bool, digits: list, base: int) -> list:
    """The balanced digits (-base / 2 < digit <= base / 2), low first, of
    the number with the given sign whose absolute value has the given
    ordinary digits, low first: each digit above base / 2, carry included,
    is lowered by base and passes a carry of one up.

    They are unique: where two such digit lists of one number first
    differ, the two digits differ by a nonzero multiple of base, yet by
    less than base.  So P = sum c_k base^k with every |c_k| < base / 2
    over n slots, for which |P| < base^n / 2 has n ordinary digits, reads
    back as the c_k, and no carry leaves the top.
    """
    half = base // 2
    out = []
    carry = 0
    for v in digits:
        v += carry
        carry = v > half
        if carry:
            v -= base
        out.append(v)
    return [-v for v in out] if negative else out


def _lifted(offsets: list, coefficients: list, axes: Sequence[str], box: tuple,
            graded: tuple | None) -> Polynomial:
    """The polynomial with the given coefficients at the C-order offsets
    in a box whose axes are the named variables; with gradings (a, b)
    (gradings), the box holds d, x and z, and each term gets w = sum(a) - x
    and y = sum(b) - sum(a) + x.  Both determinant routes read their
    result back through it."""
    exponents = np.zeros((len(offsets), len(VARIABLES)), dtype=np.int64)
    exponents[:, [VARIABLES.index(v) for v in axes]] = np.array(
        np.unravel_index(np.array(offsets, dtype=np.int64), box)).T
    if graded is not None:
        a, b = map(sum, graded)
        x = exponents[:, VARIABLES.index("x")]
        exponents[:, VARIABLES.index("w")] = a - x
        exponents[:, VARIABLES.index("y")] = b - a + x
    return Polynomial(dict(zip(map(tuple, exponents.tolist()), coefficients)))


def block_degree_bounds(codes: np.ndarray, entries: list, plan: intdet.BlockPlan,
                        variables: Sequence[str]) -> list:
    """Per block k of the plan (intdet.block_plan), a bound on the degree
    of det B_k in each variable, in the order given; codes and entries as
    from _coded.

    Entry B_k[a][b] is a combination of G[rep_a][j] over the members j of
    orbit b, so its degree is at most their largest, D[a][b].  A
    determinant's degree is at most the sum over its rows of their largest
    entry degree, and likewise over its columns; the bound is the smaller
    sum.  Zero entries count as degree 0.
    """
    # per variable, the degree of every cell of the representatives' rows
    degrees = np.array([[max(e.degree_in(var), 0) for var in variables] for e in entries]).T
    cells = degrees[:, codes[[orbit[0] for orbit in plan.orbits]]]
    # per variable, D[a][b]
    orbit_degrees = np.stack([cells[:, :, list(orbit)].max(axis=2) for orbit in plan.orbits],
                             axis=2)

    def bound(block: tuple, degrees: np.ndarray) -> int:
        sub = degrees[np.ix_(block, block)]
        return int(min(sub.max(axis=1, initial=0).sum(), sub.max(axis=0, initial=0).sum()))

    return [tuple(bound(block, degrees) for degrees in orbit_degrees) for block in plan.blocks]


def block_polys_mod(values: list, codes: np.ndarray, plan: intdet.BlockPlan,
                    block_bounds: list, p: int) -> dict:
    """{k: det B_k mod p} for each distinct k of the plan's factors
    (intdet.block_plan), each an int64 array of coefficients, lowest degree
    first along each axis, over its own corner 0..block_bounds[k] of the
    grid.  codes[i][j] names G_ij, block_bounds[k] bounds det B_k's degree
    per axis (block_degree_bounds), and values[g][e] is distinct entry e
    at point g of the grid 0..max_k block_bounds[k] per axis, C order."""
    grid_shape = tuple(max(b) + 1 for b in zip(*(block_bounds[k] for k in plan.factors)))
    residues = np.array([[v % p for v in point] for point in values], dtype=np.int64)
    polys = intdet.block_dets_mod(residues, codes, plan, np.full(len(residues), p))
    for k, block_dets in polys.items():
        coeffs = block_dets.reshape(grid_shape)[tuple(slice(b + 1) for b in block_bounds[k])]
        for axis in np.flatnonzero(block_bounds[k]):  # a bound-0 axis holds its constant
            coeffs = intdet.interpolate_mod(coeffs, p, axis)
        polys[k] = coeffs
    return polys


def _det_mod(values: list, codes: np.ndarray, plan: intdet.BlockPlan, block_bounds: list,
             box: tuple, p: int) -> np.ndarray:
    """det G mod p over the box, one prime's task of det_by_evaluation:
    the block polynomials multiplied in the order of the plan's factors."""
    polys = block_polys_mod(values, codes, plan, block_bounds, p)
    return intdet.multiply_mod([polys[k] for k in plan.factors], p, box)


def det_by_evaluation(matrix, jobs: int = 1) -> Polynomial:
    """Determinant by the modular algorithm (von zur Gathen & Gerhard, ch. 5).

    G splits into the blocks B_k, k = 0..L-1, of its intdet.block_plan
    under the rotation (the identity's for raw rows), with
    det G = prod_k det B_k mod every prime p = 1 (mod L) (intdet module
    docstring).  The matrix is read through its code matrix, distinct
    entries and rotation (_coded): the norms, the gradings, the degree
    bounds and the plan come from them.  The engine works in det_exact's
    variables (_reduction): d, x and z with w = y = 1 when G has
    gradings, which loses nothing and keeps every entry's l1 norm (proof
    at gradings), all five otherwise.  Each distinct entry is evaluated
    once per point of one grid, 0..max_k bound_k in each of those
    variables, the bounds from block_degree_bounds; a variable no entry
    holds has bound 0, one grid point and one cell of the box.  Each
    prime is one task (_det_mod): eliminate the plan's blocks at every
    grid point and interpolate each det B_k from the corner 0..bound_k of
    the grid (block_polys_mod), then multiply the block polynomials in the
    order of the plan's factors (intdet.multiply_mod, which places each
    in the box of the sums of the block bounds, so one code path serves
    every matrix) and return the product's dense residues over the box.
    The calling process stacks them into one table, a row per prime and a
    column per cell, and CRTs each column with a nonzero residue only: a
    zero in such a column is a coefficient that vanishes mod that prime.
    Then it lifts w and y back (_lifted).

    A box of more than DENSE_CELLS_LIMIT cells raises BoundExceededError
    before any entry is evaluated: multiply_mod holds the product as one
    int64 array over the box, the table holds one per prime, and a box
    that large (graded full n=4 has 7.45 * 10^6 cells, mbn1 n=5
    4.72 * 10^7) is past what the grid and the primes can afford too.

    The plan's factors list the blocks: when G equals its transpose (its
    code matrix does), det B_(L-k) = det B_k (proof at
    intdet.block_plan), so only blocks 0..L/2 are eliminated and each
    0 < k < L/2 is counted twice; a matrix that is not symmetric gets
    every block.

    The primes exceed twice intdet.hadamard_bound of the entry norms
    N_ij = ||G_ij||_1, the sums of absolute coefficients.  Proof: on the
    unit torus |G_ij(zeta)| <= N_ij, so by Hadamard's inequality
    |det G(zeta)| <= prod_i (sum_j N_ij^2)^(1/2); each coefficient of
    det G is the torus mean of det G(zeta) zeta^(-alpha), so the same
    bound covers every coefficient.
    """
    codes, entries, perm = _coded(matrix)
    if not codes.size:
        return Polynomial.one()
    # every coefficient's bound (docstring); 0 means a zero row
    bound = intdet.hadamard_bound(codes, [sum(map(abs, e.terms.values())) for e in entries])
    if bound == 0:
        return Polynomial.zero()
    plan = intdet.block_plan(codes, perm)
    graded, variables, block_bounds = _reduction(codes, entries, plan)
    # per variable: the largest bound of a needed block, and their sum
    per_variable = list(zip(*(block_bounds[k] for k in plan.factors)))
    grid_shape = tuple(max(bounds) + 1 for bounds in per_variable)
    box = tuple(sum(bounds) + 1 for bounds in per_variable)
    if prod(box) > DENSE_CELLS_LIMIT:
        raise BoundExceededError(f"box of degree bounds has {prod(box)} cells, more than "
                                 f"{DENSE_CELLS_LIMIT}: too large for the exact route "
                                 "(randomized checks cover it)")
    grid = ({"w": 1, "y": 1, **dict(zip(variables, point))}
            for point in itertools.product(*map(range, grid_shape)))
    values = [[e.evaluate(point) for e in entries] for point in grid]
    primes = intdet.primes_for(bound, plan.order)
    # a row of residues per prime, a column per cell of the box
    table = np.stack(_pool_map(partial(_det_mod, values, codes, plan, block_bounds, box),
                               primes, jobs)).reshape(len(primes), -1)
    offsets = np.flatnonzero(table.any(axis=0))
    table = table[:, offsets]  # the nonzero columns only, each CRT'd once
    return _lifted(offsets, [intdet.crt(column, primes) for column in table.T.tolist()],
                   variables, box, graded)


def choose_backend(matrix) -> str:
    """Crossover rule between the two determinant backends: integer
    elimination at one Kronecker point ("bareiss", det_exact) up to
    BAREISS_MAX_SIZE rows, the modular engine ("interp",
    det_by_evaluation) above, in any number of variables."""
    size = matrix.size if isinstance(matrix, GramMatrix) else len(matrix)
    return "bareiss" if size <= BAREISS_MAX_SIZE else "interp"


# -- cached assembly and determinants ------------------------------------------


def get_gram(n: int, variant: GramVariant, cache_dir=None) -> GramMatrix:
    cache_dir = resolve_cache_dir(cache_dir)
    key = f"gram_{variant.value}_{n}"
    payload = cache_read(cache_dir, key, GRAM_FORMAT)
    if payload is not None:
        try:
            gm = GramMatrix.from_json_obj(payload)
            if gm.n == n and gm.variant is variant and gm.size == variant.size(n):
                return gm
        except (KeyError, TypeError, ValueError):
            pass  # a malformed payload is a miss, like any mismatch
    gm = assemble_gram(n, variant)
    cache_write(cache_dir, key, GRAM_FORMAT, gm.to_json_obj())
    return gm


def get_det(n: int, variant: GramVariant, cache_dir=None, jobs: int = 1) -> tuple:
    """(determinant, provenance) with disk caching; choose_backend picks the route.

    The cached payload holds only what the computation determines, so two
    runs write the same bytes; the wall time is reported on a miss only.
    A payload that does not parse is a miss and is rewritten.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    key = f"det_{variant.value}_{n}"
    payload = cache_read(cache_dir, key, DET_FORMAT)
    if payload is not None:
        try:
            if payload["n"] == n:
                return (Polynomial.from_json_obj(payload["det"]),
                        {"backend": payload["backend"], "cache": "hit"})
        except (AttributeError, KeyError, TypeError, ValueError):
            pass  # a malformed payload is a miss, like any mismatch
    gm = get_gram(n, variant, cache_dir=cache_dir)
    backend = choose_backend(gm)
    started = time.perf_counter()
    det = det_exact(gm) if backend == "bareiss" else det_by_evaluation(gm, jobs=jobs)
    elapsed = time.perf_counter() - started
    cache_write(cache_dir, key, DET_FORMAT, {
        "n": n,
        "variant": variant.value,
        "backend": backend,
        "det": det.to_json_obj(),
    })
    return det, {"backend": backend, "cache": "miss", "elapsed_s": elapsed}


# -- conjectured closed forms ---------------------------------------------------


def _tilde_factors_via_t(n: int) -> list:
    return [(cheb_T(2 * k) - 2, comb(2 * n, n - k)) for k in range(2, n + 1)]


def _tilde_factors_via_s(n: int, first: int = 2) -> list:
    """(d^2-4)^C S_(k-1)^(2C), C = C(2n, n-k), for k = first..n."""
    out = []
    for k in range(first, n + 1):
        e = comb(2 * n, n - k)
        out.append((_d2m4(), e))
        out.append((cheb_S(k - 1), 2 * e))
    return out


def _full_basis_factors(n: int) -> list:
    d = Polynomial.variable("d")
    w = Polynomial.variable("w")
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    z = Polynomial.variable("z")
    head = (d - z) * ((d + z) * w - 2 * x * y)
    out = [(head, comb(2 * n, n - 1))]
    for k in range(2, n + 1):
        e = comb(2 * n, n - k)
        t = cheb_T(k)
        out.append((t * t - z * z, e))
    out.extend(_tilde_factors_via_s(n))
    return out


def _whole_band_factors(n: int) -> list:
    """Closed form for the whole-band determinant (builder only).

    The trailing blocks are read as prod_{k=i+1}^{n} of the same
    (d^2-4)^C S_{k-1}^{2C} pattern as the tilde formula, one block per
    crosscap-curve count i = 1..n.
    """
    d = Polynomial.variable("d")
    w = Polynomial.variable("w")
    x = Polynomial.variable("x")
    z = Polynomial.variable("z")
    y = Polynomial.variable("y")
    out = []
    for k in range(1, n + 1):
        e = comb(2 * n, n - k)
        t_d = cheb_T(k)
        t_w = t_d.substitute({"d": w})
        sign = -1 if k % 2 else 1
        out.append((t_d + sign * z, e))
        if k % 2:
            out.append(((t_d - sign * z) * t_w - 2 * x * y, e))
        else:
            out.append(((t_d - sign * z) * t_w - 2 * (2 - z), e))
    for i in range(1, n + 1):
        out.extend(_tilde_factors_via_s(n, i + 1))
    return out


# rows: (builder, smallest n, the Gram variant whose determinant it gives)
_FACTOR_BUILDERS: dict = {
    ConjectureId.C3_3: (_tilde_factors_via_t, 2, GramVariant.MBN1_TILDE),
    ConjectureId.C3_4: (_full_basis_factors, 1, GramVariant.MB1_FULL),
    ConjectureId.C3_5: (_tilde_factors_via_s, 2, GramVariant.MBN1_TILDE),
    ConjectureId.C5_1: (_whole_band_factors, 1, None),
}


def _builder(conjecture: ConjectureId, n: int) -> tuple:
    """(builder, Gram variant) of the conjecture; an n below its smallest
    raises ValueError."""
    builder, n_min, variant = _FACTOR_BUILDERS[conjecture]
    if n < n_min:
        raise ValueError(f"{conjecture.value} needs n >= {n_min}, got {n}")
    return builder, variant


def conjecture_factors(conjecture: ConjectureId, n: int) -> list:
    """Closed form as a list of (polynomial factor, exponent) pairs."""
    return _builder(conjecture, n)[0](n)


def conjecture_formula(conjecture: ConjectureId, n: int) -> Polynomial:
    """Closed form expanded to a canonical polynomial.

    Expanded only up to the bound of its Gram variant, the largest n whose
    matrix can be assembled to compare against; a conjecture without one
    (C5_1) is never expanded.  The exponents grow binomially with n, and
    factorwise comparison (conjecture_factors) covers the larger ranges.
    """
    variant = _FACTOR_BUILDERS[conjecture][2]
    limit = 0 if variant is None else variant.default_bound()
    if n > limit:
        raise BoundExceededError(
            f"expanded {conjecture.value} at n={n} exceeds bound {limit} "
            "(compare factors instead)")
    result = Polynomial.one()
    for factor, exponent in conjecture_factors(conjecture, n):
        result = result * factor ** exponent
    return result


def formula_value_at(conjecture: ConjectureId, n: int, point: Mapping[str, int]) -> int:
    """Exact integer value of the closed form at a point, without expanding."""
    value = 1
    for factor, exponent in conjecture_factors(conjecture, n):
        value *= factor.evaluate(point) ** exponent
    return value


# -- verification drivers ---------------------------------------------------------


def _witness_poly(p: Polynomial) -> dict:
    if p.num_terms() <= WITNESS_TERM_LIMIT:
        return p.to_json_obj()
    lead_exps, lead_coef = p.leading_term()
    return {
        "summary": True,
        "num_terms": p.num_terms(),
        "total_degree": p.total_degree(),
        "leading": [lead_coef, *lead_exps],
    }


def total_degree_bound(gm: GramMatrix) -> int:
    """Upper bound on the total degree of det(G): rowwise max entry degrees."""
    degrees = np.array([max(e.total_degree(), 0) for e in gm.values])
    return int(degrees[gm.codes].max(axis=1, initial=0).sum())


def verify_conjecture(conjecture: ConjectureId, n: int, method: str = "exact",
                      seed: int | None = None, points: int = 20,
                      jobs: int = 1, cache_dir=None) -> Report:
    """Compare a Gram determinant against its conjectured closed form.

    method="exact": both sides as canonical polynomials, structural
    equality.  method="randomized": equality of exact integer values at
    `points` seeded sample points whose coordinates exceed a bound on
    the total degree of det - formula (the larger of total_degree_bound
    and the closed form's degree); the report states that bound and the
    resulting failure bound.  A mismatch is a first-class finding (FAIL
    with witness), not an error.  A randomized check needs `points` >= 1;
    fewer, and an n below the closed form's smallest, raise ValueError
    before any work is done.
    """
    variant = _builder(conjecture, n)[1]
    if method not in ("exact", "randomized") or (method == "randomized" and variant is None):
        raise ValueError(f"{conjecture.value} has no {method!r} check")
    if method == "randomized" and points < 1:
        raise ValueError(f"randomized check needs points >= 1, got {points}")
    if variant is None:
        return Report(
            claim=conjecture.value, tag="conjecture", status="SKIPPED",
            params={"n": n},
            notes=["builder only: verifying the whole-band determinant needs "
                   "pairings of diagrams with several crosscap curves"])
    if method == "exact":
        det, provenance = get_det(n, variant, cache_dir=cache_dir, jobs=jobs)
        formula = conjecture_formula(conjecture, n)
        status = "PASS" if det == formula else "FAIL"
        witness = None
        if status == "FAIL":
            witness = {"determinant": _witness_poly(det),
                       "formula": _witness_poly(formula),
                       "difference": _witness_poly(det - formula)}
        return Report(
            claim=conjecture.value, tag="conjecture", status=status,
            params={"n": n, "variant": variant.value, "size": variant.size(n),
                    "method": "exact"},
            witness=witness, backend=provenance["backend"])

    gm = get_gram(n, variant, cache_dir=cache_dir)
    codes, entries, perm = _coded(gm)
    formula_degree = sum(f.total_degree() * e for f, e in conjecture_factors(conjecture, n))
    degree_bound = max(total_degree_bound(gm), formula_degree)
    seed = DEFAULT_SEED if seed is None else seed
    rng = random.Random(seed)
    # Coordinates must exceed the degree bound; beyond that, keep them small
    # enough that evaluated entries stay within about 2^60 (each bit of the
    # entries costs the integer determinant primes, through its Hadamard
    # bound) while the sample space still beats 2^-40.
    entry_degree = max((e.total_degree() for e in entries if not e.is_zero()), default=1)
    int64_cap = int(2 ** (60 / max(entry_degree, 1))) - degree_bound - 2
    # the lower clamp keeps the sample space large, even where it forces
    # entries past 2^60
    magnitude = max(min(2 ** 20, int64_cap), 8 * degree_bound)
    sample_size = 2 * magnitude  # signed magnitudes above the degree bound
    failure_bound = (degree_bound / sample_size) ** points

    def coordinate() -> int:
        mag = rng.randint(degree_bound + 1, degree_bound + magnitude)
        return mag if rng.random() < 0.5 else -mag

    sample = [{var: coordinate() for var in VARIABLES} for _ in range(points)]
    values = [[e.evaluate(point) for e in entries] for point in sample]
    size = -(-points // jobs)  # at most `jobs` contiguous shares
    shares = [values[start:start + size] for start in range(0, points, size)]
    det_of_shares = partial(intdet.int_det, codes, plan=intdet.block_plan(codes, perm))
    det_values = list(itertools.chain.from_iterable(_pool_map(det_of_shares, shares, jobs)))
    for point, det_value in zip(sample, det_values):
        formula_value = formula_value_at(conjecture, n, point)
        if det_value != formula_value:
            return Report(
                claim=conjecture.value, tag="conjecture", status="FAIL",
                params={"n": n, "variant": variant.value, "method": "randomized",
                        "points": points, "degree_bound": degree_bound},
                witness={"point": point, "determinant_value": str(det_value),
                         "formula_value": str(formula_value)},
                backend="randomized", seed=seed)
    return Report(
        claim=conjecture.value, tag="conjecture", status="PASS",
        params={"n": n, "variant": variant.value, "size": gm.size,
                "method": "randomized", "points": points,
                "degree_bound": degree_bound, "failure_bound": failure_bound},
        backend="randomized", seed=seed)


def verify_theorem_3_6(n: int, jobs: int = 1, cache_dir=None) -> Report:
    """Exact divisibility of the tilde determinant by d^(2 C(2n, n-2)).

    S_1 = d, so the claimed divisor S_1^{2k} with k = C(2n, n-2) is the
    pure power d^{2k}; the check divides exactly and stores the quotient.
    """
    if n < 2:
        raise ValueError(f"divisibility check needs n >= 2, got {n}")
    det, provenance = get_det(n, GramVariant.MBN1_TILDE, cache_dir=cache_dir, jobs=jobs)
    k = comb(2 * n, n - 2)
    divisor = Polynomial.monomial(1, {"d": 2 * k})
    quotient = det.divide_exact(divisor)
    status = "PASS" if quotient is not None else "FAIL"
    witness = ({"quotient": _witness_poly(quotient)} if quotient is not None
               else {"determinant": _witness_poly(det)})
    return Report(
        claim="Thm3_6", tag="divisibility", status=status,
        params={"n": n, "divisor_exponent": 2 * k},
        witness=witness, backend=provenance["backend"])


def verify_formula_identity() -> Report:
    """Structural equality of the two tilde closed forms, factor by factor,
    for n = 2..8.

    For each n the two factor lists pair up per index k; equality of the
    paired factors (as expanded small polynomials) with equal exponents
    implies equality of the full products, which themselves would have
    degree tens of thousands at n = 8.
    """
    for n in range(2, 9):
        via_t = conjecture_factors(ConjectureId.C3_3, n)
        via_s = conjecture_factors(ConjectureId.C3_5, n)
        for idx, (t_factor, t_exp) in enumerate(via_t):
            d2m4, e1 = via_s[2 * idx]
            s_factor, e2 = via_s[2 * idx + 1]
            combined = d2m4 * s_factor * s_factor
            if not (t_exp == e1 and 2 * e1 == e2 and combined == t_factor):
                return Report(
                    claim="C3_3==C3_5", tag="formula-identity", status="FAIL",
                    params={"at": [n, idx]},
                    witness={"lhs": t_factor.to_json_obj(),
                             "rhs": combined.to_json_obj(),
                             "exponents": [t_exp, e1, e2]})
    return Report(
        claim="C3_3==C3_5", tag="formula-identity", status="PASS",
        params={"n_range": [2, 8], "comparison": "factorwise"})


# -- small fixtures ---------------------------------------------------------------


def class_matrix_4x4(u) -> list:
    """Pairing pattern of four connections differing only in two arcs.

    Rows and columns index the four ways of attaching two arcs to four
    shared fixed points (swapping which arc meets the crosscap); all
    other curves contribute the common monomial u.
    """
    u = Polynomial.integer(u) if isinstance(u, int) else u
    d = Polynomial.variable("d")
    zero = Polynomial.zero()
    du = d * u
    return [
        [du, zero, u, u],
        [zero, du, u, u],
        [u, u, du, zero],
        [u, u, zero, du],
    ]


def equal_up_to_simultaneous_permutation(a: list, b: list) -> bool:
    """True iff P a P^T == b for some permutation P (small sizes only)."""
    n = len(a)
    if len(b) != n:
        return False
    for perm in itertools.permutations(range(n)):
        if all(a[perm[i]][perm[j]] == b[i][j] for i in range(n) for j in range(n)):
            return True
    return False
