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
of (i, j) under (i, j) -> (r(i), r(j)) and the transposed orbit: 2 231
pairings for the 44 100 cells of tilde n=5, where pairing every i <= j
takes 22 155.  Equal entries share one immutable Polynomial.

Determinants are always exact.  Two routes, and choose_backend alone
picks between them from the matrix size: fraction free elimination
(intdet.bareiss_int) directly over the polynomial ring for matrices up to
15x15, and the modular route (det_by_evaluation) for larger ones, in any
number of variables.  The modular route refuses a matrix whose box of
degree bounds has 2^32 cells or more (full n=4, mbn1 n=5) before it
evaluates anything.  Both routes are asserted equal wherever both are
feasible.  _pool_map spreads the primes, and the randomized check's
points, over `jobs` as integer codes and values.

Every entry is a monomial with one variable per glued curve, so few
entries are distinct: 6 of the 44 100 cells of tilde n=5, 44 of the
15 876 of full n=4.  A GramMatrix is stored as those distinct entries,
`values`, and its code matrix, `codes`, the index of every cell's entry
among them; `entries` builds the rows from the two on demand.  Assembly
numbers the entries while it pairs and a cached read while it parses,
each building every distinct entry once (_code_rows).  Every
matrix-wide fact is read from the code matrix and the few distinct
entries: the rotation invariance, the symmetry, the degree and norm
bounds, the values at grid and sample points, and the cached JSON.

Both modular routes (the engine and the randomized check's integer
determinants) split G into blocks under r first.  Every assembled Gram
matrix satisfies G[r(i)][r(j)] == G[i][j], i.e. P G P^T = G for r's
permutation matrix P (rotation lemma).  rotation_orbits still checks it
on the matrix itself, since a cached or hand-built matrix need not come
from assembly, and a matrix that fails gets singleton orbits, one block,
G itself.  Over a prime p = 1 (mod L), L the lcm of the orbit sizes, a
primitive L-th root of unity w exists; each orbit's characters under w
form a Vandermonde matrix in distinct roots of unity, so the change to
that basis is invertible mod p, G is similar to the direct sum of its
blocks B_0 .. B_(L-1) and det G is the product of their determinants mod
p (intdet module docstring).

The engine works block by block.  Each block gets its own degree bound
per variable, the smaller of its row-wise and column-wise sums of entry
degrees (block_degree_bounds); over all blocks these sum to at most G's
own row-wise and column-wise bounds.  Per prime it eliminates every
needed block at each point of one grid, 0..max_k bound_k per variable,
interpolates each det B_k mod p from the corner 0..bound_k of that grid,
and multiplies the block polynomials' nonzero coefficients mod p
(intdet.multiply_mod), each placed at its offsets in the box of the
determinant's degree bounds (the sums of the block bounds) so that one
code path serves one variable and five.  The product stays sparse: each
prime returns the offsets of its nonzero coefficients only, and CRT runs
over the union of those offsets, never over the box.  The primes exceed
twice the Hadamard bound of the matrix of entry l1 norms, which bounds
every coefficient (proof at det_by_evaluation).  When G equals its
transpose (every tilde and mbn1 matrix at n <= 5, whose entries carry x
and y to equal powers; no full matrix at n <= 4, whose transpose
exchanges x and y), det B_(L-k) = det B_k, so only blocks 0..L/2 are
eliminated (intdet.block_factors, which picks the blocks for the
randomized check's integer determinants too).  At tilde n=5 the grid has
89 points where one grid for det G itself needed 841; full n=3 (35x35,
five variables, 12 309 terms) takes about 2.5 s on a 2-vCPU Xeon VM.

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
from math import comb, lcm, prod
from typing import Mapping, Sequence

import numpy as np

from mbgram import intdet
from mbgram.chebyshev import _d2m4, cheb_S, cheb_T
from mbgram.diagrams import Stratum, enumerate_stratum, parse_diagram, rotate
from mbgram.errors import BoundExceededError
from mbgram.pairing import bilinear_form
from mbgram.polynomial import VARIABLES, Polynomial
from mbgram.reporting import Report
from mbgram.storage import cache_read, cache_write, resolve_cache_dir

GRAM_FORMAT = "mbgram.gram/1"
DET_FORMAT = "mbgram.det/1"

TILDE_SUBSTITUTION = {"y": 0, "w": 1}

BAREISS_MAX_SIZE = 15       # crossover: elimination up to this size

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

    Cells i <= j are paired in row-major order, each only if no earlier
    pairing filled it.  A pairing's value fills the cell's orbit under
    (i, j) -> (r(i), r(j)), r = rotation_permutation(basis), which keeps
    the pairing (rotation lemma, pairing module docstring), and with x and
    y exchanged the transposed orbit (transpose law).  Both sets are
    closed under r, so the walk stops at the first filled cell having
    filled them all.  With r the identity this is the plain i <= j loop.
    """
    limit = variant.default_bound()
    if n > limit:
        raise BoundExceededError(f"n={n} exceeds bound {limit} for {variant.value}")
    basis = gram_basis(n, variant)
    size = len(basis)
    perm = rotation_permutation(basis)
    numbers: dict = {}  # exponent vector -> its number, in pairing order
    rows = [[None] * size for _ in range(size)]
    for i, m_i in enumerate(basis):
        for j in range(i, size):
            if rows[i][j] is not None:
                continue
            (d, w, x, y, z), _ = bilinear_form(m_i, basis[j]).leading_term()
            swapped = numbers.setdefault((d, w, y, x, z), len(numbers))
            number = numbers.setdefault((d, w, x, y, z), len(numbers))
            a, b = i, j
            while rows[a][b] is None:
                rows[b][a], rows[a][b] = swapped, number
                a, b = perm[a], perm[b]
    substitution = TILDE_SUBSTITUTION if variant is GramVariant.MBN1_TILDE else {}
    entries = [Polynomial({exps: 1}).substitute(substitution) for exps in numbers]
    return GramMatrix(n, variant, tuple(basis), *_code_rows(rows, entries.__getitem__, size))


# -- determinant backends -----------------------------------------------------


def _matrix_rows(matrix) -> list:
    """Rows of a GramMatrix or a nested sequence, int entries as Polynomials."""
    if isinstance(matrix, GramMatrix):
        matrix = matrix.entries
    return [[Polynomial.integer(e) if isinstance(e, int) else e for e in row]
            for row in matrix]


def _entry_codes(rows) -> tuple:
    """(codes, entries) of a square list of rows of entries, by _code_rows
    with each cell keyed by its value."""
    keys = [[frozenset(e.terms.items()) for e in row] for row in rows]
    return _code_rows(keys, lambda terms: Polynomial(dict(terms)), len(rows))


def _distinct(matrix) -> tuple:
    """(codes, entries) of a GramMatrix (stored) or of a nested sequence."""
    return ((matrix.codes, matrix.values) if isinstance(matrix, GramMatrix)
            else _entry_codes(_matrix_rows(matrix)))


def rotation_orbits(matrix) -> list:
    """Basis orbits under diagrams.rotate, r, each as (i, r(i), r(r(i)), ...)
    from its smallest index, in increasing order of that index.

    Every assembled GramMatrix satisfies G[r(i)][r(j)] == G[i][j] for all
    i, j (rotation lemma, pairing module docstring).  The check stays, for
    cached and hand-built matrices: only a GramMatrix whose rotated basis
    is its basis (rotation_permutation) and whose codes pass it gets the
    orbits; raw row lists and any other matrix get singleton orbits, the
    identity's.
    """
    if not isinstance(matrix, GramMatrix):
        return [(i,) for i in range(len(matrix))]
    perm = rotation_permutation(matrix.basis)
    if not (matrix.codes[np.ix_(perm, perm)] == matrix.codes).all():
        perm = list(range(matrix.size))
    orbits, seen = [], set()
    for i in range(matrix.size):
        if i not in seen:
            orbit = [i]
            while perm[orbit[-1]] != i:
                orbit.append(perm[orbit[-1]])
            seen.update(orbit)
            orbits.append(tuple(orbit))
    return orbits


def _pool_map(fn, args: list, jobs: int) -> list:
    """map(fn, args) over `jobs` processes; the results do not depend on jobs."""
    if jobs <= 1 or len(args) < 2:
        return list(map(fn, args))
    with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
        return list(pool.map(fn, args))


def det_exact(matrix) -> Polynomial:
    """Fraction-free elimination over the polynomial ring (intdet.bareiss_int)."""
    det = intdet.bareiss_int(_matrix_rows(matrix))
    return Polynomial.integer(det) if isinstance(det, int) else det


def block_degree_bounds(codes: np.ndarray, entries: list, orbits: list,
                        variables: Sequence[str]) -> list:
    """Per block k of the orbits (intdet.block_orbits), a bound on the
    degree of det B_k in each variable, in the order given; codes and
    entries as from _distinct.

    Entry B_k[a][b] is a combination of G[rep_a][j] over the members j of
    orbit b, so its degree is at most their largest, D[a][b].  A
    determinant's degree is at most the sum over its rows of their largest
    entry degree, and likewise over its columns; the bound is the smaller
    sum.  Zero entries count as degree 0.
    """
    # per variable, the degree of every cell of the representatives' rows
    degrees = np.array([[max(e.degree_in(var), 0) for var in variables] for e in entries]).T
    cells = degrees[:, codes[[orbit[0] for orbit in orbits]]]
    # per variable, D[a][b]
    orbit_degrees = np.stack([cells[:, :, list(orbit)].max(axis=2) for orbit in orbits], axis=2)

    def bound(block: tuple, degrees: np.ndarray) -> int:
        sub = degrees[np.ix_(block, block)]
        return int(min(sub.max(axis=1, initial=0).sum(), sub.max(axis=0, initial=0).sum()))

    return [tuple(bound(block, degrees) for degrees in orbit_degrees)
            for block in intdet.block_orbits(orbits)]


def _det_by_blocks_mod(values: list, codes: np.ndarray, orbits: list, grid_shape: tuple,
                          block_bounds: list, factors: list, box: tuple, p: int) -> tuple:
    """det's nonzero coefficients mod p as (offsets, residues), the C-order
    offsets in the box of its degree bounds ascending (intdet.multiply_mod);
    values[g][e] is distinct entry e at grid point g (C order over
    grid_shape), codes[i][j] names G_ij, orbits are rotation_orbits of the
    matrix, block_bounds[k] bounds det B_k's degrees, and factors lists
    each k once per time det B_k divides det."""
    residues = np.array([[v % p for v in point] for point in values], dtype=np.int64)
    ks = sorted(set(factors))
    dets = intdet.block_dets_mod(residues, codes, orbits, np.full(len(residues), p), ks)
    dets = dets.reshape((len(ks),) + grid_shape)
    block_polys = {}
    for k, block_dets in zip(ks, dets):
        # det B_k from the corner of the grid its bounds need
        corner = tuple(slice(b + 1) for b in block_bounds[k])
        coeffs = block_dets[corner]
        for axis in np.flatnonzero(block_bounds[k]):  # a bound-0 axis holds its constant
            coeffs = intdet.interpolate_mod(coeffs, p, axis)
        cells = np.nonzero(coeffs)
        block_polys[k] = (np.ravel_multi_index(cells, box), coeffs[cells])
    return intdet.multiply_mod([block_polys[k] for k in factors], p)


def _det_of_codes(codes: np.ndarray, orbits: list, values: list) -> int:
    """Exact determinant of the integer matrix values[codes[i][j]]."""
    return intdet.int_det(np.array(values, dtype=object)[codes].tolist(), orbits)


def det_by_evaluation(matrix, jobs: int = 1) -> Polynomial:
    """Determinant by the modular algorithm (von zur Gathen & Gerhard, ch. 5).

    G splits into the blocks B_k of its rotation_orbits, k = 0..L-1, with
    det G = prod_k det B_k mod every prime p = 1 (mod L) (intdet module
    docstring).  The matrix is read through its code matrix and distinct
    entries (_distinct): the norms, the degree bounds and the symmetry
    come from them, and each distinct entry is evaluated once per point
    of one grid, 0..max_k bound_k in each of d, w, x, y, z, the bounds
    from block_degree_bounds; a variable no entry holds has bound 0, one
    grid point and one cell of the box.  Each prime is one
    task: eliminate the needed blocks at every grid point, interpolate
    each det B_k from the corner 0..bound_k of the grid, multiply the
    block polynomials' nonzero coefficients (intdet.multiply_mod, each
    placed at its offsets in the box of the sums of the block bounds, so
    one code path serves every matrix), and return the
    product's nonzero coefficients with their offsets.  The calling
    process gathers the union of the primes' offsets, reads residue 0 for
    a prime whose product lacks one (its coefficient vanishes mod that
    prime), and CRTs each; the cells of the box that no prime holds are
    never visited.

    A box of 2^32 cells or more raises BoundExceededError before any
    entry is evaluated: multiply_mod's offsets assume fewer cells, and a
    box that large (full n=4 has 2.4 * 10^10 cells) is far past what the
    grid and the primes can afford.

    intdet.block_factors picks the blocks: when G equals its transpose
    (its code matrix does), det B_(L-k) = det B_k (proof there), so only
    blocks 0..L/2 are eliminated and each 0 < k < L/2 is counted twice;
    a matrix that is not symmetric gets every block.

    The primes exceed twice intdet.hadamard_bound of the entry norms
    N_ij = ||G_ij||_1, the sums of absolute coefficients.  Proof: on the
    unit torus |G_ij(zeta)| <= N_ij, so by Hadamard's inequality
    |det G(zeta)| <= prod_i (sum_j N_ij^2)^(1/2); each coefficient of
    det G is the torus mean of det G(zeta) zeta^(-alpha), so the same
    bound covers every coefficient.
    """
    codes, entries = _distinct(matrix)
    if not codes.size:
        return Polynomial.one()
    # every coefficient's bound (docstring); 0 means a zero row
    norms = np.array([sum(map(abs, e.terms.values())) for e in entries], dtype=object)
    bound = intdet.hadamard_bound(norms[codes].tolist())
    if bound == 0:
        return Polynomial.zero()
    orbits = rotation_orbits(matrix)
    order = lcm(*(len(orbit) for orbit in orbits))
    block_bounds = block_degree_bounds(codes, entries, orbits, VARIABLES)
    factors = intdet.block_factors(bool((codes == codes.T).all()), order)
    # per variable: the largest bound of a needed block, and their sum
    per_variable = list(zip(*(block_bounds[k] for k in factors)))
    grid_shape = tuple(max(bounds) + 1 for bounds in per_variable)
    box = tuple(sum(bounds) + 1 for bounds in per_variable)
    if prod(box) >= 2 ** 32:
        raise BoundExceededError(f"box of degree bounds has {prod(box)} cells, 2^32 or more: "
                                 "too large for the exact route (randomized checks cover it)")
    grid = [dict(zip(VARIABLES, point)) for point in itertools.product(*map(range, grid_shape))]
    values = [[e.evaluate(point) for e in entries] for point in grid]
    primes = intdet.primes_for(bound, order)
    per_prime = _pool_map(partial(_det_by_blocks_mod, values, codes, orbits, grid_shape,
                                  block_bounds, factors, box), primes, jobs)
    # every offset some prime's product holds; a prime without it has residue 0 there
    residues_at: dict = {}
    for t, (offsets, residues) in enumerate(per_prime):
        for offset, residue in zip(offsets.tolist(), residues.tolist()):
            residues_at.setdefault(offset, [0] * len(primes))[t] = residue
    offsets = sorted(residues_at)
    exponents = np.array(np.unravel_index(np.array(offsets, dtype=np.int64), box)).T.tolist()
    return Polynomial({tuple(exps): intdet.crt(residues_at[offset], primes)
                       for offset, exps in zip(offsets, exponents)})


def choose_backend(matrix) -> str:
    """Crossover rule between the two determinant backends: elimination
    ("bareiss", det_exact) up to BAREISS_MAX_SIZE rows, the modular engine
    ("interp", det_by_evaluation) above, in any number of variables."""
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


def conjecture_factors(conjecture: ConjectureId, n: int) -> list:
    """Closed form as a list of (polynomial factor, exponent) pairs."""
    builder, n_min, _ = _FACTOR_BUILDERS[conjecture]
    if n < n_min:
        raise ValueError(f"{conjecture.value} needs n >= {n_min}, got {n}")
    return builder(n)


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
    fewer raise ValueError before any work is done.
    """
    variant = _FACTOR_BUILDERS[conjecture][2]
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
    formula_degree = sum(f.total_degree() * e for f, e in conjecture_factors(conjecture, n))
    degree_bound = max(total_degree_bound(gm), formula_degree)
    seed = DEFAULT_SEED if seed is None else seed
    rng = random.Random(seed)
    # Coordinates must exceed the degree bound; beyond that, keep them small
    # enough that evaluated entries stay within about 2^60 (each bit of the
    # entries costs the integer determinant primes, through its Hadamard
    # bound) while the sample space still beats 2^-40.
    entry_degree = max((e.total_degree() for e in gm.values if not e.is_zero()), default=1)
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
    values = [[e.evaluate(point) for e in gm.values] for point in sample]
    det_values = _pool_map(partial(_det_of_codes, gm.codes, rotation_orbits(gm)), values, jobs)
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
