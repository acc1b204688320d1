"""Exact determinants: one fraction-free elimination, one modular kernel.

  * bareiss_int: fraction-free elimination with row pivoting.  Every
    interior division is exact (Sylvester's identity), so it is exact
    for any size and over any ring whose // is exact division; gram's
    det_exact runs it on the integers that one Kronecker substitution
    makes of a Gram matrix's entries.  Intermediate growth makes it slow
    on integer matrices past roughly 40x40.  A matrix equal to its
    transpose (is_symmetric) keeps a symmetric trailing block until its
    first row swap, so only the entries on and above the diagonal are
    eliminated, about half the products and divisions (proof at
    bareiss_int).

  * block_plan decides the blocks, once, for both modular routes: it
    checks that a permutation leaves a code matrix invariant (the
    identity otherwise), walks its orbits and lists the blocks whose
    determinants multiply to det G, half of them for a matrix equal to
    its transpose.  block_dets_mod forms a plan's blocks of matrices,
    one modulus per matrix, each given by the residues of its distinct
    values and one code matrix: it gathers the representative rows and
    eliminates them by numpy int64 elimination (dets_mod) in batches of
    at most _ELIMINATION_CELLS cells, and returns each needed block's
    determinant, not their product.  crt_det (and int_det, which calls
    it at every size) takes one code matrix and the distinct values at
    several points, reduces each point's values mod primes whose
    product exceeds twice its own Hadamard bound, eliminates every
    (prime, point) matrix in one block_dets_mod call and recombines each
    point by CRT.  gram's engine reduces the distinct entries at the
    points of a grid under one prime, interpolates each block's
    determinant on its own part of the grid (interpolate_mod), and
    multiplies the block polynomials, each given as its coefficient
    array, into one dense array over the box of the product
    (multiply_mod); it stacks the primes' products into one table and
    recombines its nonzero columns by CRT.

The test suite cross-checks bareiss_int and crt_det.

The primes.  For each step s = lcm(2, order) there is one sequence: the
primes p = 1 (mod s) below 2^31, descending.  primes_for(bound, order)
returns its shortest prefix whose product exceeds 2 bound, finding
primes only past the end of what earlier calls found (_PRIMES), so the
primes are the same in any call order.  The randomized checks call
primes_for once per sample point, and each call would otherwise repeat
the scan: about 660 primality tests for the 62-69 primes of one
C3_4 point at n=3.  _root_of_unity is cached for the same reason.

The blocks.  Let r permute the indices with G[r(i)][r(j)] == G[i][j] for
all i, j, i.e. P G P^T = G for its permutation matrix P, and split the
indices into the orbits of r, each listed as (i, r(i), r(r(i)), ...).
Let L be the lcm of the orbit sizes, p = 1 (mod L) a prime and w a
primitive L-th root of unity mod p (one exists because F_p^* is cyclic
of order p - 1).  For an orbit of size s and each k with k s = 0 (mod L),
the vector sum_j w^(-jk) e_(r^j(i)) is an eigenvector of P for w^k.  The
k run over s distinct multiples of L/s, so an orbit's vectors form an
s x s Vandermonde matrix in distinct s-th roots of unity: invertible mod
p, and all of them together are a basis.  G commutes with P, so it maps
each eigenspace of P into itself and is block diagonal in that basis:
block k, over the orbits with k s = 0 (mod L) (block_plan), has entries

    B_k[a][b] = sum_j w^(-jk) G[rep_a][r^j(rep_b)],

read off at the representative rep_a, and det G = prod_k det B_k (mod p)
by similarity.  Only the representatives' rows are ever needed, and
only the blocks a plan needs are formed.  With singleton orbits L = 1
and the one block is G itself; a block over no orbit has determinant 1.
The root is tested as primitive by w^(L/q) != 1 for every prime q | L;
testing only w^(L/2) = -1 would accept w = -1 for L = 6.

multiply_mod multiplies polynomials mod p in a sparse accumulator
(Gilbert, Moler & Schreiber, SIAM J. Matrix Anal. Appl. 13 (1992)): the
running product is one int64 array over the box of the product, and each
factor, a coefficient array placed at its C-order offsets in the box, is
added into a fresh one term by term of the shorter side, the other side
scaled and shifted by that term's offset, so that equal offsets sum where
they land and nothing is sorted.  It returns the dense array, zeros
included.  The caller bounds the box (gram.DENSE_CELLS_LIMIT).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import isqrt, lcm, prod
from operator import mul

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < 3.3e24 (we only need ~2^31)."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# step -> the descending primes = 1 (mod step) below 2^31 found so far
_PRIMES: dict = {}


def primes_for(bound: int, order: int = 1) -> list:
    """Descending primes p = 1 (mod lcm(2, order)) below 2^31, enough for
    CRT to recover |x| <= bound; mod each of them, order-th roots of unity
    exist.  The prefix of one sequence per step, extended on demand
    (module docstring)."""
    step = lcm(2, order)
    known = _PRIMES.setdefault(step, [])
    modulus, count = 1, 0
    while modulus <= 2 * bound:
        if count == len(known):
            c = known[-1] - step if known else (2 ** 31 - 2) // step * step + 1
            while not _is_prime(c):
                c -= step
            known.append(c)
        modulus *= known[count]
        count += 1
    return known[:count]


@cache  # one entry per prime of _PRIMES and order
def _root_of_unity(p: int, order: int) -> int:
    """A primitive order-th root of unity mod a prime p = 1 (mod order)."""
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    for g in range(2, p):
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factors):
            return w
    raise ValueError(f"no primitive {order}-th root of unity mod {p}")


def hadamard_bound(codes: np.ndarray, magnitudes: list) -> int:
    """Integer upper bound on |det| of every matrix with |entry (i, j)| <=
    magnitudes[codes[i][j]] (product of row Euclidean norms), from the
    count of each code in each row; 0 for a zero row."""
    n, width = len(codes), len(magnitudes)
    counts = np.bincount((np.arange(n)[:, None] * width + codes).ravel(), minlength=n * width)
    squares = [m * m for m in magnitudes]
    sums = [sum(map(mul, row, squares)) for row in counts.reshape(n, width).tolist()]
    return 0 if 0 in sums else isqrt(prod(sums)) + 1


def is_symmetric(rows: list) -> bool:
    """True when the square matrix equals its transpose."""
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def bareiss_int(rows: list):
    """Fraction-free elimination with row pivoting; exact for any size.

    Entries may come from any ring whose // is exact division (int,
    Polynomial); an empty matrix gives 1 and a singular one 0.

    A matrix equal to its transpose is eliminated by halves: each step
    computes the entries (i, j) with j >= i and copies (j, i) to (i, j).
    Proof: while no rows have been swapped, the entry (i, j) after step k
    is, by Sylvester's identity, the minor of G on rows 0..k, i and columns
    0..k, j.  For G = G^T that minor is the transpose of the one on rows
    0..k, j and columns 0..k, i, the entry (j, i), so the block left to
    eliminate stays symmetric.  A row swap breaks the symmetry, and from
    the first one on every entry is computed.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    symmetric = is_symmetric(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    symmetric = False
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            if symmetric:
                # rows k+1..i-1 of this step are done: copy their column i
                for j in range(k + 1, i):
                    row_i[j] = m[j][i]
            for j in range(i if symmetric else k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def dets_mod(stack: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Determinant residues of a (batch, n, n) stack, matrix b modulo moduli[b].

    Entries must be residues and moduli below 2^31; the stack is
    overwritten.  A zero pivot swaps in the first row below with a nonzero
    entry (flipping the sign); if there is none the residue is 0, and as
    the inverse of 0 comes out 0 the step changes nothing.  Inverses are pivot^(p-2), by square and
    multiply over the whole batch; residues below 2^31 keep products in int64.
    """
    batch, n, _ = stack.shape
    exponent_bits = [(moduli - 2) >> i & 1 == 1 for i in range(31)]
    det = np.ones(batch, dtype=np.int64)
    for k in range(n):
        zero = stack[:, k, k] == 0
        if zero.any():
            sel = np.flatnonzero(zero)
            below = k + np.argmax(stack[sel, k:, k] != 0, axis=1)
            stack[sel, k], stack[sel, below] = stack[sel, below], stack[sel, k]
            det[sel[below != k]] *= -1
        pivot = stack[:, k, k].copy()
        det = det * pivot % moduli
        if k + 1 < n:
            inverse, power = np.ones_like(pivot), pivot
            for bit in exponent_bits:
                inverse = np.where(bit, inverse * power % moduli, inverse)
                power = power * power % moduli
            factor = stack[:, k + 1:, k] * inverse[:, None] % moduli[:, None]
            rest = stack[:, k + 1:, k + 1:]
            rest -= factor[:, :, None] * stack[:, k, None, k + 1:]
            np.remainder(rest, moduli[:, None, None], out=rest)
    return det


# Cells of representative rows per elimination batch: about 1 MB of int64.
_ELIMINATION_CELLS = 1 << 17


# orbits: each (i, r(i), r(r(i)), ...) from its smallest index, ascending;
# order: L, the lcm of the orbit sizes; blocks[k], k = 0..L-1: the indices a
# of the orbits with k s_a = 0 (mod L); factors: each k once per time
# det B_k divides det G
BlockPlan = namedtuple("BlockPlan", "orbits order blocks factors")


def block_plan(codes: np.ndarray, perm: list | None = None) -> BlockPlan:
    """The blocks of the square code matrix under the permutation perm,
    perm[i] = r(i) (module docstring), and the ones to eliminate.

    The only check that r leaves the codes invariant, codes[r(i)][r(j)]
    == codes[i][j]: a perm that is None, is not a permutation of the
    indices or fails it gets the identity's singleton orbits, one block,
    G itself.  The factors are every block, or, when the codes equal
    their transpose, each block k = 0..L-1 replaced by block min(k, L-k):
    blocks 0..L/2 with each 0 < k < L/2 twice.

    With S = diag(orbit sizes), a symmetric G has B_{-k} = S^-1 B_k^T S,
    so det B_{-k} = det B_k (S is invertible as p > L).  Proof: the terms
    of B_k[b][a] repeat with period s_a in j, so it equals
    (s_a / L) sum_{j < L} w^(-jk) G[rep_b][r^j(rep_a)]; by the invariance
    and the symmetry G[rep_b][r^j(rep_a)] = G[rep_a][r^-j(rep_b)], and
    j -> -j turns the sum into (L / s_b) B_{-k}[a][b].
    """
    n = len(codes)
    if (perm is None or sorted(perm) != list(range(n))
            or not (codes[np.ix_(perm, perm)] == codes).all()):
        perm = range(n)
    orbits, seen = [], set()
    for i in range(n):
        if i not in seen:
            orbit = [i]
            while perm[orbit[-1]] != i:
                orbit.append(perm[orbit[-1]])
            seen.update(orbit)
            orbits.append(tuple(orbit))
    sizes = [len(orbit) for orbit in orbits]
    order = lcm(*sizes)
    blocks = tuple(tuple(a for a, s in enumerate(sizes) if k * s % order == 0)
                   for k in range(order))
    symmetric = (codes == codes.T).all()
    factors = tuple(sorted(min(k, order - k) if symmetric else k for k in range(order)))
    return BlockPlan(tuple(orbits), order, blocks, factors)


def block_dets_mod(values: np.ndarray, codes: np.ndarray, plan: BlockPlan,
                   moduli: np.ndarray) -> dict:
    """Determinant residues of the blocks of matrices with the code matrix
    and block plan given (block_plan), matrix b modulo moduli[b], each
    moduli[b] a prime = 1 (mod plan.order).

    Matrix b has entry values[b, codes[i, j]] at (i, j): values[b] holds
    its distinct values reduced mod moduli[b].  Returns {k: dets}, dets[b]
    the determinant of block k of matrix b, for each distinct k of the
    plan's factors in increasing order; no other block is formed.  The
    representative rows are gathered and eliminated in batches of matrices
    whose rows hold at most _ELIMINATION_CELLS cells.  No elimination
    stack is larger: only blocks over the same orbits are stacked
    together, and they hold at most (orbits) x N cells per matrix.
    """
    assert (moduli < 2 ** 31).all(), "residue products must stay within int64"
    orbits, order = plan.orbits, plan.order
    sizes = np.array([len(orbit) for orbit in orbits])
    ks = np.array(sorted(set(plan.factors)))
    width = int(sizes.max())
    # orbit c's members along the last axis, padded with its first member
    members = np.array([orbit + orbit[:1] * (width - len(orbit)) for orbit in orbits])
    # member_codes[a, c, j] names G[rep_a][r^j(rep_c)]
    member_codes = codes[[orbit[0] for orbit in orbits]][:, members]
    distinct, which = np.unique(moduli, return_inverse=True)
    # inverse_powers[b, t] = w^(-t) mod moduli[b]
    inverse_powers = np.array([[pow(_root_of_unity(p, order), -t, p) for t in range(order)]
                               for p in distinct.tolist()], dtype=np.int64)[which]
    # blocks over the same orbits are eliminated together, in one stack
    same_orbits: dict = {}
    for t, k in enumerate(ks.tolist()):
        same_orbits.setdefault(plan.blocks[k], []).append(t)
    dets = np.empty((len(ks), len(moduli)), dtype=np.int64)
    step = max(1, _ELIMINATION_CELLS // (len(orbits) * len(codes)))
    for start in range(0, len(moduli), step):
        batch = slice(start, start + step)
        m = moduli[batch, None, None, None]
        columns = values[batch][:, member_codes]
        blocks = np.zeros(columns.shape[:3] + (len(ks),), dtype=np.int64)
        for j in range(width):
            # weight[b, c, t] = w^(-j ks[t]), or 0 past the end of orbit c
            weight = inverse_powers[batch][:, ks * j % order][:, None, :] * (j < sizes)[:, None]
            blocks = (blocks + columns[:, :, :, j, None] * weight[:, None]) % m
        for block, ts in same_orbits.items():
            index = np.array(block, dtype=np.intp)
            stack = np.moveaxis(blocks[:, index[:, None], index[None, :]][..., ts], 3, 0)
            dets[ts, batch] = dets_mod(stack.reshape(-1, len(block), len(block)),
                                       np.tile(moduli[batch], len(ts))).reshape(len(ts), -1)
    return dict(zip(ks.tolist(), dets))


def interpolate_mod(values: np.ndarray, p: int, axis: int = 0) -> np.ndarray:
    """Coefficients mod p, lowest degree first along axis, of the polynomial
    with the given values at 0, 1, ..., k-1: Newton divided differences,
    where level l divides by l itself, then Horner's rule.
    """
    table = np.moveaxis(np.asarray(values, dtype=np.int64) % p, axis, 0)
    k = table.shape[0]
    for level in range(1, k):
        table[level:] = (table[level:] - table[level - 1:-1]) % p * pow(level, -1, p) % p
    coeffs = np.zeros_like(table)
    for i in range(k - 1, -1, -1):
        # coeffs <- coeffs * (X - i) + table[i]
        coeffs[1:] = (coeffs[:-1] - i * coeffs[1:]) % p
        coeffs[0] = (table[i] - i * coeffs[0]) % p
    return np.moveaxis(coeffs, 0, axis)


def multiply_mod(factors: list, p: int, box: tuple) -> np.ndarray:
    """The product mod a prime p < 2^31 of polynomials, as its dense int64
    residues over box.  Each factor is an int64 array of residues mod p,
    its coefficient at exponents e in cell e, with as many axes as box;
    box holds the product: along each axis, its length minus 1 is at least
    the sum of the factors' lengths minus 1.

    Per factor (module docstring), each term of the shorter side, the
    factor's nonzero coefficients placed at their C-order offsets in box
    or the product so far, adds the other side times its residue, mod p,
    at the other side's offsets plus its own: no axis of the box
    overflows, and one side's offsets are distinct.  So a cell gains at
    most one residue below 2^31 per term of the shorter side, and int64
    holds while that side has fewer than 2^32 terms.  A factor with no
    nonzero coefficient makes the product zero.
    """
    product = np.zeros(prod(box), dtype=np.int64)
    product[0] = 1
    for factor in factors:
        cells, offsets = np.nonzero(factor), np.flatnonzero(product)
        (short_offsets, short_residues), (long_offsets, long_residues) = sorted(
            ((np.ravel_multi_index(cells, box), factor[cells]), (offsets, product[offsets])),
            key=lambda side: len(side[0]))
        product = np.zeros(prod(box), dtype=np.int64)
        for offset, residue in zip(short_offsets.tolist(), short_residues.tolist()):
            product[long_offsets + offset] += long_residues * residue % p
        product %= p
    return product.reshape(box)


def crt(residues: list, primes: list) -> int:
    """The integer of least absolute value with the given residues."""
    x, modulus = 0, 1
    for r, p in zip(residues, primes):
        x += modulus * ((r - x) * pow(modulus, -1, p) % p)
        modulus *= p
    return x - modulus if x > modulus // 2 else x


def crt_det(codes: np.ndarray, points: list, plan: BlockPlan | None = None) -> list:
    """Exact determinant of each integer matrix points[b][codes[i][j]].

    plan: the code matrix's block_plan, the identity's when None.  Each
    point has the primes of its own Hadamard bound (module docstring):
    one list for all points, from each value's largest magnitude, would
    take 9 744 (prime, point) matrices instead of 8 792 for the 24 points
    of C3_5 at n=5.
    """
    n = len(codes)
    if codes.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return [1] * len(points)
    if plan is None:
        plan = block_plan(codes)
    # a zero row bounds |det| by 0: no primes, and the CRT of no residues is 0
    primes = [primes_for(hadamard_bound(codes, list(map(abs, point))), plan.order)
              for point in points]
    # matrix t is point b mod p, (b, p) = pairs[t]
    pairs = [(b, p) for b, point_primes in enumerate(primes) for p in point_primes]
    moduli = np.array([p for _, p in pairs], dtype=np.int64)
    values = np.array([[v % p for v in points[b]] for b, p in pairs], dtype=np.int64)
    block_dets = block_dets_mod(values, codes, plan, moduli)
    det = np.ones(len(moduli), dtype=np.int64)
    for k in plan.factors:
        det = det * block_dets[k] % moduli
    residues = iter(det.tolist())
    return [crt([next(residues) for _ in point_primes], point_primes) for point_primes in primes]


def int_det(codes: np.ndarray, points: list, plan: BlockPlan | None = None) -> list:
    """Exact integer determinants (crt_det), arguments as for crt_det."""
    return crt_det(codes, points, plan)
