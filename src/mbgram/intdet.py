"""Exact determinants: one fraction-free elimination, one modular kernel.

  * bareiss_int: fraction-free elimination with row pivoting.  Every
    interior division is exact (Sylvester's identity), so it is exact
    for any size and over any ring whose // is exact division; gram
    uses it over Z[d, w, x, y, z] as well.  Intermediate growth makes it
    slow on integer matrices past roughly 40x40.  A matrix equal to its
    transpose (is_symmetric) keeps a symmetric trailing block until its
    first row swap, so only the entries on and above the diagonal are
    eliminated, about half the products and divisions (proof at
    bareiss_int).

  * block_dets_mod: the determinants of the blocks of matrices under a
    permutation symmetry, one modulus per matrix, each given by the
    residues of its distinct values and one matrix of entry codes.  It
    gathers the representative rows and eliminates them by numpy int64
    elimination (dets_mod) in batches of at most _ELIMINATION_CELLS
    cells, and returns every requested block's determinant, not their
    product.  block_factors picks the blocks for both of its callers, half
    of them for a matrix equal to its transpose.  crt_det (and int_det,
    which calls it at every size) reduces an integer matrix's distinct
    entries mod enough primes to exceed twice the Hadamard bound, as
    Python ints, multiplies the blocks' determinants per prime and
    recombines by CRT.  gram's engine reduces the distinct entries at the
    points of a grid under one prime, interpolates each block's
    determinant on its own part of the grid (interpolate_mod) and
    multiplies the block polynomials' nonzero coefficients (multiply_mod).

The test suite cross-checks bareiss_int and crt_det.

The primes.  For each step s = lcm(2, order) there is one sequence: the
primes p = 1 (mod s) below 2^31, descending.  primes_for(bound, order)
returns its shortest prefix whose product exceeds 2 bound, finding
primes only past the end of what earlier calls found (_PRIMES), so the
primes are the same in any call order.  The randomized checks call
crt_det once per sample point, and each call would otherwise repeat the
scan: about 660 primality tests for the 62-69 primes of one C3_4 point
at n=3.  _root_of_unity is cached for the same reason.

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
block k, over the orbits with k s = 0 (mod L) (block_orbits), has entries

    B_k[a][b] = sum_j w^(-jk) G[rep_a][r^j(rep_b)],

read off at the representative rep_a, and det G = prod_k det B_k (mod p)
by similarity.  Only the representatives' rows are ever needed, and only
the requested blocks are formed.  With singleton orbits L = 1 and the one
block is G itself; a block over no orbit has determinant 1.  The root is
tested as primitive by w^(L/q) != 1 for every prime q | L; testing only
w^(L/2) = -1 would accept w = -1 for L = 6.

multiply_mod multiplies sparse polynomials mod p pair by pair of nonzero
coefficients (Monagan & Pearce, ISSAC 2009): the pairs are outer sums of
offsets and outer products of residues, formed in slices of bounded size,
and equal offsets are summed by polynomial's sort-and-reduce.  The
product stays sparse, as the offsets of its nonzero coefficients, so no
array the size of the product's box is ever built.
"""

from __future__ import annotations

from functools import cache
from math import isqrt, lcm

import numpy as np

from mbgram.polynomial import _collect

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


def hadamard_bound(rows: list) -> int:
    """Integer upper bound on |det| (product of row Euclidean norms)."""
    prod_sq = 1
    for row in rows:
        s = sum(v * v for v in row)
        if s == 0:
            return 0
        prod_sq *= s
    return isqrt(prod_sq) + 1


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


def block_orbits(orbits: list) -> list:
    """For each block k = 0..L-1 of the permutation whose orbits are given
    (module docstring), the indices a of the orbits in it: k s_a = 0 (mod L)."""
    sizes = [len(orbit) for orbit in orbits]
    order = lcm(*sizes)
    return [tuple(a for a, s in enumerate(sizes) if k * s % order == 0)
            for k in range(order)]


# Cells of representative rows per elimination batch, and pairs per slice
# of multiply_mod: about 1 MB of int64 per array either holds.
_ELIMINATION_CELLS = 1 << 17


def block_factors(symmetric: bool, order: int) -> list:
    """The blocks k whose determinants multiply to det G mod p, each listed
    once per time det B_k divides it, for an invariant matrix G with
    blocks k = 0..L-1, L = order (module docstring): every block, or, when
    G equals its transpose, blocks 0..L/2 with each 0 < k < L/2 twice.

    With S = diag(orbit sizes), a symmetric G has B_{-k} = S^-1 B_k^T S,
    so det B_{-k} = det B_k (S is invertible as p > L).  Proof: the terms
    of B_k[b][a] repeat with period s_a in j, so it equals
    (s_a / L) sum_{j < L} w^(-jk) G[rep_b][r^j(rep_a)]; by the invariance
    and the symmetry G[rep_b][r^j(rep_a)] = G[rep_a][r^-j(rep_b)], and
    j -> -j turns the sum into (L / s_b) B_{-k}[a][b].
    """
    if not symmetric:
        return list(range(order))
    return [k for k in range(order // 2 + 1) for _ in range(1 if 2 * k % order == 0 else 2)]


def block_dets_mod(values: np.ndarray, codes: np.ndarray, orbits: list, moduli: np.ndarray,
                   ks: list) -> np.ndarray:
    """Determinant residues of the blocks of matrices invariant under the
    permutation whose orbits are given (module docstring), matrix b modulo
    moduli[b], each moduli[b] a prime = 1 (mod the lcm L of the orbit
    sizes).

    Matrix b has entry values[b, codes[i, j]] at (i, j): values[b] holds
    its distinct values reduced mod moduli[b].  Returns dets[t, b], the
    determinant of block ks[t] of matrix b, each k in 0..L-1; only the
    blocks in ks are formed.  The representative rows are gathered and
    eliminated in batches of matrices whose rows hold at most
    _ELIMINATION_CELLS cells.  No elimination stack is larger: only blocks
    over the same orbits are stacked together, and they hold at most
    (orbits) x N cells per matrix.
    """
    assert (moduli < 2 ** 31).all(), "residue products must stay within int64"
    sizes = np.array([len(orbit) for orbit in orbits])
    order = lcm(*sizes.tolist())
    ks = np.asarray(ks)
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
    in_block = block_orbits(orbits)
    for t, k in enumerate(ks.tolist()):
        same_orbits.setdefault(in_block[k], []).append(t)
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
    return dets


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


def multiply_mod(factors: list, p: int) -> tuple:
    """The product mod a prime p < 2^31 of polynomials, as (offsets,
    residues) of its nonzero coefficients, offsets ascending.  Each factor
    is given the same way, its offsets in any order: the C-order offsets
    of its nonzero coefficients in a box of fewer than 2^32 cells that
    holds the product, and their residues mod p.

    Only nonzero coefficients are multiplied (module docstring): the
    offsets of a pair add, as no axis of the box overflows.  The pairs are
    formed in slices of at most _ELIMINATION_CELLS, and polynomial._collect
    merges each slice into the product so far, summing equal offsets.  A
    pair's product is below p^2 < 2^62 and is reduced mod p first, so each
    sum adds at most _ELIMINATION_CELLS + 1 residues below 2^31 and stays
    in int64.  A factor with no nonzero coefficient makes the product zero.
    """
    offsets, residues = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for factor_offsets, factor_residues in factors:
        keys, sums = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        pairs = len(offsets) * len(factor_offsets)
        for start in range(0, pairs, _ELIMINATION_CELLS):
            # pair t: term t // len(factor) of the product so far, term t % len(factor)
            i, j = np.divmod(np.arange(start, min(pairs, start + _ELIMINATION_CELLS)),
                             len(factor_offsets))
            keys, sums = _collect(np.concatenate((keys, offsets[i] + factor_offsets[j])),
                                  np.concatenate((sums, residues[i] * factor_residues[j] % p)))
            sums %= p
        offsets, residues = keys[sums != 0], sums[sums != 0]
    return offsets, residues


def crt(residues: list, primes: list) -> int:
    """The integer of least absolute value with the given residues."""
    x, modulus = 0, 1
    for r, p in zip(residues, primes):
        x += modulus * ((r - x) * pow(modulus, -1, p) % p)
        modulus *= p
    return x - modulus if x > modulus // 2 else x


def crt_det(rows: list, orbits: list | None = None) -> int:
    """Exact determinant via residues modulo 31-bit primes.

    orbits: those of a permutation that leaves the matrix invariant, as
    for block_dets_mod; singletons when None.  Each distinct entry is
    reduced mod each prime as a Python int, and block_dets_mod eliminates
    the primes in batches.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    bound = hadamard_bound(rows)
    if bound == 0:
        return 0
    if orbits is None:
        orbits = [(i,) for i in range(n)]
    order = lcm(*(len(orbit) for orbit in orbits))
    primes = primes_for(bound, order)
    index: dict = {}  # distinct entry -> its code
    codes = np.array([[index.setdefault(v, len(index)) for v in row] for row in rows])
    values = np.array([[v % p for v in index] for p in primes], dtype=np.int64)
    moduli = np.array(primes, dtype=np.int64)
    factors = block_factors(bool((codes == codes.T).all()), order)
    ks = sorted(set(factors))
    block_dets = dict(zip(ks, block_dets_mod(values, codes, orbits, moduli, ks)))
    det = np.ones(len(primes), dtype=np.int64)
    for k in factors:
        det = det * block_dets[k] % moduli
    return crt(det.tolist(), primes)


def int_det(rows: list, orbits: list | None = None) -> int:
    """Exact integer determinant (crt_det), orbits as for crt_det."""
    return crt_det(rows, orbits)
