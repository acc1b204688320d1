"""Exact determinants: one fraction-free elimination, one modular kernel.

  * bareiss_int: fraction-free elimination with row pivoting.  Every
    interior division is exact (Sylvester's identity), so it is exact
    for any size and over any ring whose // is exact division; gram
    uses it over Z[d, w, x, y, z] as well.  Intermediate growth makes it
    slow on integer matrices past roughly 40x40.

  * block_dets_mod: determinants of a stack of residue matrices, one
    modulus each, by numpy int64 elimination (dets_mod) of their blocks
    under a permutation symmetry.  crt_det stacks one integer matrix once
    per prime, enough to exceed twice the Hadamard bound, and recombines
    by CRT (int64 entries only; bareiss_int otherwise); gram stacks grid
    points under one prime and calls interpolate_mod.

int_det picks between them by size.  The test suite cross-checks them.

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
block k, over the orbits with k s = 0 (mod L), has entries

    B_k[a][b] = sum_j w^(-jk) G[rep_a][r^j(rep_b)],

read off at the representative rep_a, and det G = prod_k det B_k (mod p)
by similarity.  Only the representatives' rows are ever needed.  With
singleton orbits L = 1 and the one block is G itself.  The root is
tested as primitive by w^(L/q) != 1 for every prime q | L; testing only
w^(L/2) = -1 would accept w = -1 for L = 6.
"""

from __future__ import annotations

from math import isqrt, lcm

import numpy as np

_INT64_SAFE = 2 ** 62  # entries must stay clear of int64 limits
_CRT_MIN_SIZE = 24     # below this, plain Bareiss wins

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


def primes_for(bound: int, order: int = 1) -> list:
    """Descending primes p = 1 (mod lcm(2, order)) below 2^31, enough for
    CRT to recover |x| <= bound; mod each of them, order-th roots of unity exist."""
    step = lcm(2, order)
    primes, modulus, c = [], 1, (2 ** 31 - 2) // step * step + 1
    while modulus <= 2 * bound:
        if _is_prime(c):
            primes.append(c)
            modulus *= c
        c -= step
    return primes


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


def bareiss_int(rows: list):
    """Fraction-free elimination with row pivoting; exact for any size.

    Entries may come from any ring whose // is exact division (int,
    Polynomial); an empty matrix gives 1 and a singular one 0.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 1:
        return m[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
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


def block_dets_mod(residues: np.ndarray, orbits: list, moduli: np.ndarray) -> np.ndarray:
    """Determinant residues of a stack of matrices invariant under the
    permutation whose orbits are given (module docstring), matrix b modulo
    moduli[b], each moduli[b] a prime = 1 (mod the lcm of the orbit sizes).

    residues[b, a] is row orbits[a][0] of matrix b, reduced mod moduli[b];
    each block k is eliminated by dets_mod and the results multiplied.
    """
    assert (moduli < 2 ** 31).all(), "residue products must stay within int64"
    sizes = np.array([len(orbit) for orbit in orbits])
    order = lcm(*sizes.tolist())
    width = int(sizes.max())
    # orbit b's members along the last axis, padded with its first member
    members = np.array([orbit + orbit[:1] * (width - len(orbit)) for orbit in orbits])
    distinct, which = np.unique(moduli, return_inverse=True)
    # inverse_powers[b, t] = w^(-t) mod moduli[b]
    roots = {p: _root_of_unity(p, order) for p in distinct.tolist()}
    inverse_powers = np.array([[pow(w, -t, p) for t in range(order)] for p, w in roots.items()],
                              dtype=np.int64)[which]
    m = moduli[:, None, None, None]
    columns = residues[:, :, members]
    blocks = np.zeros(columns.shape[:3] + (order,), dtype=np.int64)
    for j in range(width):
        # weight[b, c, k] = w^(-jk), or 0 past the end of orbit c
        weight = inverse_powers[:, np.arange(order) * j % order][:, None, :] * (j < sizes)[:, None]
        blocks = (blocks + columns[:, :, :, j, None] * weight[:, None]) % m
    # blocks k over the same orbits are eliminated together, in one stack
    same_orbits: dict = {}
    for k in range(order):
        same_orbits.setdefault(tuple(np.flatnonzero(k * sizes % order == 0)), []).append(k)
    det = np.ones(len(moduli), dtype=np.int64)
    for block, ks in same_orbits.items():
        index = np.array(block)
        stack = np.moveaxis(blocks[:, index[:, None], index[None, :]][..., ks], 3, 0)
        dets = dets_mod(stack.reshape(-1, len(block), len(block)), np.tile(moduli, len(ks)))
        for part in dets.reshape(len(ks), -1):
            det = det * part % moduli
    return det


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
    for block_dets_mod; singletons when None.
    """
    n = len(rows)
    if n == 0:
        return 1
    bound = hadamard_bound(rows)
    if bound == 0:
        return 0
    if max(abs(v) for row in rows for v in row) >= _INT64_SAFE:
        return bareiss_int(rows)
    if orbits is None:
        orbits = [(i,) for i in range(n)]
    primes = primes_for(bound, lcm(*(len(orbit) for orbit in orbits)))
    moduli = np.array(primes, dtype=np.int64)
    reps = np.array([rows[orbit[0]] for orbit in orbits], dtype=np.int64)
    residues = reps[None] % moduli[:, None, None]
    return crt(block_dets_mod(residues, orbits, moduli).tolist(), primes)


def int_det(rows: list, orbits: list | None = None) -> int:
    """Exact integer determinant; backend chosen by size, orbits as for crt_det."""
    n = len(rows)
    if n < _CRT_MIN_SIZE:
        return bareiss_int(rows)
    return crt_det(rows, orbits)
