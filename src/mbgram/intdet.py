"""Exact determinants: one fraction-free elimination, one modular kernel.

  * bareiss_int: fraction-free elimination with row pivoting.  Every
    interior division is exact (Sylvester's identity), so it is exact
    for any size and over any ring whose // is exact division; gram
    uses it over Z[d, w, x, y, z] as well.  Intermediate growth makes it
    slow on integer matrices past roughly 40x40.

  * dets_mod: determinants of a stack of residue matrices, one modulus
    each, by numpy int64 elimination.  crt_det stacks one integer matrix
    once per prime, enough to exceed twice the Hadamard bound, and
    recombines by CRT (int64 entries only; bareiss_int otherwise); gram
    stacks grid points under one prime and calls interpolate_mod.

int_det picks between them by size.  The test suite cross-checks them.
"""

from __future__ import annotations

from math import isqrt

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


def primes_for(bound: int) -> list:
    """Descending primes below 2^31, enough for CRT to recover |x| <= bound."""
    primes, modulus, c = [], 1, 2 ** 31 - 1
    while modulus <= 2 * bound:
        if _is_prime(c):
            primes.append(c)
            modulus *= c
        c -= 2
    return primes


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

    Entries must be residues; the stack is overwritten.  A zero pivot
    swaps in the first row below with a nonzero entry (flipping the sign);
    if there is none the residue is 0, and as the inverse of 0 comes out
    0 the step changes nothing.  Inverses are pivot^(p-2), by square and
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


def crt_det(rows: list) -> int:
    """Exact determinant via residues modulo 31-bit primes."""
    n = len(rows)
    if n == 0:
        return 1
    bound = hadamard_bound(rows)
    if bound == 0:
        return 0
    if max(abs(v) for row in rows for v in row) >= _INT64_SAFE:
        return bareiss_int(rows)
    primes = primes_for(bound)
    moduli = np.array(primes, dtype=np.int64)
    stack = np.array(rows, dtype=np.int64)[None] % moduli[:, None, None]
    return crt(dets_mod(stack, moduli).tolist(), primes)


def int_det(rows: list) -> int:
    """Exact integer determinant; backend chosen by size."""
    n = len(rows)
    if n < _CRT_MIN_SIZE:
        return bareiss_int(rows)
    return crt_det(rows)
