"""Linear algebra over Z/N for cochain complexes.

Z/N is not a field, so plain Gaussian elimination is not enough: the row
reduction below is a Howell-style echelon form (pivots divide N, annihilator
rows N/gcd * row are folded back in) which makes span membership and kernel
computations exact for composite N.  Quotient groups ker/im are delivered as
invariant factors through an integer Smith reduction in which mod-N row
reductions are legal (the lattice always contains N*Z^k).
"""

from __future__ import annotations

import math

import numpy as np


def _egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def row_reduce_mod(A: np.ndarray, N: int):
    """Howell-style echelon form of the row span of A over Z/N.

    Returns (H, pivots) where H's rows generate the same row module, each
    pivot entry divides N, and entries above a pivot are reduced mod it.
    """
    A = np.array(A, dtype=np.int64) % N
    rows = [r for r in A if r.any()]
    m_cols = A.shape[1]
    result = []
    pivots = []
    col = 0
    while col < m_cols and rows:
        cand = [r for r in rows if r[col] % N]
        rest = [r for r in rows if not (r[col] % N)]
        if not cand:
            col += 1
            continue
        # combine candidates so the pivot becomes gcd of the column entries;
        # both combined rows leave a residual with a zero in this column
        piv = cand[0]
        for r in cand[1:]:
            g, u, v = _egcd(int(piv[col]), int(r[col]))
            new_piv = (u * piv + v * r) % N
            for old in (piv, r):
                resid = (old - (int(old[col]) // g) * new_piv) % N
                if resid.any():
                    rest.append(resid)
            piv = new_piv
        g = math.gcd(int(piv[col]), N)
        # normalize pivot to the canonical divisor g of N
        unit = (int(piv[col]) // g) % (N // g) if N // g > 1 else 1
        # invert the unit mod N/g, lift to mod N
        _, inv, _ = _egcd(unit, N // g)
        piv = (piv * (inv % (N // g) if N // g > 1 else 1)) % N
        piv[col] = g  # exact by construction
        # annihilator row: (N/g)*piv kills the pivot, may reveal lower entries
        ann = ((N // g) * piv) % N
        if ann.any():
            rest.append(ann)
        result.append((col, piv))
        pivots.append(col)
        rows = rest
        col += 1
    # reduce entries above pivots
    result_rows = [r for _, r in result]
    for i in range(len(result_rows) - 1, -1, -1):
        c = result[i][0]
        g = int(result_rows[i][c])
        for j in range(i):
            q = int(result_rows[j][c]) // g
            if q:
                result_rows[j] = (result_rows[j] - q * result_rows[i]) % N
    H = np.array(result_rows, dtype=np.int64) if result_rows else np.zeros((0, m_cols), dtype=np.int64)
    return H, pivots


def _reduce_transposed(A: np.ndarray, N: int):
    """Howell form of [A^T | I] and the width m of its left half; each row's right
    half is the combination of columns of A giving its left half."""
    A = np.asarray(A, dtype=np.int64) % N
    H, _ = row_reduce_mod(np.hstack([A.T, np.eye(A.shape[1], dtype=np.int64)]), N)
    return H, A.shape[0]


def _kernel_rows(H: np.ndarray, m: int, N: int) -> np.ndarray:
    # rows with zero left half give kernel generators
    gens = [r[m:] for r in H if not r[:m].any()]
    if not gens:
        return np.zeros((0, H.shape[1] - m), dtype=np.int64)
    K, _ = row_reduce_mod(np.array(gens, dtype=np.int64), N)
    return K


def _back_substitute(H: np.ndarray, m: int, b: np.ndarray, N: int):
    # reduce b against the rows of H's left half
    r = np.asarray(b, dtype=np.int64) % N
    x = np.zeros(H.shape[1] - m, dtype=np.int64)
    for row in H:
        nz = np.flatnonzero(row[:m])
        if len(nz) == 0 or r[nz[0]] == 0:
            continue
        q, rem = divmod(int(r[nz[0]]), int(row[nz[0]]))
        if rem:
            return None
        r = (r - q * row[:m]) % N
        x = (x + q * row[m:]) % N
    if r.any():
        return None
    return x


def kernel_mod(A: np.ndarray, N: int) -> np.ndarray:
    """Generators (rows) of {x in (Z/N)^n : A @ x = 0 mod N}."""
    return _kernel_rows(*_reduce_transposed(A, N), N)


def solve_mod(A: np.ndarray, b: np.ndarray, N: int):
    """One solution x of A @ x = b mod N, or None."""
    H, m = _reduce_transposed(A, N)
    return _back_substitute(H, m, b, N)


def quotient_invariants(kernel_gens: np.ndarray, relation_rows: np.ndarray, N: int):
    """Invariant factors and adapted basis of span(kernel)/span(relations) over Z/N.

    relation_rows must lie in the span of kernel_gens.  Returns
    (factors, basis) with factors the invariant factors > 1 in decreasing
    divisibility order and basis[i] the corresponding generator row (a vector
    in the ambient space) of order factors[i].
    """
    k = kernel_gens.shape[0]
    if k == 0:
        return [], np.zeros((0, kernel_gens.shape[1] if kernel_gens.ndim == 2 else 0), dtype=np.int64)
    # one reduction of [Z | I] expresses each relation in kernel coordinates
    # and gives the syzygies of the generators, which need not be independent
    H, m = _reduce_transposed(kernel_gens.T, N)
    coords = []
    for rel in relation_rows:
        c = _back_substitute(H, m, rel, N)
        if c is None:
            raise ValueError("relation not inside kernel span")
        coords.append(c)
    M = np.array(coords, dtype=np.int64).reshape(-1, k) if coords else np.zeros((0, k), dtype=np.int64)
    syzygies = _kernel_rows(H, m, N)
    M = np.vstack([M, syzygies.reshape(-1, k), N * np.eye(k, dtype=np.int64)])
    factors, V = _smith_mod(M, N)
    # row i of V is quotient generator i as a combination of the kernel generators
    basis = (V @ kernel_gens) % N
    out_factors, out_basis = [], []
    for f, row in zip(factors, basis):
        if f > 1:
            out_factors.append(int(f))
            out_basis.append(row % N)
    out = np.array(out_basis, dtype=np.int64) if out_basis else np.zeros((0, kernel_gens.shape[1]), dtype=np.int64)
    return out_factors, out


def _smith_mod(M: np.ndarray, N: int):
    """Smith reduction of M (rows span a lattice containing N*Z^k).

    Because N*I rows are present, reducing entries mod N is a legal row
    operation throughout, so entries stay bounded.  Returns (diag, V) where
    diag are the diagonal entries and V records the inverse column operations:
    quotient generator i is V[i] in the original coordinates.
    """
    M = M.copy() % N
    rows, cols = M.shape
    Vinv = np.eye(cols, dtype=np.int64)  # tracks basis change: new_basis = Vinv @ old
    diag = []
    r0 = 0
    for c in range(cols):
        # find the smallest nonzero entry in the remaining block, move to (r0, c)
        while True:
            block = M[r0:, c:]
            nz = np.nonzero(block)
            if len(nz[0]) == 0:
                break
            vals = np.abs(block[nz])
            k = int(np.argmin(vals))
            i, j = int(nz[0][k]) + r0, int(nz[1][k]) + c
            if i != r0:
                M[[r0, i]] = M[[i, r0]]
            if j != c:
                M[:, [c, j]] = M[:, [j, c]]
                Vinv[[c, j]] = Vinv[[j, c]]
            piv = int(M[r0, c])
            # eliminate column c below r0 and row r0 right of c
            col_rest = M[r0 + 1 :, c]
            if col_rest.any():
                q = col_rest // piv
                M[r0 + 1 :, :] -= np.outer(q, M[r0, :])
                M %= N
                if M[r0 + 1 :, c].any():
                    continue
            row_rest = M[r0, c + 1 :]
            if row_rest.any():
                q = row_rest // piv
                M[:, c + 1 :] -= np.outer(M[:, c], q)
                # column op: basis change old_col_j += q_j * old_col_c, so the
                # quotient generator for c absorbs the others inversely
                Vinv[c, :] = (Vinv[c, :] + q @ Vinv[c + 1 :, :]) % N
                M %= N
                if M[r0, c + 1 :].any():
                    continue
            break
        piv = int(M[r0, c]) if r0 < rows else 0
        if piv == 0:
            diag.append(0)
        else:
            diag.append(math.gcd(piv, N))
            r0 += 1
        if r0 >= rows:
            for c2 in range(c + 1, cols):
                diag.append(0)
            break
    # the lattice contains N*Z^k, so each diagonal entry divides N and is the
    # order of the corresponding quotient generator (0 cannot occur)
    factors = [d if d else N for d in diag]
    return factors, Vinv % N
