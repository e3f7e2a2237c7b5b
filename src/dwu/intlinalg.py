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


def kernel_mod(A: np.ndarray, N: int) -> np.ndarray:
    """Generators (rows) of {x in (Z/N)^n : A @ x = 0 mod N}."""
    A = np.asarray(A, dtype=np.int64) % N
    m, n = A.shape
    # reduce [A^T | I]; rows with zero left half give kernel generators
    aug = np.hstack([A.T % N, np.eye(n, dtype=np.int64)])
    H, _ = row_reduce_mod(aug, N)
    gens = [r[m:] for r in H if not r[:m].any()]
    # always include N*e_i implicitly: 0 mod N, so nothing to add
    if not gens:
        return np.zeros((0, n), dtype=np.int64)
    K, _ = row_reduce_mod(np.array(gens, dtype=np.int64), N)
    return K


def solve_mod(A: np.ndarray, b: np.ndarray, N: int):
    """One solution x of A @ x = b mod N, or None."""
    A = np.asarray(A, dtype=np.int64) % N
    b = np.asarray(b, dtype=np.int64) % N
    m, n = A.shape
    aug = np.hstack([A.T % N, np.eye(n, dtype=np.int64)])
    H, _ = row_reduce_mod(aug, N)
    # reduce b against rows of H's left half
    r = b.copy()
    x = np.zeros(n, dtype=np.int64)
    for row in H:
        left = row[:m]
        nz = np.nonzero(left)[0]
        if len(nz) == 0:
            continue
        c = nz[0]
        piv = int(left[c])
        if r[c] % N == 0:
            continue
        if int(r[c]) % piv != 0:
            return None
        q = int(r[c]) // piv
        r = (r - q * left) % N
        x = (x + q * row[m:]) % N
    if r.any():
        return None
    return x


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
    # express each relation in kernel coordinates
    coords = []
    for rel in relation_rows:
        c = solve_mod(kernel_gens.T, rel, N)
        if c is None:
            raise ValueError("relation not inside kernel span")
        coords.append(c)
    M = np.array(coords, dtype=np.int64).reshape(-1, k) if coords else np.zeros((0, k), dtype=np.int64)
    # generators need not be independent over Z/N: include their syzygies
    syzygies = kernel_mod(kernel_gens.T, N)
    M = np.vstack([M, syzygies.reshape(-1, k), N * np.eye(k, dtype=np.int64)])
    factors, V = _smith_mod(M, N)
    # generators of the quotient: rows of V^{-1}... we track the column ops so
    # that new coordinates y = x @ V; generator i of the quotient is the kernel
    # combination given by row i of inv(V).  Track inverse directly instead.
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
