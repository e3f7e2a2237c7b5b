"""Linear algebra over Z/N for cochain complexes.

Z/N is not a field, so plain Gaussian elimination is not enough: the row
reduction below is a Howell-style echelon form (pivots divide N, annihilator
rows N/gcd * row are folded back in) which makes span membership and kernel
computations exact for composite N.  Kernels and solutions reduce [A^T | I]
as coefficient rows t alone (a row is (A @ t | t)), reading a left column
from the nonzeros of A[c] when the sweep reaches it.  Quotient groups ker/im
are invariant factors of an integer Smith reduction in which mod-N row
reductions are legal (the lattice always contains N*Z^k).
"""

from __future__ import annotations

import math

import numpy as np


def _egcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _dot_mod(X: np.ndarray, Y: np.ndarray, N: int) -> np.ndarray:
    """X @ Y mod N for entries in [0, N); exact Python ints where int64 could overflow."""
    if X.shape[-1] * (N - 1) ** 2 < 2**63:
        return X @ Y % N
    return (X.astype(object) @ Y.astype(object) % N).astype(np.int64)


def _howell(T: np.ndarray, A: np.ndarray, N: int):
    """Howell-style echelon form (R, pivots) of the rows (A @ t | t), t in T.

    Row i of the form is (A @ R[i] | R[i]) mod N; its pivot column counts A's
    rows first, divides N and reduces the entries above it.  Every step is
    Z/N-linear, so only the coefficient rows are kept.
    """
    m = A.shape[0]
    rows = T % N
    rows = rows[rows.any(axis=1)]
    done, pivots, values = [], [], []
    nz_row, nz_col = np.nonzero(A)
    nz_val = A[nz_row, nz_col] % N
    bounds = np.searchsorted(nz_row, np.arange(m + 1)).tolist()

    def column(R, c):
        if c >= m:
            return R[:, c - m]
        nz = slice(bounds[c], bounds[c + 1])
        return _dot_mod(R[:, nz_col[nz]], nz_val[nz], N)

    for col in range(m + T.shape[1]):
        if not len(rows):
            break
        vals = column(rows, col)
        cand = np.flatnonzero(vals)
        if not len(cand):
            continue
        # combine candidates so the pivot becomes gcd of the column entries;
        # both combined rows leave a residual with a zero in this column
        rest = [rows[vals == 0]]
        piv, g = rows[cand[0]], int(vals[cand[0]])
        for r, rc in zip(rows[cand[1:]], vals[cand[1:]].tolist()):
            g_new, u, v = _egcd(g, rc)
            new_piv = (u * piv + v * r) % N
            for old, oc in ((piv, g), (r, rc)):
                resid = (old - (oc // g_new) * new_piv) % N
                if resid.any():
                    rest.append(resid[None])
            piv, g = new_piv, g_new
        # normalize the pivot to d = gcd(g, N): invert the unit g/d mod N/d
        d = math.gcd(g, N)
        _, inv, _ = _egcd((g // d) % (N // d), N // d)
        piv = piv * (inv % (N // d)) % N
        # annihilator row: (N/d)*piv kills the pivot, may reveal lower entries
        ann = (N // d) * piv % N
        if ann.any():
            rest.append(ann[None])
        done.append(piv)
        pivots.append(col)
        values.append(d)
        rows = np.vstack(rest)
    R = np.array(done, dtype=np.int64).reshape(len(done), T.shape[1])
    # reduce entries above pivots
    for i in range(len(R) - 1, 0, -1):
        q = column(R[:i], pivots[i]) // values[i]
        hit = np.flatnonzero(q)
        R[hit] = (R[hit] - q[hit, None] * R[i]) % N
    return R, pivots


def row_reduce_mod(A: np.ndarray, N: int):
    """Howell-style echelon form (H, pivots) of the row span of A over Z/N:
    each pivot entry divides N and the entries above it are reduced mod it."""
    A = np.array(A, dtype=np.int64) % N
    return _howell(A, np.zeros((0, A.shape[1]), dtype=np.int64), N)


def _reduce_transposed(A: np.ndarray, N: int):
    """Howell form of [A^T | I] as (T, pivots, A): its row i is
    (A @ T[i] | T[i]), the combination T[i] of columns of A and its value."""
    A = np.asarray(A, dtype=np.int64)
    return (*_howell(np.eye(A.shape[1], dtype=np.int64), A, N), A)


def _kernel_rows(T: np.ndarray, pivots, A: np.ndarray, N: int) -> np.ndarray:
    # rows pivoting right of A's rows have zero left half: kernel generators
    return row_reduce_mod(T[np.array(pivots, dtype=np.int64) >= len(A)], N)[0]


def _back_substitute(T: np.ndarray, pivots, A: np.ndarray, b: np.ndarray, N: int):
    # reduce b against the rows whose left half A @ t is nonzero
    left = [i for i, c in enumerate(pivots) if c < len(A)]
    L = _dot_mod(T[left], A.T % N, N)
    r = np.asarray(b, dtype=np.int64) % N
    x = np.zeros(T.shape[1], dtype=np.int64)
    for i, row in zip(left, L):
        q, rem = divmod(int(r[pivots[i]]), int(row[pivots[i]]))
        if rem:
            return None
        r = (r - q * row) % N
        x = (x + q * T[i]) % N
    return None if r.any() else x


def kernel_mod(A: np.ndarray, N: int) -> np.ndarray:
    """Generators (rows) of {x in (Z/N)^n : A @ x = 0 mod N}."""
    return _kernel_rows(*_reduce_transposed(A, N), N)


def solve_mod(A: np.ndarray, b: np.ndarray, N: int):
    """One solution x of A @ x = b mod N, or None."""
    return _back_substitute(*_reduce_transposed(A, N), b, N)


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
    reduced = _reduce_transposed(kernel_gens.T, N)
    coords = []
    for rel in relation_rows:
        c = _back_substitute(*reduced, rel, N)
        if c is None:
            raise ValueError("relation not inside kernel span")
        coords.append(c)
    M = np.array(coords, dtype=np.int64).reshape(-1, k)
    syzygies = _kernel_rows(*reduced, N)
    M = np.vstack([M, syzygies.reshape(-1, k), N * np.eye(k, dtype=np.int64)])
    factors, V = _smith_mod(M, N)
    # row i of V is quotient generator i as a combination of the kernel generators
    basis = _dot_mod(V, kernel_gens % N, N)
    keep = [i for i, f in enumerate(factors) if f > 1]
    return [int(factors[i]) for i in keep], basis[keep]


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
        piv = int(M[r0, c])
        diag.append(math.gcd(piv, N) if piv else 0)
        if piv:
            r0 += 1
        if r0 >= rows:
            diag.extend([0] * (cols - c - 1))
            break
    # the lattice contains N*Z^k, so each diagonal entry divides N and is the
    # order of the corresponding quotient generator (0 cannot occur)
    factors = [d if d else N for d in diag]
    return factors, Vinv % N
