"""Linear algebra over Z/N for cochain complexes.

Z/N is not a field, so plain Gaussian elimination is not enough: the row
reduction below is a Howell-style echelon form (pivots divide N, annihilator
rows N/gcd * row are folded back in) which makes span membership and kernel
computations exact for composite N.  Kernels and solutions reduce [A^T | I]
as coefficient rows t alone (a row is (A @ t | t)), with A a sparse operator
(its k padded nonzeros per row).  A pivot step decides its merges and swaps
on the column values alone, then forms every row it leaves as x + b*y of two
candidate or merged-pivot rows in one array step.  The live rows sit in one
pool, where a pivot step writes the rows it leaves over the ones it consumed;
the pool and each step use the narrowest signed integer type from int16 up
that holds k*(N-1)^2 and 2*(N-1)^2, their widest sums.  Beside each t the
pool keeps a window of A @ t, carried along by the linear steps and gathered
once per window: one take of each face's columns and one of the live rows,
the smaller copy first, then one sum over the faces.  Every gather of A's
columns, the back substitution's too, is bounded by BLOCK entries.  A
kernel stores and back-reduces only its own rows, the tail of the form, and
one pass over the form solves for every right-hand side at once.  Quotient
groups ker/im are invariant factors of an integer Smith reduction in which
mod-N row reductions are legal (the lattice always contains N*Z^k).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

BLOCK = 1 << 16  # entries one block of columns gathers


def _egcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _mod(x, N: int):
    """x % N; numpy divides by a scalar several times faster than it takes a remainder."""
    return x - x // N * N


def _dot_mod(X: np.ndarray, Y: np.ndarray, N: int) -> np.ndarray:
    """X @ Y mod N for entries in [0, N); exact Python ints where int64 could overflow."""
    if X.shape[-1] * (N - 1) ** 2 < 2**63:
        return X @ Y % N
    return (X.astype(object) @ Y.astype(object) % N).astype(np.int64)


class SparseRows(NamedTuple):
    """A cols-column matrix as padded rows: row i is sum_k coef[i, k] e_{idx[i, k]}."""

    idx: np.ndarray
    coef: np.ndarray
    cols: int


def _sparse(A, N: int) -> SparseRows:
    """A (dense or SparseRows) as SparseRows with coefficients in [0, N)."""
    if not isinstance(A, SparseRows):
        A = np.asarray(A, dtype=np.int64)
        nz = A % N != 0
        idx = np.argsort(~nz, axis=1, kind="stable")[:, : int(nz.sum(axis=1).max(initial=0))]
        A = SparseRows(idx, np.take_along_axis(A, idx, axis=1), A.shape[1])
    return SparseRows(A.idx, A.coef % N, A.cols)


def _columns(P: np.ndarray, live: np.ndarray, A: SparseRows, c0: int, c1: int, N: int) -> np.ndarray:
    """Columns c0..c1 of the rows (A @ r | r), r in P[live], all left or all right of A's rows."""
    m, k, w = len(A.idx), A.idx.shape[1], c1 - c0
    if c0 >= m:
        return P[live, c0 - m : c1 - m]
    cols, coef = A.idx[c0:c1].T.ravel(), A.coef[c0:c1].T  # face by face
    if w == 1:
        X = P[live[:, None], cols]
    elif len(live) * P.shape[1] < len(P) * len(cols):  # copy the smaller table first
        X = P.take(live, axis=0).take(cols, axis=1)
    else:
        X = P.take(cols, axis=1).take(live, axis=0)
    X = X.reshape(len(live), k, w)
    if k * (N - 1) ** 2 >= 2**63:
        return _mod((X.astype(object) * coef).sum(axis=1), N).astype(np.int64)
    return _mod(np.einsum("lkw,kw->lw", X, coef), N)


def _howell(T: np.ndarray, A: SparseRows, N: int, first: int = 0):
    """Howell-style echelon form (R, pivots) of the rows (A @ t | t), t in T,
    restricted to the rows pivoting at or past column first.

    Row i of the form is (A @ R[i] | R[i]) mod N; its pivot column counts A's
    rows first, divides N and reduces the entries above it.  Every step is
    Z/N-linear, so only coefficient rows are kept, in a pool read in the
    order of the live rows, and a pivot row left of first is not stored.
    Past its n columns t the pool holds A's columns w0..w1 of every live
    row, gathered within BLOCK entries, live rows x faces x columns.  The
    pivot is the first nonzero column whatever the window."""
    n, m, k = T.shape[1], len(A.idx), max(1, A.idx.shape[1])
    # the step's widest sum: k*(N-1)^2 in a left column, u*piv + v*r of an
    # egcd merge (|u|, |v| < N), or x + b*y; all exact in the step dtype
    dt = next((t for t in (np.int16, np.int32) if max(k, 2) * (N - 1) ** 2 <= np.iinfo(t).max), np.int64)
    if 2 * (N - 1) ** 2 > np.iinfo(np.int64).max:
        raise OverflowError(f"Z/{N} elimination needs N <= 2**31: its merges pass int64")
    A = A._replace(coef=A.coef.astype(dt))  # past int64, _columns sums Python ints
    w = min(m, max(1, BLOCK // (max(1, len(T)) * k)))
    pool = np.concatenate([T % N, np.empty((len(T), w), dt)], axis=1, dtype=dt)
    live = pool[:, :n].any(axis=1)
    order, free = np.flatnonzero(live), np.flatnonzero(~live)
    done, col, w0, w1 = [], 0, 0, 0
    while col < m + n and len(order):
        if col == w1 < m:  # the next window of A's columns
            w0, w1 = col, min(m, col + max(1, BLOCK // (len(pool) * k)))
            pool[order, n : n + w1 - w0] = _columns(pool, order, A, w0, w1, N)
        off, stop = (n + col - w0, w1) if col < m else (col - m, m + n)
        nz = pool[order, off] != 0
        slots = order[nz]
        if not len(slots):  # scan on for the first nonzero column
            span = min(stop - col, max(1, BLOCK // len(order)))
            hit = pool[:, off : off + span][order].any(axis=0)
            col += int(hit.argmax()) if hit.any() else span
            continue
        # every row the step leaves is E[i] + b*E[j] mod N, E the candidates
        # and then the pivots merged from them.  A value c dividing the
        # pivot's g makes r the pivot (residual piv - (g/c)*r; a merge would
        # copy r); else, until g is the column's gcd, the pivot merges with r,
        # both leaving a residual, and past it a value k*g leaves r - k*piv.
        cand = pool.take(slots, axis=0)
        cv = cand[:, off].tolist()
        E, rows, G, g, cur, piv = [cand], [], math.gcd(*cv), cv[0], 0, cand[0]
        for j, c in enumerate(cv[1:], 1):
            if g % c == 0:
                rows += (cur, N - g // c, j)
                cur, g, piv = j, c, cand[j]
            elif g != G:
                g_new, u, v = _egcd(g, c)
                piv = _mod(u * piv + v * cand[j], N)
                E.append(piv[None])
                new = len(cv) + len(E) - 2
                rows += (cur, N - g // g_new, new, j, N - c // g_new, new)
                cur, g = new, g_new
            else:
                rows += (j, N - c // g, cur)
        # normalize the pivot to d = gcd(g, N): invert the unit g/d mod N/d;
        # the annihilator row (N/d)*piv kills the pivot and may reveal lower
        # entries (it is zero for d = 1).  u*piv is piv + (u - 1)*piv.
        d = math.gcd(g, N)
        inv = pow(g // d, -1, N // d)
        rows = [cur, (inv - 1) % N, cur] + rows + [cur, ((N // d) * inv - 1) % N, cur] * (d > 1)
        i, b, j = np.array(rows).reshape(-1, 3).T
        E = np.concatenate(E) if len(E) > 1 else cand
        rest = E.take(j, axis=0)
        rest *= b.astype(dt)[:, None]
        rest += E.take(i, axis=0)
        rest -= rest // N * N
        done += [(col, d, rest[0, :n].copy())] if col >= first else []  # a copy keeps no step's rows alive
        # the rows left go to the consumed slots, then to free ones; fewer
        # than the consumed and live rows together, so one doubling fits them
        rest, slots = rest[1:][rest[1:].any(axis=1)], np.concatenate([slots, free])
        if len(rest) > len(slots):
            slots = np.concatenate([slots, np.arange(len(pool), 2 * len(pool))])
            pool = np.concatenate([pool, np.empty_like(pool)])
        pool[slots[: len(rest)]] = rest
        order, free = np.concatenate([order[~nz], slots[: len(rest)]]), slots[len(rest) :]
        col += 1
    pivots, values = [c for c, _, _ in done], [d for _, d, _ in done]
    R = np.array([r for _, _, r in done], dtype=np.int64).reshape(len(done), n)
    # reduce entries above pivots, bottom up; not canonical, as a row's remainder
    # in a later pivot column comes along and can unreduce the rows it reduces
    for i in range(len(R) - 1, 0, -1):
        q = _columns(R, np.arange(i), A, pivots[i], pivots[i] + 1, N)[:, 0] // values[i]
        hit = np.flatnonzero(q)
        R[hit] = _mod(R[hit] - q[hit, None] * R[i], N)
    return R, pivots


def row_reduce_mod(A: np.ndarray, N: int):
    """Howell-style echelon form (H, pivots) of the row span of A over Z/N:
    each pivot entry divides N and the entries above it are reduced mod it."""
    A = np.array(A, dtype=np.int64)
    return _howell(A, _sparse(np.zeros((0, A.shape[1]), dtype=np.int64), N), N)


def _reduce_transposed(A, N: int):
    """Howell form of [A^T | I] as (T, pivots, A): its row i is
    (A @ T[i] | T[i]), the combination T[i] of columns of A and its value."""
    A = _sparse(A, N)
    return (*_howell(np.eye(A.cols, dtype=np.min_scalar_type(N)), A, N), A)


def _back_substitute(T: np.ndarray, pivots, A: SparseRows, B: np.ndarray, N: int):
    """(X, ok) with A @ X[j] = B[j] mod N where ok[j]: one pass over the rows
    whose left half A @ t is nonzero reduces every row of B.  A remainder
    left in a pivot column stays, as the rows below are zero there."""
    m = len(A.idx)
    left = np.array([i for i, c in enumerate(pivots) if c < m], dtype=np.int64)
    L, step = np.zeros((len(left), m), dtype=np.int64), max(1, BLOCK // max(1, len(T) * A.idx.shape[1]))
    for c in range(0, m, step):
        L[:, c : c + step] = _columns(T, left, A, c, min(c + step, m), N)
    R = np.asarray(B, dtype=np.int64) % N
    X = np.zeros((len(R), T.shape[1]), dtype=np.int64)
    for i, row in zip(left.tolist(), L):
        hit = np.flatnonzero(R[:, pivots[i]] >= row[pivots[i]])
        q = R[hit, pivots[i], None] // row[pivots[i]]
        R[hit], X[hit] = _mod(R[hit] - q * row, N), _mod(X[hit] + q * T[i], N)
    return X, ~R.any(axis=1)


def kernel_mod(A, N: int) -> np.ndarray:
    """Generators (rows) of {x in (Z/N)^n : A @ x = 0 mod N}; A dense or SparseRows."""
    # rows pivoting right of A's rows have zero left half: kernel generators
    A = _sparse(A, N)
    return row_reduce_mod(_howell(np.eye(A.cols, dtype=np.min_scalar_type(N)), A, N, len(A.idx))[0], N)[0]


def solve_mod(A, b: np.ndarray, N: int):
    """One solution x of A @ x = b mod N, or None; A dense or SparseRows."""
    X, ok = _back_substitute(*_reduce_transposed(A, N), np.asarray(b)[None], N)
    return X[0] if ok[0] else None


def quotient_invariants(kernel_gens: np.ndarray, relation_rows: np.ndarray, N: int):
    """Invariant factors and adapted basis of span(kernel)/span(relations) over Z/N.

    relation_rows must lie in the span of kernel_gens.  Returns
    (factors, basis) with factors the invariant factors > 1 in decreasing
    divisibility order and basis[i] the corresponding generator row (a vector
    in the ambient space) of order factors[i].
    """
    k = kernel_gens.shape[0]
    if k == 0:
        if np.any(np.asarray(relation_rows) % N):
            raise ValueError("relation not inside kernel span")
        return [], np.zeros((0, kernel_gens.shape[1] if kernel_gens.ndim == 2 else 0), dtype=np.int64)
    # one reduction of [Z | I] expresses each relation in kernel coordinates
    # and gives the syzygies of the generators, which need not be independent
    T, pivots, A = _reduce_transposed(kernel_gens.T, N)
    M, ok = _back_substitute(T, pivots, A, np.reshape(relation_rows, (-1, len(A.idx))), N)
    if not ok.all():
        raise ValueError("relation not inside kernel span")
    syzygies = row_reduce_mod(T[np.array(pivots, dtype=np.int64) >= len(A.idx)], N)[0]
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
