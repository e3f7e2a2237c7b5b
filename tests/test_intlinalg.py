"""The coefficient-row elimination of `dwu.intlinalg` against the dense one.

`row_reduce_mod` and `_reduce_transposed` keep only the coefficient rows of
the matrix they reduce and read its other columns on demand.  The dense
reduction in `tests/oracles.py` stores every row in full; both must give the
same echelon form and pivots, entry for entry.
"""

import numpy as np
import pytest
from oracles import row_reduce_mod as dense_row_reduce_mod

from dwu.cli import load_manifest
from dwu.cohomology import differential_matrix
from dwu.groups import build_group, enumerate_gradings
from dwu.intlinalg import _reduce_transposed, kernel_mod, row_reduce_mod, solve_mod

MODULI = [2, 4, 6, 8, 9, 12, 16, 24, 30, 32]


def random_matrix(rng, N):
    """Small matrix with zero rows, rows scaled by divisors of N and entries
    outside [0, N), the cases where a Howell form differs from Gaussian
    elimination."""
    rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
    A = rng.integers(-N, 2 * N, size=(rows, cols))
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    for i in range(rows):
        kind = rng.integers(4)
        if kind == 0:
            A[i] = 0
        elif kind == 1:
            A[i] *= int(rng.choice(divisors))
    return A


def full_form(A, N):
    """The rows (A @ t | t) of the reduced [A^T | I], written out in full."""
    T, pivots, A = _reduce_transposed(A, N)
    return np.hstack([T @ A.T % N, T]), pivots


def dense_transposed(A, N):
    A = np.asarray(A, dtype=np.int64)
    return dense_row_reduce_mod(np.hstack([A.T, np.eye(A.shape[1], dtype=np.int64)]), N)


def assert_same_form(got, expected):
    (H, pivots), (H_ref, pivots_ref) = got, expected
    assert list(pivots) == list(pivots_ref)
    assert H.dtype == H_ref.dtype and np.array_equal(H, H_ref)


@pytest.mark.parametrize("N", MODULI)
def test_row_reduce_matches_the_dense_elimination(N):
    rng = np.random.default_rng(N)
    for _ in range(40):
        A = random_matrix(rng, N)
        assert_same_form(row_reduce_mod(A, N), dense_row_reduce_mod(A, N))
        assert_same_form(full_form(A, N), dense_transposed(A, N))


@pytest.mark.parametrize("N", MODULI)
def test_solve_mod_returns_only_solutions(N):
    rng = np.random.default_rng(100 + N)
    for _ in range(20):
        A = random_matrix(rng, N)
        for b in (A @ rng.integers(0, N, size=A.shape[1]) % N, rng.integers(0, N, size=len(A))):
            y = solve_mod(A, b, N)
            assert y is None or np.array_equal(A @ y % N, b)


def test_products_past_int64_are_exact():
    """Left columns and back-substitution sum products of entries below N:
    at N = 2^31 - 1 those sums pass 2^63 and are taken in Python integers."""
    N = 2**31 - 1
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.integers(N // 2, N, size=(5, 4))
        x = rng.integers(N // 2, N, size=4)
        b = np.array([sum(int(a) * int(v) for a, v in zip(row, x)) % N for row in A])
        y = solve_mod(A, b, N)
        assert y is not None
        assert [sum(int(a) * int(v) for a, v in zip(row, y)) % N for row in A] == b.tolist()


# The pivot normalisation multiplies a row by the inverse of the unit g/d mod
# N/d, lifted to [0, N/d); when that lift is not a unit mod N the row module
# shrinks.  Both eliminations do it, so the comparisons above cannot see it.
SHRINKS = "pivot scaled by a non-unit mod N (open item in ROADMAP.md)"


@pytest.mark.xfail(strict=True, reason=SHRINKS)
def test_kernel_mod_finds_every_solution():
    """4x = 0 mod 6 for x in {0, 3}: the degree-0 differential of C6 under its grading."""
    assert kernel_mod(np.array([[4]]), 6).tolist() == [[3]]


@pytest.mark.xfail(strict=True, reason=SHRINKS)
def test_solve_mod_finds_a_solution_when_one_exists():
    A = np.array([[9], [8]])
    assert solve_mod(A, A @ [8] % 12, 12) is not None


def bases():
    """Every grading of the manifest groups of order at most 12, and D16's first."""
    for name in load_manifest()["groups"]:
        group = build_group(name)
        if group.order <= 12:
            for i, gg in enumerate(enumerate_gradings(group)):
                yield pytest.param(gg, id=f"{name}-g{i}")
    yield pytest.param(enumerate_gradings(build_group("D16"))[0], id="D16-g0")


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("gg", bases())
def test_kernel_of_the_differential_matches_the_dense_elimination(gg, degree):
    D, N = differential_matrix(gg.group, gg.sign, degree), gg.group.order
    expected = dense_transposed(D, N)
    assert_same_form(full_form(D, N), expected)
    H_ref, pivots_ref = expected
    gens = H_ref[[c >= len(D) for c in pivots_ref], len(D) :]
    K = kernel_mod(D, N)
    assert np.array_equal(K, dense_row_reduce_mod(gens, N)[0])
    assert not (D @ K.T % N).any()
