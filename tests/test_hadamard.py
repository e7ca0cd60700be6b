"""Walsh-Hadamard matrix, butterfly program, and Kronecker layer tests."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qel.gates import Constant, Rotation, run_program
from qel.hadamard import (
    _bit_parity,
    fast_apply_wht,
    fast_wht_program,
    kron_rotation_layer,
    wht_matrix,
)

ATOL = 1e-13


def test_small_matrices_exact():
    r2 = 2.0 ** -0.5
    npt.assert_array_equal(wht_matrix(2), np.array([[r2, r2], [r2, -r2]]))
    H4 = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        dtype=float,
    )
    npt.assert_array_equal(wht_matrix(4), H4)


def test_wht_matrix_is_bitwise_the_parity_formula():
    # the in-place byte parities give exactly (1 - 2 parity(i & j)) n^-1/2,
    # the formula evaluated on n x n integer arrays
    for n in (2 ** k for k in range(1, 11)):
        idx = np.arange(n)
        expected = (1.0 - 2.0 * _bit_parity(idx[:, None] & idx[None, :])) * (n ** -0.5)
        F = wht_matrix(n)
        assert F.dtype == np.float64 and F.flags.c_contiguous
        assert F.tobytes() == expected.tobytes()


def test_wht_matrix_builds_one_n_by_n_array_of_doubles():
    # the result, plus an n x n byte matrix of parities: 1.125 n^2 doubles
    n = 1024
    tracemalloc.start()
    try:
        wht_matrix(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_symmetric_orthogonal_involution(n):
    F = wht_matrix(n)
    npt.assert_array_equal(F, F.T)
    npt.assert_allclose(F @ F, np.eye(n), atol=ATOL)
    npt.assert_array_equal(np.abs(F), np.full((n, n), n ** -0.5))


@pytest.mark.parametrize("n", [0, 1, 3, 12])
def test_rejects_non_powers_of_two(n):
    with pytest.raises(ValueError):
        wht_matrix(n)


@pytest.mark.parametrize("n", [2, 4, 8, 32, 256])
def test_butterfly_program_realizes_matrix(n):
    program = fast_wht_program(n)
    k = int(math.log2(n))
    assert program.rotation_count() == (n // 2) * k
    assert program.constant_count() == (n // 2) * k
    npt.assert_allclose(run_program(program).M, wht_matrix(n), atol=ATOL)


def test_butterfly_program_structure():
    program = fast_wht_program(4)
    kinds = [type(g) for g in program.gates]
    assert kinds == [Rotation, Constant] * 4
    rotations = [g for g in program.gates if isinstance(g, Rotation)]
    assert all(g.theta == math.pi / 4 for g in rotations)
    constants = [g for g in program.gates if isinstance(g, Constant)]
    assert all(g.c == -1.0 for g in constants)
    # first stage pairs neighbors, second stage pairs across the half
    assert (rotations[0].i, rotations[0].iprime) == (1, 2)
    assert (rotations[2].i, rotations[2].iprime) == (1, 3)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_fast_apply_matches_dense(n):
    rng = np.random.default_rng(21)
    F = wht_matrix(n)
    x = rng.standard_normal(n)
    npt.assert_allclose(fast_apply_wht(x), F @ x, atol=1e-12)
    npt.assert_allclose(fast_apply_wht(fast_apply_wht(x)), x, atol=1e-12)


def test_fast_apply_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fast_apply_wht(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        fast_apply_wht(np.zeros(3))


def test_kron_layer_realizes_single_factor():
    n, k = 8, 3
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    block = np.array([[c, s], [-s, c]])
    for stage in range(1, k + 1):
        layer = run_program(kron_rotation_layer(n, stage, theta)).M
        expect = np.eye(1)
        for position in range(1, k + 1):
            expect = np.kron(expect, block if position == stage else np.eye(2))
        npt.assert_allclose(layer, expect, atol=ATOL)


def test_kron_layers_commute_and_invert():
    n = 16
    a = run_program(kron_rotation_layer(n, 1, 0.4)).M
    b = run_program(kron_rotation_layer(n, 3, -0.9)).M
    npt.assert_allclose(a @ b, b @ a, atol=ATOL)
    a_inv = run_program(kron_rotation_layer(n, 1, -0.4)).M
    npt.assert_allclose(a @ a_inv, np.eye(n), atol=ATOL)


def test_kron_layer_stage_bounds():
    with pytest.raises(ValueError):
        kron_rotation_layer(8, 0, 0.1)
    with pytest.raises(ValueError):
        kron_rotation_layer(8, 4, 0.1)
