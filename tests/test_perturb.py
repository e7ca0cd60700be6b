"""Perturbation synthesis tests: eigenbasis, Givens route, synthesized programs, closed forms."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from qel import perturb
from qel.gates import Constant, Rotation, run_program
from qel.hadamard import wht_matrix
from qel.perturb import (
    ROUTE_APPENDIX_B,
    ROUTE_FAST_KRONECKER,
    dense_cross_check,
    exact_inverse_perturbation,
    givens_decompose,
    inverse_residual,
    inverse_residual_norm,
    perturbation_matrix,
    perturbation_potentials,
    synth_perturbation,
    wht_eigenbasis,
)

REALIZE_ATOL = 1e-11
KAPPA_RTOL = 1e-9


def random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def test_perturbation_matrix_and_inverse_are_inverses():
    for n in (2, 16, 128):
        for eps in (0.0, 0.125, 0.4):
            M = perturbation_matrix(n, eps)
            Minv = exact_inverse_perturbation(n, eps)
            npt.assert_allclose(M @ Minv, np.eye(n), atol=1e-13)


def test_eps_domain_enforced():
    with pytest.raises(ValueError):
        perturbation_matrix(8, 0.5)
    with pytest.raises(ValueError):
        perturbation_matrix(8, -0.01)
    with pytest.raises(ValueError):
        synth_perturbation(8, 0.75, ROUTE_FAST_KRONECKER)


def test_inverse_residual_spectral_norm():
    for n in (8, 64):
        for eps in (0.125, 0.015625):
            Z = inverse_residual(n, eps)
            expect = inverse_residual_norm(eps)
            assert expect == pytest.approx(eps * eps / (1.0 - eps))
            assert np.linalg.norm(Z, 2) == pytest.approx(expect, rel=1e-9)


def test_eigenbasis_diagonalizes_the_transform():
    for n in (2, 8, 64):
        W, d = wht_eigenbasis(n)
        npt.assert_allclose(W @ W.T, np.eye(n), atol=1e-13)
        npt.assert_array_equal(np.sort(np.unique(d)), [-1.0, 1.0])
        npt.assert_allclose(W @ np.diag(d) @ W.T, wht_matrix(n), atol=1e-13)


def test_eigenvalue_signs_follow_index_bit_parity():
    _, d = wht_eigenbasis(8)
    npt.assert_array_equal(d, [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])


def test_eigenbasis_is_kronecker_power_of_eighth_turn():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    W2 = np.array([[c, -s], [s, c]])
    W, _ = wht_eigenbasis(8)
    npt.assert_allclose(W, np.kron(np.kron(W2, W2), W2), atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_givens_decompose_reconstructs_orthogonal(n):
    rng = np.random.default_rng(51)
    for trial in range(3):
        Q = random_orthogonal(n, rng)
        if trial == 2:
            Q[0] = -Q[0]  # force a reflection so sign gates appear
        program = givens_decompose(Q)
        npt.assert_allclose(run_program(program).M, Q, atol=1e-12)
        rotations = program.rotation_count()
        signs = program.constant_count()
        assert rotations <= n * (n - 1) // 2
        assert signs <= n
        assert all(
            g.c == -1.0 for g in program.gates if isinstance(g, Constant)
        )


def test_givens_decompose_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        givens_decompose(np.diag([1.0, 2.0]))


@pytest.mark.parametrize("route", [ROUTE_FAST_KRONECKER, ROUTE_APPENDIX_B])
@pytest.mark.parametrize("eps", [0.0, 0.125, 0.00390625])
def test_synthesis_realizes_perturbation(route, eps):
    n = 16
    plan = synth_perturbation(n, eps, route)
    realized = run_program(plan.program).M
    npt.assert_allclose(realized, perturbation_matrix(n, eps), atol=REALIZE_ATOL)
    expect_kappa = (1.0 + eps) / (1.0 - eps)
    assert plan.kappa_certificate == pytest.approx(expect_kappa, rel=1e-6)
    assert plan.kappa_certificate <= expect_kappa + 1e-9


def test_fast_route_gate_budget_exact():
    for n in (4, 32, 128):
        k = int(math.log2(n))
        plan = synth_perturbation(n, 0.125, ROUTE_FAST_KRONECKER)
        assert plan.program.rotation_count() == n * k
        assert plan.program.constant_count() == n
        assert len(plan.program) == n * k + n


def test_givens_route_gate_budget():
    n = 16
    plan = synth_perturbation(n, 0.125, ROUTE_APPENDIX_B)
    assert plan.program.rotation_count() <= n * (n - 1)
    assert plan.program.constant_count() >= n  # diagonal section at least


def test_routes_realize_the_same_matrix():
    n = 8
    eps = 0.0625
    fast = synth_perturbation(n, eps, ROUTE_FAST_KRONECKER)
    givens = synth_perturbation(n, eps, ROUTE_APPENDIX_B)
    npt.assert_allclose(
        run_program(fast.program).M, run_program(givens.program).M, atol=1e-11
    )


def test_unknown_route_rejected():
    with pytest.raises(ValueError, match="route"):
        synth_perturbation(8, 0.1, "diagonal")


def test_perturbation_steps_have_small_rotations():
    # every rotation in the synthesized program is an eighth turn or less
    plan = synth_perturbation(16, 0.125, ROUTE_FAST_KRONECKER)
    thetas = {abs(g.theta) for g in plan.program.gates if isinstance(g, Rotation)}
    assert thetas == {math.pi / 8}


@pytest.mark.parametrize("route, builds", [(ROUTE_FAST_KRONECKER, 0), (ROUTE_APPENDIX_B, 1)])
def test_synthesis_builds_the_dense_eigenbasis_only_for_givens(route, builds, monkeypatch):
    # the fast route needs only the eigenvalue signs; Appendix-B factors W once
    calls = []
    real = perturb.wht_eigenbasis

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(perturb, "wht_eigenbasis", spy)
    synth_perturbation(8, 0.125, route)
    assert calls == [8] * builds


def test_dense_cross_check_names_the_one_value_off():
    eps = 2.0 ** -5
    plain, precond, hat = perturbation_potentials(64, eps)
    messages = dense_cross_check(64)(eps, (plain * (1.0 + 1e-8), precond, hat))
    assert len(messages) == 1
    assert messages[0].startswith(f"phi_plain closed form {plain * (1.0 + 1e-8)!r} ")
    assert messages[0].endswith(" at n=64 eps=0.03125")

