"""Gate model tests: validation, joint state evolution, serialization."""

import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from qel import gates, potential
from qel.gates import (
    Constant,
    GateProgram,
    KappaCertifier,
    Rotation,
    TrackedState,
    apply_gate,
    condition_number,
    inverse_drift,
    load_program,
    rotate_rows,
    program_from_text,
    program_to_text,
    random_program,
    run_program,
    save_program,
    verify_well_conditioned,
)
from qel.hadamard import fast_wht_program, wht_matrix
from qel.potential import PotentialSpec, trace_potentials

DATA = Path(__file__).parent / "data"
ATOL = 1e-12
DRIFT_ATOL = 1e-10


def paired(M, MinvT):
    """A state at (M, MinvT), stacked into its own row layout."""
    return TrackedState(np.stack([M, MinvT], axis=1))


def rotation_block(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def test_rotation_validation():
    GateProgram(4, [Rotation(1, 2, 0.5)])
    with pytest.raises(ValueError,
                       match=r"^gate 1: rotation indices \(1,5\) out of range for n=4$"):
        GateProgram(4, [Rotation(1, 5, 0.5)])
    # the other checks run once, when the gate is built
    for args in [(0, 2, 0.5), (3, 3, 0.5), (1, 2, math.inf)]:
        with pytest.raises(ValueError):
            Rotation(*args)


def test_constant_validation():
    GateProgram(4, [Constant(4, -2.0)])
    with pytest.raises(ValueError, match=r"^gate 1: constant gate row 5 out of range for n=4$"):
        GateProgram(4, [Constant(5, 1.0)])
    for args in [(0, 2.0), (1, 0.0), (1, math.nan)]:
        with pytest.raises(ValueError):
            Constant(*args)


def test_program_validation_reports_gate_index():
    with pytest.raises(ValueError, match="gate 2"):
        GateProgram(4, [Rotation(1, 2, 0.1), Constant(9, 1.0)])


@pytest.mark.parametrize("gate", [Rotation(1, 9, 0.5), Rotation(9, 1, 0.5), Constant(9, 2.0)])
def test_apply_gate_beyond_n_raises_before_writing(gate):
    # apply_gate does not validate; numpy's index check must fire before
    # M or MinvT is written
    rng = np.random.default_rng(10)
    M0 = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    state = paired(M0, np.linalg.inv(M0).T)
    MinvT0 = state.MinvT.copy()
    with pytest.raises(IndexError):
        apply_gate(state, gate)
    assert np.array_equal(state.M, M0) and np.array_equal(state.MinvT, MinvT0)
    assert state.t == 0


def test_the_state_is_one_row_layout_that_m_and_its_inverse_view():
    # M and M^-T are views of the rows' two slots: a write through either
    # lands in `rows` (the NaN-poisoning tests rely on it), and neither can
    # be rebound to another array
    state = TrackedState.identity(3)
    assert state.rows.shape == (3, 2, 3) and state.t == 0
    assert np.array_equal(state.rows, np.stack([np.eye(3), np.eye(3)], axis=1))
    assert np.shares_memory(state.M, state.rows) and np.shares_memory(state.MinvT, state.rows)
    state.M[0, 2] = 5.0
    state.MinvT[1] *= -2.0
    assert state.rows[0, 0, 2] == 5.0 and state.rows[1, 1].tolist() == [0.0, -2.0, 0.0]
    for name in ("M", "MinvT"):
        with pytest.raises(AttributeError):
            setattr(state, name, np.eye(3))


def test_apply_rotation_matches_left_multiplication():
    rng = np.random.default_rng(11)
    M0 = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    state = paired(M0, np.linalg.inv(M0).T)
    theta = 0.7
    apply_gate(state, Rotation(2, 5, theta))
    G = np.eye(6)
    G[np.ix_([1, 4], [1, 4])] = rotation_block(theta)
    npt.assert_allclose(state.M, G @ M0, atol=ATOL)
    npt.assert_allclose(state.MinvT, G @ np.linalg.inv(M0).T, atol=1e-10)
    npt.assert_allclose(state.M.T @ state.MinvT, np.eye(6), atol=1e-10)


def test_rotate_rows_is_bitwise_the_two_products_and_their_sum():
    # in place, each entry is still fl(fl(c a) + fl(s b)) and fl(fl(c b) - fl(s a)),
    # for one row pair of a matrix and for one pair of row blocks of a stack
    rng = np.random.default_rng(14)
    c, s = math.cos(0.7), math.sin(0.7)
    for X in (rng.standard_normal((6, 9)), rng.standard_normal((6, 3, 9))):
        a, b = X[1].copy(), X[4].copy()
        rotate_rows(X, 1, 4, c, s)
        assert X[1].tobytes() == (c * a + s * b).tobytes()
        assert X[4].tobytes() == (c * b - s * a).tobytes()


def test_rotate_rows_rejects_index_arrays():
    # X[[i, j]] would select a copy, and an in-place rotation of a copy is lost
    X = np.eye(4)
    with pytest.raises(TypeError):
        rotate_rows(X, np.array([0, 1]), np.array([2, 3]), 0.6, 0.8)
    assert np.array_equal(X, np.eye(4))


def test_rotating_two_rows_allocates_at_most_two_rows():
    # s X[i'] and s X[i] are the only temporaries; 1 KiB covers the views
    n = 1024
    X = np.random.default_rng(15).standard_normal((n, n))
    c, s = math.cos(0.3), math.sin(0.3)
    tracemalloc.start()
    try:
        rotate_rows(X, 3, 700, c, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + 1024


def test_apply_constant_scales_row_and_inverse_row():
    rng = np.random.default_rng(12)
    M0 = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    state = paired(M0, np.linalg.inv(M0).T)
    apply_gate(state, Constant(3, -4.0))
    npt.assert_allclose(state.M[2], -4.0 * M0[2], atol=ATOL)
    npt.assert_allclose(state.M.T @ state.MinvT, np.eye(5), atol=1e-10)


def test_inverse_transpose_stays_synchronized_along_random_program():
    rng = np.random.default_rng(13)
    program = random_program(16, 300, 30, rng)
    state = run_program(program)
    assert state.t == len(program)
    assert inverse_drift(state) < DRIFT_ATOL


@pytest.mark.parametrize("n", [1, 2, 64, 256, 600, 1024])
def test_inverse_drift_matches_the_identity_subtraction_bitwise(n):
    # from n = 363 on, inverse_drift forms M^T M^-T in blocks of columns of M
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    G = rng.standard_normal((n, n)) + n * np.eye(n)
    states = [paired(Q, Q),                               # orthogonal
              paired(G, np.linalg.inv(G).T),              # non-orthogonal
              paired(G, np.linalg.inv(G).T + 1e-9 * Q)]   # drifted inverse
    for state in states:
        M, MinvT = state.M.copy(), state.MinvT.copy()
        expected = float(np.max(np.abs(M.T @ MinvT - np.eye(n))))
        assert inverse_drift(state).hex() == expected.hex()
        assert np.array_equal(state.M, M) and np.array_equal(state.MinvT, MinvT)


def test_run_program_observer_sees_every_gate():
    program = fast_wht_program(8)
    seen = []
    run_program(program, observers=[lambda t, gate, state: seen.append(t)])
    assert seen == list(range(1, len(program) + 1))


def test_run_program_only_applies_gates(monkeypatch):
    # longer than 1024 gates, so a periodic inverse check in the loop would fire
    program = random_program(8, 1100, 10, np.random.default_rng(19))
    calls = []
    real = GateProgram.__post_init__
    monkeypatch.setattr(GateProgram, "__post_init__",
                        lambda self: calls.append("validate") or real(self))
    monkeypatch.setattr(gates, "inverse_drift", lambda state: calls.append("drift") or 0.0)
    run_program(program)
    verify_well_conditioned(program, kappa_max=1e6)
    assert calls == []


def test_drift_check_raises_on_impossible_tolerance(monkeypatch):
    # the tracked inverse is checked at the trace's checkpoints
    rng = np.random.default_rng(14)
    program = random_program(8, 64, 8, rng)
    monkeypatch.setattr(potential, "DRIFT_TOL", 1e-18)
    with pytest.raises(RuntimeError, match="step 16: inverse-transpose drift"):
        trace_potentials(program, PotentialSpec.plain(8), recompute_every=16)


def test_program_matrix_realizes_walsh_hadamard():
    for n in (2, 4, 16):
        F = run_program(fast_wht_program(n)).M
        npt.assert_allclose(F, wht_matrix(n), atol=1e-13)


def test_condition_number_exact_cases():
    assert condition_number(np.eye(7)) == pytest.approx(1.0)
    assert condition_number(np.diag([2.0, 1.0, 1.0])) == pytest.approx(2.0)
    M = np.eye(3)
    M[1, 1] = 0.0
    with pytest.raises(ValueError, match="singular"):
        condition_number(M)


def test_verify_well_conditioned_isometry_program():
    rng = np.random.default_rng(15)
    drawn = random_program(12, 80, 8, rng).gates
    program = GateProgram(12, [Constant(g.i, math.copysign(1.0, g.c))  # sign flips only
                               if isinstance(g, Constant) else g for g in drawn])
    assert any(isinstance(g, Constant) and g.c == -1.0 for g in program.gates)
    report = verify_well_conditioned(program, kappa_max=1.0 + 1e-9)
    assert report.passed
    assert report.max_kappa == pytest.approx(1.0, abs=1e-9)


def test_verify_well_conditioned_flags_large_scaling():
    program = GateProgram(4, [Rotation(1, 2, 0.3), Constant(1, 8.0)])
    report = verify_well_conditioned(program, kappa_max=2.0)
    assert not report.passed
    assert report.max_kappa == pytest.approx(8.0)
    assert report.at_step == 2


def test_exhaustive_and_sampled_conditioning_agree():
    rng = np.random.default_rng(16)
    program = random_program(8, 60, 12, rng)
    fast = verify_well_conditioned(program, kappa_max=1e6)
    slow = KappaCertifier(exhaustive=True)
    run_program(program, observers=[slow])
    assert fast.max_kappa > 2.0  # the draw's scalings move kappa
    assert fast.max_kappa == pytest.approx(slow.max_kappa, rel=1e-9)


def test_certifier_recomputes_after_scalings_and_at_final_step(monkeypatch):
    calls = []
    real = gates.condition_number
    monkeypatch.setattr(gates, "condition_number", lambda M: calls.append(1) or real(M))
    program = GateProgram(4, [Rotation(1, 2, 0.3), Constant(1, -1.0),
                              Constant(2, 2.0), Rotation(2, 3, 0.1)])
    report = verify_well_conditioned(program, kappa_max=2.0 + 1e-9)
    assert len(calls) == 2  # after the |c| != 1 gate and at t = m
    assert report.passed and report.max_kappa == pytest.approx(2.0)
    calls.clear()
    run_program(program, observers=[KappaCertifier()])
    assert len(calls) == 1
    calls.clear()
    run_program(program, observers=[KappaCertifier(exhaustive=True)])
    assert len(calls) == 4


def test_certifier_names_the_singular_step():
    program = GateProgram(3, [Rotation(1, 2, 0.3), Constant(2, 1e-13)])
    with pytest.raises(ValueError, match="step 2: .*singular"):
        verify_well_conditioned(program, kappa_max=10.0)


def test_program_text_round_trip():
    rng = np.random.default_rng(17)
    program = random_program(8, 25, 5, rng)
    text = program_to_text(program)
    back = program_from_text(text)
    assert back.n == program.n
    assert back.gates == program.gates


def test_program_text_header_and_comments():
    text = "# produced by hand\nn 4 m 2\nR 1 2 0.5\nC 3 -1.0\n"
    program = program_from_text(text)
    assert program.n == 4
    assert program.gates == (Rotation(1, 2, 0.5), Constant(3, -1.0))


@pytest.mark.parametrize("text, message", [
    ("n 4 m 1\nR 0 2 0.5\n", "line 2: rotation indices"),
    ("n 4 m 1\nC 1 0.0\n", "line 2: constant gate needs"),
    ("# header next\nn x m 1\n", "line 2: invalid literal"),
])
def test_program_text_errors_name_their_line(text, message):
    with pytest.raises(ValueError, match=message):
        program_from_text(text)


def test_program_refuses_gates_added_after_construction():
    program = GateProgram(4, [Rotation(1, 2, 0.5)])
    with pytest.raises(AttributeError):
        program.gates.append(Rotation(1, 9, 0.3))  # would skip the range check
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.gates = [Rotation(1, 9, 0.3)]
    assert program.gates == (Rotation(1, 2, 0.5),)
    run_program(program)


def test_program_text_count_mismatch_rejected():
    with pytest.raises(ValueError):
        program_from_text("n 4 m 3\nR 1 2 0.5\n")


def test_save_and_load_program(tmp_path):
    rng = np.random.default_rng(18)
    program = random_program(4, 10, 2, rng)
    path = tmp_path / "prog.gates"
    save_program(program, path)
    assert load_program(path).gates == program.gates


def test_random_program_is_deterministic_in_seed():
    a = random_program(8, 20, 4, np.random.default_rng(99))
    b = random_program(8, 20, 4, np.random.default_rng(99))
    assert a.gates == b.gates
    assert program_to_text(a) == (DATA / "random_program_n8_seed99.txt").read_text()


def test_random_program_fields_have_their_stated_ranges():
    program = random_program(4, 2000, 400, np.random.default_rng(5))
    assert program.rotation_count() == 2000 and program.constant_count() == 400
    rotations = [g for g in program.gates if isinstance(g, Rotation)]
    pairs = {(g.i, g.iprime) for g in rotations}
    assert pairs == set(itertools.permutations(range(1, 5), 2))  # all 12, never i == i'
    assert all(-math.pi <= g.theta < math.pi for g in rotations)
    scalars = [g.c for g in program.gates if isinstance(g, Constant)]
    assert all(0.5 <= abs(c) <= 2.0 for c in scalars)
    assert min(scalars) < 0.0 < max(scalars)
    assert {g.i for g in program.gates if isinstance(g, Constant)} == {1, 2, 3, 4}
