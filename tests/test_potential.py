"""Potential functional tests: exact values, bounds, incremental tracking.

The Id + eps*F family has closed-form potentials because F * F = Id makes
every entry of the coupled products fall into one of a few classes; those
closed forms are re-derived here (independently of the library internals)
and frozen as the oracle for the generic evaluators.
"""

import decimal
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qel import gates, potential
from qel.gates import (
    Constant,
    GateProgram,
    KappaCertifier,
    Rotation,
    TrackedState,
    _apply_to_pair,
    apply_gate,
    inverse_drift,
    inverse_probe,
    random_program,
    run_program,
)
from qel.hadamard import fast_wht_program, wht_matrix
from qel.perturb import perturbation_potentials
from qel.potential import (
    BOUND_TOL,
    DRIFT_TOL,
    NAMED_POTENTIALS,
    PROBE_COLUMNS,
    PotentialSpec,
    PotentialTracker,
    _exceeds_bound,
    entropy_sum,
    k_slice_quasi_entropy,
    load_matrices_text,
    named_spec,
    quasi_entropy,
    trace_potentials,
    write_matrix_text,
)

ORACLE_RTOL = 1e-10
TRACK_ATOL = 1e-8
BOUND_SLACK = 1e-8


def L(x):
    return 0.0 if x == 0.0 else x * math.log2(abs(x))


def closed_form_plain(n, eps):
    d = (1.0 - eps * eps / n) / (1.0 - eps * eps)
    o = -eps * eps / (n * (1.0 - eps * eps))
    return -(n * L(d) + n * (n - 1) * L(o))


def closed_form_precond_id_f(n, eps):
    r = n ** -0.5
    x_pos = (1.0 + eps * r) * (r - eps) / (1.0 - eps * eps)
    x_neg = (1.0 - eps * r) * (-r - eps) / (1.0 - eps * eps)
    o = eps / (n * (1.0 - eps * eps))
    return -((n // 2) * (L(x_pos) + L(x_neg)) + n * (n - 1) * L(o))


def closed_form_hat(n, eps):
    d = -2.0 * eps * (1.0 - 1.0 / n) / (1.0 - eps * eps)
    o = 2.0 * eps / (n * (1.0 - eps * eps))
    return -(n * L(d) + n * (n - 1) * L(o))


def perturbed_pair(n, eps):
    F = wht_matrix(n)
    M = np.eye(n) + eps * F
    MinvT = (np.eye(n) - eps * F) / (1.0 - eps * eps)
    return M, MinvT


def test_entropy_sum_values():
    for x, expected in [(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (-1.0, 0.0),
                        (2.0, 2.0), (0.5, -0.5), (-2.0, -2.0)]:
        assert entropy_sum([x]) == expected
    assert entropy_sum([2.0, 0.5, -2.0, 0.0]) == -0.5
    assert type(entropy_sum(np.ones((2, 2)))) is float


ORACLE_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300]


def oracle_values(shape, seed):
    """Entries over 600 decades, with the specials at random positions."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    v = rng.standard_normal(size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    v[rng.choice(size, len(ORACLE_SPECIALS), replace=False)] = ORACLE_SPECIALS
    return v.reshape(shape)


@pytest.mark.parametrize("shape", [(2, 64), (64, 64), (4096,)])
def test_entropy_sum_matches_scalar_reference_bitwise(shape):
    v = oracle_values(shape, seed=math.prod(shape))
    original = v.tobytes()
    terms = []
    for x in v.ravel().tolist():
        if x == 0.0:
            terms.append(0.0)
            continue
        # numpy's log2 may differ from the C library's by one ulp (SIMD builds)
        log = float(np.log2(abs(x)))
        assert abs(log - math.log2(abs(x))) <= math.ulp(log)
        terms.append(x * log)
    # summed by np.sum over the same shape: the kernel's summation order
    terms = np.array(terms).reshape(shape)
    assert entropy_sum(v).hex() == float(np.sum(terms)).hex()
    assert v.tobytes() == original


@pytest.mark.parametrize("n", [2, 4, 8, 32])
def test_plain_potential_of_identity_and_transform(n):
    assert quasi_entropy(np.eye(n)) == 0.0
    assert quasi_entropy(wht_matrix(n)) == pytest.approx(n * math.log2(n), rel=1e-12)


def test_plain_potential_of_diagonal_and_permutation():
    D = np.diag([2.0, -0.5, 4.0, 1.0])
    assert quasi_entropy(D) == 0.0
    P = np.eye(5)[[3, 0, 4, 1, 2]]
    assert quasi_entropy(P) == 0.0


def test_plain_potential_of_single_rotation():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, s], [-s, c]])
    expect = -2.0 * (L(c * c) + L(s * s))
    assert quasi_entropy(R) == pytest.approx(expect, rel=1e-12)


def test_plain_potential_permutation_invariance():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    P = np.eye(6)[rng.permutation(6)]
    Q = np.eye(6)[rng.permutation(6)]
    npt.assert_allclose(quasi_entropy(P @ M @ Q), quasi_entropy(M), rtol=1e-10)


def test_plain_potential_row_scaling_invariance():
    rng = np.random.default_rng(32)
    M = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    D = np.diag([2.0, -1.0, 0.5, 4.0, -8.0])
    npt.assert_allclose(quasi_entropy(D @ M), quasi_entropy(M), rtol=1e-10)


def test_preconditioned_matches_manual_sum():
    rng = np.random.default_rng(33)
    n = 5
    M = rng.standard_normal((n, n)) + 3 * np.eye(n)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    MinvT = np.linalg.inv(M).T
    s = (M @ A) * (MinvT @ B)
    manual = -sum(L(v) for v in s.ravel())
    assert k_slice_quasi_entropy(M, PotentialSpec.preconditioned(A, B)) == pytest.approx(manual, rel=1e-12)


def column_block_spec(P, Q):
    """The hat potential of n-by-2n P, Q as the spec of its two column blocks."""
    n = P.shape[0]
    return PotentialSpec(n, [(P[:, :n], Q[:, :n]), (P[:, n:], Q[:, n:])])


def test_hat_matches_manual_column_coupling():
    rng = np.random.default_rng(34)
    n = 4
    M = rng.standard_normal((n, n)) + 3 * np.eye(n)
    P = rng.standard_normal((n, 2 * n))
    Q = rng.standard_normal((n, 2 * n))
    MinvT = np.linalg.inv(M).T
    left, right = M @ P, MinvT @ Q
    s = left[:, :n] * right[:, :n] + left[:, n:] * right[:, n:]
    manual = -sum(L(v) for v in s.ravel())
    assert k_slice_quasi_entropy(M, column_block_spec(P, Q)) == pytest.approx(manual, rel=1e-12)


def test_hat_wht_spec_matches_explicit_blocks():
    n = 8
    F = wht_matrix(n)
    P = np.hstack([np.eye(n), -F])
    Q = np.hstack([F, np.eye(n)])
    rng = np.random.default_rng(35)
    M = rng.standard_normal((n, n)) + 3 * np.eye(n)
    via_spec = k_slice_quasi_entropy(M, named_spec("hat-pq", n))
    explicit = k_slice_quasi_entropy(M, column_block_spec(P, Q))
    npt.assert_allclose(via_spec, explicit, rtol=1e-10)


def test_hat_potential_zero_at_identity_and_at_transform():
    for n in (2, 8, 64):
        spec = named_spec("hat-pq", n)
        F = wht_matrix(n)
        assert k_slice_quasi_entropy(np.eye(n), spec) == 0.0
        # with the exact inverse the two slice terms cancel pointwise
        assert k_slice_quasi_entropy(F, spec, minv_t=F) == 0.0
        assert abs(k_slice_quasi_entropy(F, spec)) < 1e-12


def test_precond_id_f_zero_at_identity():
    for n in (2, 8, 64):
        F = wht_matrix(n)
        assert k_slice_quasi_entropy(np.eye(n), PotentialSpec.preconditioned(None, F)) == 0.0


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("eps", [0.125, 0.03125])
def test_perturbation_closed_forms(n, eps):
    M, MinvT = perturbed_pair(n, eps)
    F = wht_matrix(n)
    assert quasi_entropy(M, minv_t=MinvT) == pytest.approx(
        closed_form_plain(n, eps), rel=ORACLE_RTOL
    )
    assert k_slice_quasi_entropy(M, PotentialSpec.preconditioned(None, F), minv_t=MinvT) == pytest.approx(
        closed_form_precond_id_f(n, eps), rel=ORACLE_RTOL
    )
    assert k_slice_quasi_entropy(M, named_spec("hat-pq", n), minv_t=MinvT) == pytest.approx(
        closed_form_hat(n, eps), rel=ORACLE_RTOL
    )


@pytest.mark.parametrize("n", [2 ** k for k in range(2, 11)])
def test_perturbation_potentials_match_closed_form_oracle(n):
    # below eps = 2^-10 the naive oracle forms lose digits (plain: 2e-2 at 2^-30)
    for eps in (2.0 ** -j for j in range(2, 11)):
        plain, precond, hat = perturbation_potentials(n, eps)
        assert plain == pytest.approx(closed_form_plain(n, eps), rel=ORACLE_RTOL, abs=0.0)
        assert precond == pytest.approx(closed_form_precond_id_f(n, eps),
                                        rel=ORACLE_RTOL, abs=0.0)
        assert hat == pytest.approx(closed_form_hat(n, eps), rel=ORACLE_RTOL, abs=0.0)


def decimal_potentials(n, eps):
    """The entry classes of Id + eps*F summed in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def L(x):
            return Decimal(0) if x == 0 else x * abs(x).ln() / ln2

        n, eps = Decimal(n), Decimal(eps)
        den = 1 - eps * eps
        r = 1 / n.sqrt()
        delta = eps * (1 - 1 / n) / den
        off = n * (n - 1)
        plain = -(n * L(1 + eps * eps * (1 - 1 / n) / den) + off * L(-eps * eps / (n * den)))
        precond = -(n / 2 * (L(r - delta) + L(-r - delta)) + off * L(eps / (n * den)))
        hat = -(n * L(-2 * delta) + off * L(2 * eps / (n * den)))
        return plain, precond, hat


@pytest.mark.parametrize("n, eps", [
    (4, 2.0 ** -30), (4, 0.49), (64, 0.125), (64, 2.0 ** -30), (2 ** 20, 2.0 ** -10),
    (2 ** 31, 0.3 * 2.0 ** -16), (2 ** 40, 2.0 ** -2), (2 ** 40, 2.0 ** -20), (2 ** 40, 2.0 ** -30),
])
def test_perturbation_potentials_match_decimal_reference(n, eps):
    # (64, 1/8), (2^20, 2^-10) and (2^40, 2^-20) put the r - delta class exactly at 0
    for got, want in zip(perturbation_potentials(n, eps), decimal_potentials(n, eps)):
        assert abs((Decimal(got) - want) / want) <= Decimal("1e-14")


def test_supplied_inverse_matches_computed_inverse():
    rng = np.random.default_rng(36)
    M = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    MinvT = np.linalg.inv(M).T
    npt.assert_allclose(
        quasi_entropy(M, minv_t=MinvT), quasi_entropy(M), rtol=1e-10
    )


def test_singular_matrix_rejected():
    M = np.eye(4)
    M[2, 2] = 0.0
    with pytest.raises(ValueError, match="singular"):
        quasi_entropy(M)


def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(4, [])
    with pytest.raises(ValueError):
        PotentialSpec(4, [(np.eye(3), None)])
    with pytest.raises(ValueError, match=r"slice 1: A has shape \(4, 0\)"):
        column_block_spec(np.eye(4), np.zeros((4, 9)))
    for bad in (math.nan, math.inf, -math.inf):
        X = np.eye(2)
        X[1, 0] = bad
        with pytest.raises(ValueError, match="^slice 1: B has a non-finite entry$"):
            PotentialSpec(2, [(np.eye(2), None), (None, X)])
    for bad in (0, 2, -0.5, math.nan):
        with pytest.raises(ValueError, match="^slice 1: sign must be \\+1 or -1, got "):
            PotentialSpec(2, [(None, None), (None, np.eye(2), bad)])


def test_hat_pq_holds_f_once_in_a_slice_of_sign_minus_one():
    spec = named_spec("hat-pq", 8)
    (A0, B0), (A1, B1) = spec.slices
    assert A0 is None and B1 is None and A1 is B0
    assert spec.signs == (1.0, -1.0)
    assert np.array_equal(B0, wht_matrix(8))
    assert PotentialSpec(2, [(None, np.eye(2)), (np.eye(2), None, 1)]).signs == (1.0, 1.0)


def test_rotation_delta_bound_is_an_upper_bound():
    rng = np.random.default_rng(37)
    n = 8
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    spec = PotentialSpec.preconditioned(A, B)
    state = TrackedState.identity(n)
    for gate in random_program(n, 40, 0, rng).gates:
        before = k_slice_quasi_entropy(state.M, spec, minv_t=state.MinvT)
        bound = PotentialTracker(spec, state).rotation_bound(gate.i, gate.iprime)
        apply_gate(state, gate)
        after = k_slice_quasi_entropy(state.M, spec, minv_t=state.MinvT)
        assert abs(after - before) <= bound + BOUND_SLACK


def test_rotation_bound_needs_a_single_slice_spec():
    tracker = PotentialTracker(named_spec("hat-pq", 4), TrackedState.identity(4))
    with pytest.raises(ValueError, match="single-slice specs"):
        tracker.rotation_bound(1, 2)


def test_rotation_delta_bound_tight_at_quarter_turn_from_identity():
    state = TrackedState.identity(2)
    spec = PotentialSpec.plain(2)
    bound = PotentialTracker(spec, state).rotation_bound(1, 2)
    before = k_slice_quasi_entropy(state.M, spec)
    apply_gate(state, Rotation(1, 2, math.pi / 4))
    after = k_slice_quasi_entropy(state.M, spec)
    assert bound == pytest.approx(2.0, abs=1e-12)
    assert after - before == pytest.approx(2.0, abs=1e-12)
    assert abs(after - before) / bound == pytest.approx(1.0, abs=1e-9)


def test_constant_gate_leaves_every_potential_unchanged():
    rng = np.random.default_rng(38)
    n = 8
    F = wht_matrix(n)
    specs = [
        PotentialSpec.plain(n),
        PotentialSpec(n, [(None, F)], label="precond-id-f"),
        named_spec("hat-pq", n),
    ]
    state = TrackedState.identity(n)
    for gate in random_program(n, 30, 0, rng).gates:
        apply_gate(state, gate)
    for spec in specs:
        before = k_slice_quasi_entropy(state.M, spec, minv_t=state.MinvT)
        probe = TrackedState(state.M.copy(), state.MinvT.copy(), state.t)
        apply_gate(probe, Constant(3, -4.0))
        after = k_slice_quasi_entropy(probe.M, spec, minv_t=probe.MinvT)
        assert after == pytest.approx(before, abs=1e-12)


@pytest.mark.parametrize("recompute_every", [0, 64])
def test_tracker_agrees_with_direct_evaluation(recompute_every):
    rng = np.random.default_rng(39)
    n = 16
    program = random_program(n, 400, 40, rng)
    F = wht_matrix(n)
    spec = PotentialSpec(n, [(None, F)], label="precond-id-f")
    state = TrackedState.identity(n)
    tracker = PotentialTracker(spec, state)
    for gate in program.gates:
        apply_gate(state, gate)
        tracker.advance([gate])
        if recompute_every and state.t % recompute_every == 0:
            assert tracker.resync(state, False) == tracker.value
    direct = k_slice_quasi_entropy(state.M, spec, minv_t=state.MinvT)
    assert tracker.value == pytest.approx(direct, abs=TRACK_ATOL)


def test_tracker_plain_constant_delta_is_literal_zero():
    state = TrackedState.identity(4)
    tracker = PotentialTracker(PotentialSpec.plain(4), state)
    apply_gate(state, Rotation(1, 2, 0.3))
    tracker.advance([Rotation(1, 2, 0.3)])
    (delta,), _ = tracker.advance([Constant(2, 3.7)])
    apply_gate(state, Constant(2, 3.7))
    assert delta == 0.0 and math.copysign(1.0, delta) == 1.0


def test_tracker_detects_cache_desync():
    state = TrackedState.identity(4)
    tracker = PotentialTracker(PotentialSpec.plain(4), state)
    apply_gate(state, Rotation(1, 2, 0.3))
    tracker.advance([Rotation(1, 2, 0.3)])
    tracker.value += 1.0  # simulate accumulated drift
    apply_gate(state, Rotation(3, 4, 0.5))
    tracker.advance([Rotation(3, 4, 0.5)])
    for endpoint in (False, True):  # a failed resync adopts nothing
        with pytest.raises(RuntimeError, match="step 2: tracker desync"):
            tracker.resync(state, endpoint)


@pytest.mark.parametrize("poison, message", [
    ("value", "step 1: tracker desynchronized from state: incremental nan"),
    ("inverse", "step 1: inverse-transpose drift nan exceeds"),
], ids=["value", "inverse"])
def test_tracker_resync_fails_on_nan(poison, message):
    # a NaN compares false against any tolerance, so each check must fail on
    # it, the periodic probe included
    state = TrackedState.identity(4)
    tracker = PotentialTracker(PotentialSpec.plain(4), state)
    apply_gate(state, Rotation(1, 2, 0.3))
    tracker.advance([Rotation(1, 2, 0.3)])
    if poison == "value":
        tracker.value = math.nan
    else:
        state.MinvT[0, 0] = math.nan
    for endpoint in (False, True):
        with pytest.raises(RuntimeError, match=re.escape(message)):
            tracker.resync(state, endpoint)


def spy_on_inverse_drift(monkeypatch):
    """Route the tracker's exact drift checks through a spy; returns the
    list of (step, drift) it records."""
    seen = []

    def spy(state):
        seen.append((state.t, inverse_drift(state)))
        return seen[-1][1]

    monkeypatch.setattr(potential, "inverse_drift", spy)
    return seen


def test_the_probe_catches_one_drifted_entry_of_the_inverse(monkeypatch):
    # one off-diagonal entry of M^-T goes wrong after step 13; later gates
    # move M^T M^-T - Id not at all, so the probe at step 16 sees it, the
    # exact product confirms it, and the message is the exact one
    program = random_program(8, 36, 4, np.random.default_rng(21))
    real_apply = gates.apply_gate

    def drifting_apply(state, gate):
        real_apply(state, gate)
        if state.t == 13:
            state.MinvT[0, 1] += 1e-5
        return state

    monkeypatch.setattr(gates, "apply_gate", drifting_apply)
    drifts = spy_on_inverse_drift(monkeypatch)
    with pytest.raises(RuntimeError) as exc:
        trace_potentials(program, PotentialSpec.plain(8), recompute_every=8)
    [(t, drift)] = drifts  # the probe alone passed step 8
    assert t == 16 and drift > DRIFT_TOL
    assert str(exc.value) == f"step 16: inverse-transpose drift {drift:.3e} exceeds {DRIFT_TOL:.1e}"


def test_entries_below_the_drift_tolerance_that_add_up_past_it_fall_back_to_the_exact_check(
        monkeypatch):
    # every entry of row 0 of M^T M^-T - Id is 0.9 DRIFT_TOL, so the exact
    # drift passes, but (P v)_0 = 0.9 DRIFT_TOL sum(v) sets off the probe;
    # the exact product then decides, and the resync passes as before
    n = 64
    state = run_program(random_program(n, 300, 30, np.random.default_rng(22)))
    tracker = PotentialTracker(PotentialSpec.plain(n), state)
    D = np.zeros((n, n))
    D[0] = 0.9 * DRIFT_TOL
    state.MinvT += state.MinvT @ D
    assert inverse_drift(state) <= DRIFT_TOL
    assert not inverse_probe(state, tracker.probe) <= DRIFT_TOL
    drifts = spy_on_inverse_drift(monkeypatch)
    assert tracker.resync(state, False) == tracker.value
    assert [t for t, _ in drifts] == [state.t]


def test_the_probe_matrix_is_fixed():
    # the same +-1 columns for every tracker, after a resync, and under any
    # QEL_THREADS, so a run's checks never depend on when or how it ran
    state = run_program(random_program(16, 40, 4, np.random.default_rng(23)))
    first = PotentialTracker(PotentialSpec.plain(16), state)
    V = first.probe.copy()
    first.resync(state, False)
    second = PotentialTracker(named_spec("hat-pq", 16), TrackedState.identity(16))
    assert V.shape == (16, PROBE_COLUMNS)
    assert set(np.unique(V)) == {-1.0, 1.0}
    assert np.array_equal(first.probe, V) and np.array_equal(second.probe, V)
    script = ("import hashlib\n"
              "from qel.gates import TrackedState\n"
              "from qel.potential import PotentialSpec, PotentialTracker\n"
              "tracker = PotentialTracker(PotentialSpec.plain(16), TrackedState.identity(16))\n"
              "print(hashlib.sha256(tracker.probe.tobytes()).hexdigest())\n")
    for threads in ("1", "2"):
        env = dict(os.environ, QEL_THREADS=threads,
                   PYTHONPATH=str(Path(potential.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == hashlib.sha256(V.tobytes()).hexdigest()


@pytest.mark.parametrize("recompute_every", [-3, -24, 2.0, True])
def test_trace_rejects_a_recompute_period_that_is_not_a_non_negative_int(recompute_every):
    # before: -3 failed as a false desync, -24 leaked StopIteration, 2.0 a
    # TypeError, and True passed as a cadence of 1
    with pytest.raises(ValueError, match=re.escape(f"got {recompute_every!r}")):
        trace_potentials(fast_wht_program(8), PotentialSpec.plain(8),
                         recompute_every=recompute_every)


def test_a_rotation_with_a_nan_delta_exceeds_its_bound():
    gate = Rotation(1, 2, 0.3)
    assert not _exceeds_bound(gate, 0.5, 0.5)
    assert _exceeds_bound(gate, 0.5 + 2 * BOUND_TOL, 0.5)
    assert _exceeds_bound(gate, math.nan, 0.5)
    assert _exceeds_bound(gate, 0.5, math.nan)
    assert not _exceeds_bound(Constant(1, 2.0), 1.0, 0.0)


def test_trace_telescoping_and_endpoint():
    program = fast_wht_program(16)
    trajectory = trace_potentials(program, PotentialSpec.plain(16))
    assert trajectory.initial_value == 0.0
    assert trajectory.final_value == pytest.approx(16 * 4.0, rel=1e-12)
    total = math.fsum(trajectory.deltas)
    assert abs((trajectory.final_value - trajectory.initial_value) - total) < 1e-9
    assert len(trajectory.deltas) == len(program)
    assert len(trajectory.potentials) == len(program) + 1


@pytest.mark.parametrize("kind", ["plain", "hat-pq"])
def test_an_empty_program_traces_only_its_initial_value(kind):
    spec = named_spec(kind, 4)
    trajectory = trace_potentials(GateProgram(4, []), spec)
    initial = k_slice_quasi_entropy(np.eye(4), spec, minv_t=np.eye(4))
    assert trajectory.potentials == [initial]
    assert trajectory.deltas == [] and trajectory.kappas == []
    assert trajectory.bounds == ([] if kind == "plain" else None)
    assert trajectory.final_value == trajectory.initial_value == trajectory.direct_final
    assert trajectory.max_abs_delta == 0.0


def test_trace_reports_bounds_only_for_single_slice_specs():
    program = fast_wht_program(8)
    plain = trace_potentials(program, PotentialSpec.plain(8))
    hat = trace_potentials(program, named_spec("hat-pq", 8))
    assert len(plain.bounds) == len(program)
    assert all(bound is not None for bound in plain.bounds)
    assert hat.bounds is None


@pytest.mark.parametrize("n", [16, 64, 256])
def test_hat_potential_is_exactly_zero_on_orthogonal_states(n):
    # M^-T = M, so the slices M o (M F) and (M (-F)) o M cancel entrywise
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    assert k_slice_quasi_entropy(Q, named_spec("hat-pq", n), minv_t=Q) == 0.0


def test_hat_potential_stays_zero_along_rotation_only_programs():
    n = 16
    program = random_program(n, 300, 0, np.random.default_rng(43))
    trajectory = trace_potentials(program, named_spec("hat-pq", n), recompute_every=64)
    assert all(value == 0.0 for value in trajectory.potentials + trajectory.deltas)
    state = run_program(program)
    assert k_slice_quasi_entropy(state.M, named_spec("hat-pq", n), minv_t=state.MinvT) == 0.0


def test_trace_kappa_column_matches_exhaustive_certifier():
    program = random_program(8, 60, 12, np.random.default_rng(44))
    oracle = KappaCertifier(exhaustive=True)
    kappas = []
    run_program(program, observers=[oracle, lambda t, gate, state: kappas.append(oracle.kappa)])
    npt.assert_allclose(trace_potentials(program, PotentialSpec.plain(8)).kappas, kappas,
                        rtol=1e-9)


def test_trace_kappa_column_tracks_scaling_gates():
    program = fast_wht_program(4)
    trajectory = trace_potentials(program, PotentialSpec.plain(4))
    assert len(trajectory.kappas) == len(program)
    assert all(kappa == pytest.approx(1.0, abs=1e-9) for kappa in trajectory.kappas)


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    M = rng.standard_normal((3, 5))
    path = tmp_path / "mat.txt"
    with open(path, "w") as fh:
        write_matrix_text(fh, M)
    loaded, = load_matrices_text(path)
    npt.assert_array_equal(loaded, M)


def test_matrix_text_multiple_blocks_and_comments(tmp_path):
    rng = np.random.default_rng(41)
    A, B = rng.standard_normal((2, 2)), rng.standard_normal((3, 1))
    path = tmp_path / "mats.txt"
    with open(path, "w") as fh:
        fh.write("# two blocks\n")
        write_matrix_text(fh, A)
        fh.write("# and a comment between\n")
        write_matrix_text(fh, B)
    out = load_matrices_text(path)
    assert len(out) == 2
    npt.assert_array_equal(out[0], A)
    npt.assert_array_equal(out[1], B)


def test_matrix_text_truncation_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match="truncated"):
        load_matrices_text(path)


@pytest.mark.parametrize("text, header", [("n 0 3\n", "n 0 3"),
                                          ("n -1 2\n1.0 2.0\n", "n -1 2")],
                         ids=["zero-rows", "negative-rows"])
def test_matrix_text_non_positive_sizes_rejected(text, header, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"matrix header '{header}' needs rows and cols >= 1"):
        load_matrices_text(path)


@pytest.mark.parametrize("kind", NAMED_POTENTIALS)
def test_tracker_identity_slots_are_bitwise_twins_of_the_engine_state(kind):
    # the tracker moves its caches with the engine's own row rules, so
    # an identity slot equals M or M^-T exactly, not merely within roundoff
    rng = np.random.default_rng(44)
    n = 8
    program = random_program(n, 60, 20, rng)
    flips = [Constant(int(i), -1.0) for i in rng.integers(1, n + 1, size=10)]
    gates = [*program.gates, *flips]
    mixed = GateProgram(n, [gates[j] for j in rng.permutation(len(gates))])
    assert any(isinstance(g, Constant) and abs(g.c) != 1.0 for g in mixed.gates)
    spec = named_spec(kind, n)
    tracker = PotentialTracker(spec, TrackedState.identity(n))
    checked = []

    def observer(t, gate, state):
        tracker.advance([gate])
        for p, (A, B) in enumerate(spec.slices):
            Lp, Rp = tracker.caches[2 * p], tracker.caches[2 * p + 1]
            if A is None:
                assert not np.shares_memory(Lp, state.M) and np.array_equal(Lp, state.M)
                checked.append(t)
            if B is None:
                assert not np.shares_memory(Rp, state.MinvT) and np.array_equal(Rp, state.MinvT)
                checked.append(t)

    run_program(mixed, observers=[observer])
    assert len(checked) >= len(mixed)


@pytest.mark.parametrize("kind", ["plain", "precond", "precond-id-f", "hat-pq"])
def test_a_tracker_at_the_identity_copies_its_preconditioners(kind, monkeypatch):
    # started with no state, a tracker forms no product and holds what the
    # products at the identity state hold, up to the sign of zero entries
    spec = equivalence_specs(8)[kind]
    formed = []
    real_products = potential._slice_products
    monkeypatch.setattr(potential, "_slice_products",
                        lambda *args: formed.append(1) or real_products(*args))
    copied = PotentialTracker(spec, None)
    assert formed == []
    multiplied = PotentialTracker(spec, TrackedState.identity(8))
    assert formed == [1]
    assert copied.value.hex() == multiplied.value.hex()
    assert np.array_equal(copied.caches, multiplied.caches)


@pytest.mark.parametrize("kind", NAMED_POTENTIALS)
def test_a_trace_holds_the_engine_its_caches_and_one_n_by_n_temporary(kind):
    # measured after the spec (and its F) is built: the engine's M and M^-T,
    # the 2k caches and at most one n x n temporary at a time, plus an
    # allowance for what does not grow with n^2:
    # - per step, three new floats (potential, delta, bound; 24 B each) and
    #   four list slots (8 B each; kappa reuses the certifier's float), 104 B,
    #   rounded up to 128 B for the lists' over-allocation;
    # - the n x PROBE_COLUMNS probe and, per distinct preconditioner, its
    #   image under it and the row sums of its absolute values;
    # - one row block of entropy terms and its nonzero mask, _CHUNK_ENTRIES
    #   doubles and as many bytes;
    # - 64 KiB for the tracker, certifier and trajectory objects.
    n = 512
    program, spec = fast_wht_program(n), named_spec(kind, n)
    distinct = len({id(P) for pair in spec.slices for P in pair if P is not None})
    allowance = (128 * len(program)
                 + 8 * n * ((1 + distinct) * PROBE_COLUMNS + distinct)
                 + 9 * potential._CHUNK_ENTRIES
                 + (64 << 10))
    tracemalloc.start()
    try:
        trace_potentials(program, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 + 2 * spec.k + 1) * n * n + allowance


def gate_by_gate_trace(program, spec, recompute_every):
    """[(potential, delta, bound)] per step from a tracker written out one
    gate at a time: the engine's gate action (_apply_to_pair) on every
    cached pair and entropy_sum over the rows the gate touches, each pair's
    product times its slice's sign.  A periodic
    checkpoint takes the caches' own value; only the endpoint's rebuilds
    them from fresh products."""
    state = TrackedState.identity(program.n)

    def caches():
        return [(state.M.copy() if A is None else state.M @ A,
                 state.MinvT.copy() if B is None else state.MinvT @ B)
                for A, B in spec.slices]

    pairs, value, out = caches(), k_slice_quasi_entropy(state.M, spec, state.MinvT), []
    for t, gate in enumerate(program.gates, start=1):
        apply_gate(state, gate)
        rotation = isinstance(gate, Rotation)
        rows = [gate.i - 1, gate.iprime - 1] if rotation else [gate.i - 1]
        bound = None
        if spec.k == 1:
            (Lp, Rp), = pairs
            bound = float(np.linalg.norm(Lp[rows]) * np.linalg.norm(Rp[rows])) if rotation else 0.0

        def coupled_entropy():
            return entropy_sum(sum(sign * Lp[rows] * Rp[rows]
                                   for (Lp, Rp), sign in zip(pairs, spec.signs)))

        before = coupled_entropy()
        for Lp, Rp in pairs:
            _apply_to_pair(gate, Lp, Rp)
        delta = 0.0 if spec.is_plain and not rotation else -(coupled_entropy() - before) + 0.0
        value += delta
        if recompute_every and t % recompute_every == 0:
            if t == len(program):
                pairs, value = caches(), k_slice_quasi_entropy(state.M, spec, state.MinvT)
            else:
                value = potential._value([X for pair in pairs for X in pair], spec.signs)
        out.append((value, delta, bound))
    return out


def equivalence_specs(n):
    rng = np.random.default_rng(n)
    return {
        "plain": PotentialSpec.plain(n),
        "precond": PotentialSpec.preconditioned(rng.standard_normal((n, n)),
                                                rng.standard_normal((n, n))),
        "precond-id-f": named_spec("precond-id-f", n),
        "hat-pq": named_spec("hat-pq", n),
    }


@st.composite
def shared_row_programs(draw):
    # gates on at most four rows, so levels hold several gates and chains
    n = draw(st.sampled_from([2, 4, 8, 64]))
    rows = list(range(1, min(n, 4) + 1))
    gates = []
    for _ in range(draw(st.integers(1, 40))):
        i, other = draw(st.permutations(rows))[:2]
        if draw(st.booleans()):
            gates.append(Rotation(i, other, draw(st.floats(-math.pi, math.pi))))
        else:
            c = draw(st.sampled_from([-1.0, draw(st.floats(0.5, 2.0)), -draw(st.floats(0.5, 2.0))]))
            gates.append(Constant(i, c))
    return GateProgram(n, gates)


def hexed(rows):
    return [tuple(None if x is None else x.hex() for x in row) for row in rows]


def step_rows(trajectory):
    """(potential, delta, bound) per step from a trajectory's columns; the
    bound is None for k >= 2 specs."""
    return list(zip(trajectory.potentials[1:], trajectory.deltas,
                    trajectory.bounds or [None] * len(trajectory.deltas)))


@settings(max_examples=60, deadline=None)
@given(program=shared_row_programs(),
       kind=st.sampled_from(["plain", "precond", "precond-id-f", "hat-pq"]),
       recompute_every=st.sampled_from([0, 1, 7, 1024]),
       chunk_gates=st.sampled_from([1, 2, None]))
def test_level_tracker_matches_the_gate_by_gate_tracker_bit_for_bit(program, kind,
                                                                   recompute_every,
                                                                   chunk_gates):
    spec = equivalence_specs(program.n)[kind]
    entries = potential._CHUNK_ENTRIES
    if chunk_gates is not None:  # split each level into chunks of this many gates
        entries = chunk_gates * 4 * spec.k * spec.n
    with mock.patch.object(potential, "_CHUNK_ENTRIES", entries):
        trajectory = trace_potentials(program, spec, recompute_every=recompute_every,
                                      check_bounds=False, track_kappa=False)
    assert hexed(step_rows(trajectory)) == hexed(gate_by_gate_trace(program, spec,
                                                                    recompute_every))


CORRUPTED_SLOTS = [("hat-pq", 1), ("hat-pq", 2), ("precond", 0), ("precond", 1)]


def corrupt_after_step_8(monkeypatch, spec, slot, error, on_resync=None):
    """Trace a 36-gate program with checkpoints every 8 steps, adding
    `error` to one entry of cache `slot` right after the checkpoint at step
    8, on a row the next gate moves.  on_resync(tracker, state) runs before
    each resync.  Returns (program, the trajectory or the RuntimeError,
    the steps at which slice products were formed)."""
    program = random_program(8, 32, 4, np.random.default_rng(24))
    row = program.gates[8].i - 1
    real_resync, real_products = PotentialTracker.resync, potential._slice_products
    formed, checkpoint = [], [0]  # the step of the resync in progress, 0 at the start

    def resync(tracker, state, endpoint):
        checkpoint[0] = None
        if on_resync is not None:
            on_resync(tracker, state)
        checkpoint[0] = state.t
        value = real_resync(tracker, state, endpoint)
        checkpoint[0] = None
        if state.t == 8:
            tracker.caches[slot, row, (row + 3) % 8] += error
        return value

    def products(*args):
        if checkpoint[0] is not None:
            formed.append(checkpoint[0])
        return real_products(*args)

    monkeypatch.setattr(PotentialTracker, "resync", resync)
    monkeypatch.setattr(potential, "_slice_products", products)
    try:
        result = trace_potentials(program, spec, recompute_every=8, check_bounds=False)
    except RuntimeError as exc:
        result = exc
    return program, result, formed


@pytest.mark.parametrize("kind, slot", CORRUPTED_SLOTS)
def test_a_corrupted_cache_fails_at_the_next_periodic_checkpoint(kind, slot, monkeypatch):
    # the caches' own value agrees with the running one, which the same
    # wrong entry moved; the probe flags the entry at step 16 and hands
    # over to fresh products, whose value disagrees with the running one
    spec = equivalence_specs(8)[kind]
    expected = []

    def message(tracker, state):
        direct = k_slice_quasi_entropy(state.M, spec, minv_t=state.MinvT)
        expected.append(f"step {state.t}: tracker desynchronized from state: "
                        f"incremental {tracker.value!r} vs direct {direct!r}")

    _, result, formed = corrupt_after_step_8(monkeypatch, spec, slot, 1.0, message)
    assert isinstance(result, RuntimeError)
    assert formed == [16]
    assert str(result) == expected[1]


@pytest.mark.parametrize("kind, slot", CORRUPTED_SLOTS)
def test_a_cache_error_below_the_desync_tolerance_is_rebuilt(kind, slot, monkeypatch):
    # 1e-7 is far beyond the probe's tolerance and moves the value by less
    # than DESYNC_TOL, so step 16 rebuilds the caches and passes; every
    # delta after it is one a tracker built fresh at step 16 gives
    spec = equivalence_specs(8)[kind]
    program, trajectory, formed = corrupt_after_step_8(monkeypatch, spec, slot, 1e-7)
    assert formed == [16, 36]
    state = run_program(GateProgram(8, program.gates[:16]))
    fresh, _ = PotentialTracker(spec, state).advance(program.gates[16:])
    assert [d.hex() for d in trajectory.deltas[16:]] == [d.hex() for d in fresh]


@pytest.mark.parametrize("kind", ["plain", "precond", "hat-pq"])
def test_deltas_and_bounds_do_not_depend_on_the_checkpoint_cadence(kind):
    # a clean trace never resets its caches before the endpoint, so every
    # delta and bound comes from the same cached products at any cadence
    program = random_program(16, 2100, 210, np.random.default_rng(25))
    spec = equivalence_specs(16)[kind]
    traces = [hexed(row[1:] for row in
                    step_rows(trace_potentials(program, spec, recompute_every=every,
                                               check_bounds=False, track_kappa=False)))
              for every in (0, 1, 7, 1024)]
    assert traces[1] == traces[0] and traces[2] == traces[0] and traces[3] == traces[0]


@pytest.mark.parametrize("gates, recompute_every, error, message", [
    ([Constant(1, 2.0), Constant(2, 1e-13), Rotation(1, 2, 0.5)], 1024,
     ValueError, "step 2: matrix is singular"),
    ([Constant(1, 2.0), Rotation(1, 2, 0.5), Constant(2, 1e-13)], 1024,
     RuntimeError, "step 2: |delta| = "),
    ([Constant(1, 2.0), Rotation(1, 2, 0.5), Rotation(3, 4, 0.5)], 2,
     RuntimeError, "step 2: tracker desynchronized"),
], ids=["certifier-first", "violation-first", "resync-at-the-violation"])
def test_errors_name_the_step_the_engine_reached(gates, recompute_every, error, message,
                                                 monkeypatch):
    # the tracker computes a whole segment when the engine enters it, but a
    # step's bound is checked only after that step's certifier and resync,
    # so the first failing step is the one a gate-by-gate trace names
    monkeypatch.setattr(potential, "BOUND_TOL", -math.inf)  # every rotation violates
    if "desynchronized" in message:
        monkeypatch.setattr(potential, "DESYNC_TOL", -1.0)
    with pytest.raises(error, match=re.escape(message)):
        trace_potentials(GateProgram(4, gates), PotentialSpec.plain(4),
                         recompute_every=recompute_every)
