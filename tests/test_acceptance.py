"""Acceptance suite: exact identities, inequality campaigns, scaling bands.

One test per criterion; each prints a single PASS/FAIL verdict line (routed
past pytest's capture so the lines always reach the console).  Tolerances
are stated next to each check.  Band anchors for the Id + eps*F potentials
were frozen from the closed-form entry classes at n = 64 (see
tests/test_potential.py for the derivation) before the sweep below ran.
"""

import csv
import math
import numpy as np
import pytest

from qel.cli import main as cli_main
from qel.gates import (
    Constant,
    Rotation,
    TrackedState,
    apply_gate,
    program_matrix,
    random_program,
)
from qel.hadamard import fast_wht_program, wht_matrix
from qel.lemma import check_lemma, run_campaign, LemmaInstance
from qel.perturb import (
    ROUTE_APPENDIX_B,
    ROUTE_FAST_KRONECKER,
    exact_inverse_perturbation,
    inverse_residual,
    inverse_residual_norm,
    perturbation_matrix,
    synth_perturbation,
)
from qel.potential import (
    PotentialSpec,
    hat_wht_spec,
    k_slice_quasi_entropy,
    quasi_entropy,
    rotation_delta_bound,
    trace_potentials,
)

POWERS_TO_1024 = tuple(2 ** k for k in range(1, 11))
POWERS_TO_512 = tuple(2 ** k for k in range(1, 10))
EPS_GRID = tuple(2.0 ** -j for j in range(3, 9))
CAMPAIGN_SEED = 20250819

# bands for |phi| / denom over the default sweep grid, frozen at n = 64
# from the closed-form entry classes before the full sweep ran
PLAIN_BAND = (1.5, 4.0)
PRECOND_BAND = (0.9, 2.2)
HAT_BAND = (1.9, 2.1)


@pytest.fixture()
def report(capsys):
    """Verdict printer that bypasses capture so every criterion leaves one
    PASS/FAIL line on the console even in quiet runs."""

    def _report(num, ok, detail):
        line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_01_exact_potentials(report):
    worst_id, worst_f = 0.0, 0.0
    for n in POWERS_TO_1024:
        phi_id = quasi_entropy(np.eye(n))
        phi_f = quasi_entropy(wht_matrix(n))
        expect = n * math.log2(n)
        worst_id = max(worst_id, abs(phi_id))
        worst_f = max(worst_f, abs(phi_f - expect) / expect)
    ok = worst_id <= 1e-9 and worst_f <= 1e-9
    report(
        1,
        ok,
        "identity potential 0 and transform potential n log2 n over "
        f"n in {{2..1024}}; |phi(Id)| <= {worst_id:.2e}, "
        f"relative transform error <= {worst_f:.2e} (tol 1e-9)",
    )


def test_criterion_02_butterfly_program_correctness(report):
    worst = 0.0
    counts_ok = True
    for n in POWERS_TO_1024:
        program = fast_wht_program(n)
        k = int(math.log2(n))
        counts_ok = counts_ok and program.rotation_count() == (n // 2) * k
        err = float(np.linalg.norm(program_matrix(program) - wht_matrix(n)))
        worst = max(worst, err)
    ok = counts_ok and worst <= 1e-10
    report(
        2,
        ok,
        f"butterfly programs realize the transform, Frobenius error <= "
        f"{worst:.2e} (tol 1e-10), rotation count (n/2) log2 n exact, n <= 1024",
    )


def test_criterion_03_rotation_bound_campaign_and_tightness(report, tmp_path, monkeypatch):
    # verify-theorem2 exits 0 only if every rotation stays within its bound
    # (tol 1e-8); failure archives land in the temporary working directory
    monkeypatch.chdir(tmp_path)
    code = cli_main(["verify-theorem2", "--n", "128", "--programs", "10",
                     "--gates", str(10 ** 4), "--seed", str(CAMPAIGN_SEED),
                     "--out", "thm2.csv"])
    with open("thm2.csv") as fh:
        ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
    rotations = len(ratios)
    worst_ratio = max(ratios)
    ok = code == 0 and rotations >= 10 ** 4

    state = TrackedState.identity(2)
    spec = PotentialSpec.plain(2)
    bound = rotation_delta_bound(state, spec, 1, 2)
    before = k_slice_quasi_entropy(state.M, spec)
    apply_gate(state, Rotation(1, 2, math.pi / 4))
    delta = k_slice_quasi_entropy(state.M, spec) - before
    tight = abs(delta / bound - 1.0) <= 1e-9
    report(
        3,
        ok and tight,
        f"{rotations} random rotations at n=128 all within the row-norm bound "
        f"(tol 1e-8, max ratio {worst_ratio:.3f}); quarter-turn witness "
        f"delta/bound = 1 within 1e-9",
    )


def test_criterion_04_constant_gates_leave_plain_potential_fixed(report):
    programs = [
        fast_wht_program(16),
        fast_wht_program(64),
        synth_perturbation(16, 0.125, ROUTE_FAST_KRONECKER).program,
        random_program(32, 60, 30, np.random.default_rng(CAMPAIGN_SEED)),
    ]
    worst = 0.0
    checked = 0
    for program in programs:
        state = TrackedState.identity(program.n)
        for gate in program.gates:
            if isinstance(gate, Constant):
                before = quasi_entropy(state.M, minv_t=state.MinvT)
                apply_gate(state, gate)
                after = quasi_entropy(state.M, minv_t=state.MinvT)
                worst = max(worst, abs(after - before))
                checked += 1
            else:
                apply_gate(state, gate)
    ok = checked > 100 and worst <= 1e-12
    report(
        4,
        ok,
        f"plain potential change across {checked} constant gates <= "
        f"{worst:.2e} (tol 1e-12), recomputed from scratch each time",
    )


@pytest.mark.slow
def test_criterion_05_perturbation_synthesis_both_routes(report):
    cases = [(n, eps) for n in (8, 32, 128, 256) for eps in EPS_GRID]
    cases += [(512, EPS_GRID[0]), (512, EPS_GRID[-1])]
    worst_real = 0.0
    ok = True
    for n, eps in cases:
        kappa_limit = (1.0 + eps) / (1.0 - eps) + 1e-9
        target = perturbation_matrix(n, eps)
        for route in (ROUTE_FAST_KRONECKER, ROUTE_APPENDIX_B):
            plan = synth_perturbation(n, eps, route)
            ok = ok and plan.kappa_certificate <= kappa_limit
            if n <= 128:
                err = float(np.linalg.norm(program_matrix(plan.program) - target))
                worst_real = max(worst_real, err / n)
                ok = ok and err <= 1e-9 * n
            if route == ROUTE_FAST_KRONECKER:
                k = int(math.log2(n))
                ok = ok and len(plan.program) == n * k + n
    report(
        5,
        ok,
        f"both routes over {len(cases)} (n, eps) cases realize Id + eps*F "
        f"(independent recheck <= {worst_real:.2e} * n for n <= 128, "
        "builtin check 1e-9 * n everywhere) with kappa certificate <= "
        "(1+eps)/(1-eps) + 1e-9; fast route count n log2 n + n exact",
    )


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    code = cli_main(["scaling-sweep", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        return list(csv.DictReader(fh))


@pytest.mark.slow
def test_criterion_06_endpoint_values_and_scaling_bands(sweep_rows, report):
    hat_zero = all(
        k_slice_quasi_entropy(np.eye(n), hat_wht_spec(n)) == 0.0
        for n in (64, 256)
    )
    signs = all(
        float(r["phi_plain"]) < 0.0
        and float(r["phi_precond_id_f"]) > 0.0
        and float(r["phi_hat"]) > 0.0
        for r in sweep_rows
    )

    def band(key, lo, hi):
        vals = [float(r[key]) for r in sweep_rows]
        return min(vals), max(vals), lo <= min(vals) and max(vals) <= hi and max(vals) / min(vals) <= 4.0

    p_lo, p_hi, p_ok = band("ratio_plain", *PLAIN_BAND)
    c_lo, c_hi, c_ok = band("ratio_precond_id_f", *PRECOND_BAND)
    h_lo, h_hi, h_ok = band("ratio_hat", *HAT_BAND)
    ok = hat_zero and signs and p_ok and c_ok and h_ok
    report(
        6,
        ok,
        "hat potential exactly 0 at Id; sweep signs correct; normalized "
        f"ratios within x4 bands: plain [{p_lo:.2f}, {p_hi:.2f}], "
        f"first-order [{c_lo:.2f}, {c_hi:.2f}], hat [{h_lo:.2f}, {h_hi:.2f}]",
    )


@pytest.mark.slow
def test_criterion_07_per_step_hat_drift_stability(report):
    eps = 2.0 ** -6
    denom = eps * math.log2(1.0 / eps)
    ratios = {}
    for n in (64, 128, 256, 512):
        plan = synth_perturbation(n, eps, ROUTE_FAST_KRONECKER)
        trajectory = trace_potentials(
            plan.program, hat_wht_spec(n), track_kappa=False
        )
        ratios[n] = trajectory.max_abs_delta / denom
    spread = max(ratios.values()) / min(ratios.values())
    ok = all(math.isfinite(v) for v in ratios.values()) and spread <= 4.0
    detail = ", ".join(f"n={n}: {v:.3f}" for n, v in ratios.items())
    report(
        7,
        ok,
        f"max per-step hat drift / (eps log2(1/eps)) at eps=2^-6: {detail}; "
        f"spread x{spread:.2f} <= x4 (measured constants, not asserted "
        "against a theoretical value)",
    )


def test_criterion_08_incremental_tracking_fidelity(report):
    checks = []
    program = fast_wht_program(256)
    trajectory = trace_potentials(
        program, PotentialSpec.plain(256), recompute_every=10 ** 9
    )
    checks.append(abs(trajectory.final_value - trajectory.direct_final))

    plan = synth_perturbation(256, 2.0 ** -6, ROUTE_FAST_KRONECKER)
    trajectory = trace_potentials(
        plan.program, hat_wht_spec(256), recompute_every=10 ** 9,
        track_kappa=False,
    )
    checks.append(abs(trajectory.final_value - trajectory.direct_final))
    small_ok = max(checks) <= 1e-8

    program = fast_wht_program(512)
    trajectory = trace_potentials(
        program, PotentialSpec.plain(512), recompute_every=10 ** 9,
        track_kappa=False,
    )
    big_gap = abs(trajectory.final_value - trajectory.direct_final)
    ok = small_ok and big_gap <= 1e-6
    report(
        8,
        ok,
        "pure-incremental endpoint vs from-scratch evaluation: "
        f"<= {max(checks):.2e} at n=256 (tol 1e-8), {big_gap:.2e} at n=512 "
        "(tol 1e-6)",
    )


@pytest.mark.slow
def test_criterion_09_lemma_campaign(report):
    ells = (64, 256, 1024, 4096, 65536)
    violations = 0
    total = 0
    min_margin = math.inf
    for row in run_campaign(ells, 10 ** 4, C=0.125, seed=CAMPAIGN_SEED):
        total += 1
        min_margin = min(min_margin, row[6])
        violations += int(not row[7])

    uniform_ok = True
    for ell in (64, 1024):
        x = np.full(ell, 1.0 / ell)
        uniform = check_lemma(LemmaInstance(ell, x, np.zeros(ell), 0.0))
        uniform_ok = uniform_ok and abs(uniform.margin - 10.0) <= 1e-9
    ok = violations == 0 and total == 5 * 10 ** 4 and uniform_ok
    report(
        9,
        ok,
        f"{total} random admissible instances across ell in {ells}: "
        f"{violations} violations (slack 1e-9), min margin {min_margin:.3f}; "
        "uniform/noiseless margin equals 10 within 1e-9",
    )


def test_criterion_10_closed_form_inverse_identity(report):
    worst_id = 0.0
    worst_z = 0.0
    for n in POWERS_TO_512:
        for eps in EPS_GRID:
            M = perturbation_matrix(n, eps)
            Minv = exact_inverse_perturbation(n, eps)
            worst_id = max(worst_id, float(np.max(np.abs(M @ Minv - np.eye(n)))))
            Z = inverse_residual(n, eps)
            expect = inverse_residual_norm(eps)
            worst_z = max(worst_z, abs(np.linalg.norm(Z, 2) - expect) / expect)
    ok = worst_id <= 1e-12 and worst_z <= 1e-9
    report(
        10,
        ok,
        f"perturbation times closed-form inverse within {worst_id:.2e} of Id "
        f"(tol 1e-12) and residual spectral norm within {worst_z:.2e} "
        "relative of eps^2/(1-eps) (tol 1e-9), n <= 512",
    )
