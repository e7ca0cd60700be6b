"""Command-line driver tests: golden traces, determinism, exit codes."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qel
from qel import cli, gates, hadamard, lemma, perturb, potential
from qel.cli import build_potential_spec, format_csv_row, main, worker_count
from qel.gates import Rotation, load_program, run_program
from qel.hadamard import fast_wht_program, wht_matrix
from qel.lemma import LemmaInstance, lemma_lhs, lemma_rhs
from qel.potential import (NAMED_POTENTIALS, PotentialSpec, k_slice_quasi_entropy,
                           load_matrices_text, named_spec, trace_potentials,
                           write_matrix_text)

DATA = Path(__file__).parent / "data"
GOLDEN_WHT = [2, 4]
GOLDEN_PERTURBATION = [
    ("fast", "plain", "run_perturbation_n8_fast.csv"),
    ("appendix-b", "plain", "run_perturbation_n8_appendix_b.csv"),
    ("fast", "hat-pq", "run_perturbation_n8_fast_hat.csv"),
]


def golden_wht_argv(n):
    return ["run-wht", "--n", str(n)]


def golden_perturbation_argv(route, potential):
    return ["run-perturbation", "--n", "8", "--eps", "0.125", "--route", route,
            "--potential", potential]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", GOLDEN_WHT)
def test_run_wht_trace_matches_golden_bytes(n, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli([*golden_wht_argv(n), "--out", str(out)], capsys)
    assert code == 0
    golden = (DATA / f"run_wht_n{n}.csv").read_bytes()
    assert out.read_bytes() == golden


@pytest.mark.parametrize("route, potential, name", GOLDEN_PERTURBATION)
def test_run_perturbation_trace_matches_golden_bytes(route, potential, name, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        [*golden_perturbation_argv(route, potential), "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_golden_traces_hold_with_numpy_simd_dispatch_disabled(tmp_path):
    # np.log2 may round differently at another SIMD level; rerun every
    # golden trace with each dispatched feature this host enables disabled
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not enabled:
        pytest.skip("numpy dispatches no SIMD feature beyond its baseline here")
    runs = [(golden_wht_argv(n), f"run_wht_n{n}.csv") for n in GOLDEN_WHT]
    runs += [(golden_perturbation_argv(route, potential), name)
             for route, potential, name in GOLDEN_PERTURBATION]
    script = (
        "import json, sys\n"
        "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
        "from qel.cli import main\n"
        "print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__.get(f)]))\n"
        "for argv, name in json.loads(sys.argv[1]):\n"
        "    assert main([*argv, '--out', name]) == 0\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled),
               PYTHONPATH=str(Path(qel.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0]) == []
    for _, name in runs:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_run_wht_summary_line(capsys):
    code, out, _ = run_cli(["run-wht", "--n", "8", "--out", os.devnull], capsys)
    assert code == 0
    assert "run-wht n=8 potential=plain" in out
    assert "final=24.0" in out


def test_resync_rows_print_positive_zero(tmp_path, capsys):
    # the hat potential of every butterfly state is zero; a resync used to
    # store the from-scratch value as -0.0
    out = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(["run-wht", "--n", "8", "--potential", "hat-pq",
                               "--recompute-every", "4", "--out", str(out)], capsys)
    assert code == 0
    cells = [cell for line in out.read_text().splitlines() for cell in line.split(",")]
    assert "-0.0" not in cells
    assert "final=0.0 direct=0.0" in stdout


@pytest.mark.parametrize("extra, step", [([], 24), (["--recompute-every", "4"], 4)],
                         ids=["endpoint", "periodic"])
def test_run_wht_names_the_step_where_the_tracker_desynchronized(
        extra, step, tmp_path, capsys, monkeypatch):
    # step 24 is the endpoint of the n = 8 butterfly program
    monkeypatch.setattr(potential, "DESYNC_TOL", -1.0)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run-wht", "--n", "8", *extra, "--out", "trace.csv"], capsys)
    assert code == 1
    assert f"qel: FAIL: step {step}: tracker desynchronized" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("every, steps", [("8", [8, 16, 24]), ("5", [5, 10, 15, 20, 24]),
                                          ("1024", [24])])
def test_trace_evaluates_the_final_state_from_scratch_once(every, steps, capsys, monkeypatch):
    # a periodic resync at the last step (24) doubles as the endpoint check;
    # each resync, and nothing else, checks the tracked inverse: the probe at
    # every periodic step before the endpoint, the exact product only at 24
    seen, probe_steps, drift_steps = [], [], []
    real = potential.PotentialTracker.resync
    monkeypatch.setattr(potential.PotentialTracker, "resync",
                        lambda self, state, endpoint:
                        seen.append(state.t) or real(self, state, endpoint))
    real_drift, real_probe = gates.inverse_drift, gates.inverse_probe

    def drift_spy(state):
        drift_steps.append(state.t)
        return real_drift(state)

    def probe_spy(state, V):
        probe_steps.append(state.t)
        return real_probe(state, V)

    for module in (gates, potential):
        monkeypatch.setattr(module, "inverse_drift", drift_spy)
        monkeypatch.setattr(module, "inverse_probe", probe_spy)
    code, stdout, _ = run_cli(["run-wht", "--n", "8", "--potential", "precond-id-f",
                               "--recompute-every", every, "--out", os.devnull], capsys)
    assert code == 0
    assert seen == steps
    assert probe_steps == steps[:-1]
    assert drift_steps == [24]
    assert sorted(probe_steps + drift_steps) == steps  # every resync checks the inverse
    direct = float(re.search(r"direct=(\S+)", stdout)[1])
    final = run_program(fast_wht_program(8))
    expected = k_slice_quasi_entropy(final.M, named_spec("precond-id-f", 8),
                                     minv_t=final.MinvT)
    assert abs(direct - expected) <= potential.DESYNC_TOL


def test_a_clean_trace_runs_the_exact_drift_check_once(capsys, monkeypatch):
    # every one of the 2048 steps is a checkpoint; the 2047 before the
    # endpoint probe the inverse, and only the endpoint forms M^T M^-T
    probes, drifts = [], []
    real_drift, real_probe = gates.inverse_drift, gates.inverse_probe
    monkeypatch.setattr(potential, "inverse_drift",
                        lambda state: drifts.append(state.t) or real_drift(state))
    monkeypatch.setattr(potential, "inverse_probe",
                        lambda state, V: probes.append(state.t) or real_probe(state, V))
    code, _, _ = run_cli(["run-wht", "--n", "256", "--recompute-every", "1",
                          "--out", os.devnull], capsys)
    assert code == 0
    assert drifts == [2048]
    assert probes == list(range(1, 2048))


def test_a_clean_trace_forms_slice_products_only_at_its_endpoints(capsys, monkeypatch):
    # periodic checkpoints probe the caches instead of rebuilding them, so
    # products are formed when a tracker starts and at its endpoint only;
    # each call is recorded as the number of gates the engine has applied
    applied, formed = [0], []
    real_apply, real_products = gates.apply_gate, potential._slice_products

    def counting_apply(state, gate):
        applied[0] += 1
        return real_apply(state, gate)

    monkeypatch.setattr(gates, "apply_gate", counting_apply)
    monkeypatch.setattr(potential, "_slice_products",
                        lambda *args: formed.append(applied[0]) or real_products(*args))
    code, _, _ = run_cli(["run-wht", "--n", "256", "--potential", "hat-pq",
                          "--recompute-every", "16", "--out", os.devnull], capsys)
    assert code == 0 and formed == [2048]
    applied[0], formed[:] = 0, []
    code, _, _ = run_cli(["verify-theorem2", "--n", "32", "--programs", "2", "--gates", "600",
                          "--recompute-every", "7", "--out", os.devnull], capsys)
    assert code == 0 and formed == [330, 660]  # two programs of 300 + 30 gates


@pytest.mark.parametrize("argv", [
    ["run-wht", "--recompute-every", "0"],
    ["verify-lemma", "--instances", "0"],
    ["verify-theorem2", "--programs", "0"],
    ["verify-theorem2", "--gates", "0"],
], ids=lambda argv: argv[1])
def test_count_flags_reject_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be >= 1, got 0" in capsys.readouterr().err


def test_plot_data_mode_has_two_columns(tmp_path, capsys):
    out = tmp_path / "plot.csv"
    code, _, _ = run_cli(
        ["run-wht", "--n", "4", "--plot-data", "--out", str(out)], capsys
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,potential"
    assert all(line.count(",") == 1 for line in lines)
    assert lines[-1] == "8,8.0"


def test_run_wht_rejects_bad_dimension(capsys):
    code, _, err = run_cli(["run-wht", "--n", "3"], capsys)
    assert code == 2
    assert "power of two" in err


def test_run_perturbation_summary_and_warning(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, err = run_cli(
        [
            "run-perturbation",
            "--n", "16",
            "--eps", "0.015625",
            "--route", "fast",
            "--potential", "hat-pq",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert "1/eps = 64 exceeds n = 16" in err
    assert "route=FastKronecker" in stdout
    assert "kappa_certificate=" in stdout
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 81  # init row plus 16*4 rotations and 16 constants
    assert rows[1]["thm2_bound"] == ""  # two-slice potential has no bound column


def test_run_perturbation_appendix_route(capsys):
    code, stdout, _ = run_cli(
        [
            "run-perturbation",
            "--n", "8",
            "--eps", "0.125",
            "--route", "appendix-b",
            "--out", os.devnull,
        ],
        capsys,
    )
    assert code == 0
    assert "route=AppendixB" in stdout


def test_run_perturbation_rejects_eps_out_of_range(capsys):
    code, _, err = run_cli(["run-perturbation", "--n", "8", "--eps", "0.5"], capsys)
    assert code == 2
    assert "eps" in err


def test_scaling_sweep_csv_schema_and_signs(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        [
            "scaling-sweep",
            "--n-grid", "64,128",
            "--eps-grid", "0.125 0.03125",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    for row in rows:
        assert float(row["phi_plain"]) < 0.0
        assert float(row["phi_precond_id_f"]) > 0.0
        assert float(row["phi_hat"]) > 0.0
    assert "scaling-sweep hat-pq: ratio range" in stdout


def test_scaling_sweep_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            ["scaling-sweep", "--n-grid", "64", "--eps-grid", "0.125",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_scaling_sweep_failures_print_in_grid_order(capsys, monkeypatch):
    # plain potentials come out positive and the others negative, so every
    # sign condition that applies fails, and every cross-check (n <= 256)
    monkeypatch.setattr(cli, "perturbation_potentials", lambda n, eps: (1.0, -1.0, -1.0))
    code, _, err = run_cli(
        ["scaling-sweep", "--n-grid", "64 128 256 512", "--eps-grid", "0.25 0.125",
         "--out", os.devnull],
        capsys,
    )
    assert code == 1
    expected = []
    for n in (64, 128, 256, 512):
        for eps in ("0.25", "0.125"):
            if n <= 256:
                expected += [
                    re.escape(f"FAIL: {name} closed form {closed} is off the dense "
                              "evaluator's ") + r"\S+" + re.escape(" by more than its error bound ")
                    + r"\S+" + re.escape(f" at n={n} eps={eps}")
                    for name, closed in (("phi_plain", "1.0"), ("phi_precond_id_f", "-1.0"),
                                         ("phi_hat", "-1.0"))]
            expected.append(re.escape(f"FAIL: phi_plain >= 0 at n={n} eps={eps}"))
            if eps == "0.125":
                expected += [re.escape(f"FAIL: phi_precond_id_f <= 0 at n={n} eps={eps}"),
                             re.escape(f"FAIL: phi_hat <= 0 at n={n} eps={eps}")]
    lines = [line for line in err.splitlines() if line.startswith("FAIL")]
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.fullmatch(pattern, line), (line, pattern)


def test_scaling_sweep_cross_check_names_the_point_off_the_dense_evaluator(
        capsys, monkeypatch):
    exact = cli.perturbation_potentials

    def perturbed(n, eps):
        plain, precond, hat = exact(n, eps)
        return (plain * (1.0 + 1e-8) if eps == 2.0 ** -5 else plain), precond, hat

    monkeypatch.setattr(cli, "perturbation_potentials", perturbed)
    code, _, err = run_cli(["scaling-sweep", "--n-grid", "64", "--out", os.devnull], capsys)
    assert code == 1
    fails = [line for line in err.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL: phi_plain closed form ")
    assert fails[0].endswith(" at n=64 eps=0.03125")


def test_scaling_sweep_is_exact_where_dense_products_lose_every_digit(tmp_path, capsys):
    # at eps = 2^-30, 1 + eps^2 rounds to 1, so the dense plain value is noise
    # (-3.6065e-15); this is the entry classes summed in 50-digit decimals
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["scaling-sweep", "--n-grid", "64", "--eps-grid",
                          "9.313225746154785e-10", "--out", str(out)], capsys)
    assert code == 0
    (row,) = csv.DictReader(out.open())
    assert float(row["phi_plain"]) == pytest.approx(-3.685324430673102e-15, rel=1e-14, abs=0.0)


def test_scaling_sweep_reaches_n_2_40_without_dense_products(tmp_path, capsys, monkeypatch):
    calls = []
    real = hadamard.wht_matrix

    def spy(n):
        calls.append(n)
        return real(n)

    for module in (hadamard, perturb, potential):
        monkeypatch.setattr(module, "wht_matrix", spy)
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(
        ["scaling-sweep", "--n-grid", "1099511627776", "--eps-grid", "9.313225746154785e-10",
         "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    assert calls == []
    (row,) = csv.DictReader(out.open())
    for key in ("ratio_plain", "ratio_precond_id_f", "ratio_hat"):
        assert math.isfinite(float(row[key])) and float(row[key]) > 0.0
    assert "scaling-sweep hat-pq: ratio range" in stdout


@pytest.mark.parametrize("eps", ["0.125", "0.0625", "0.03125"])
def test_scaling_sweep_rejects_n_below_4(eps, capsys):
    # the hat potential is identically 0 at n = 2, so its sign (and the hat
    # spread) would be roundoff at every eps; each must be refused alike
    code, stdout, err = run_cli(["scaling-sweep", "--n-grid", "2", "--eps-grid", eps], capsys)
    assert code == 2
    assert stdout == ""
    assert "needs n >= 4" in err and "identically 0" in err
    assert "Traceback" not in err


def test_thread_cap_does_not_change_results(tmp_path, capsys, monkeypatch):
    # verify-lemma is the one subcommand that pools: 3 threads cut each ell's
    # 5 instances into three blocks
    argv = ["verify-lemma", "--ell-grid", "64 128", "--instances", "5", "--seed", "11"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    monkeypatch.setenv("QEL_THREADS", "1")
    assert run_cli([*argv, "--out", str(serial)], capsys)[0] == 0
    monkeypatch.setenv("QEL_THREADS", "3")
    assert worker_count() == 3
    assert run_cli([*argv, "--out", str(pooled)], capsys)[0] == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_invalid_thread_cap_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("QEL_THREADS", "many")
    code, _, err = run_cli(
        ["verify-lemma", "--ell-grid", "64", "--instances", "1"], capsys
    )
    assert code == 2
    assert "QEL_THREADS" in err


def test_verify_lemma_csv_and_exit(tmp_path, capsys):
    out = tmp_path / "lemma.csv"
    code, stdout, _ = run_cli(
        ["verify-lemma", "--ell-grid", "64", "--instances", "25",
         "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 25
    assert all(row["holds"] == "True" for row in rows)
    assert all(float(row["margin"]) > 0.0 for row in rows)
    assert "verify-lemma ell=64" in stdout


def assert_archives_rebuild(rows, directory):
    for row in rows:
        path = directory / f"lemma-violation-ell{row['ell']}-seed{row['seed']}.txt"
        x, y = load_matrices_text(path)  # 1-by-ell blocks
        inst = LemmaInstance(int(row["ell"]), x[0], y[0], float(row["C"]))
        assert inst.norm1() == float(row["norm1"])
        assert lemma_lhs(inst) == float(row["lhs"])
        assert lemma_rhs(inst) == float(row["rhs"])


def test_verify_lemma_archives_rebuild_the_failing_rows(tmp_path, capsys, monkeypatch):
    real = lemma.check_lemma
    # every row counts as failing, so the first four rows are archived
    monkeypatch.setattr(
        lemma, "check_lemma", lambda inst: dataclasses.replace(real(inst), holds=False))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "lemma.csv"
    code, _, _ = run_cli(
        ["verify-lemma", "--ell-grid", "64,256", "--instances", "3",
         "--seed", "20250819", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert_archives_rebuild(list(csv.DictReader(out.open()))[:4], tmp_path)


def test_verify_lemma_archives_rebuild_rows_from_every_block(tmp_path, capsys, monkeypatch):
    # 3 threads cut 7 instances into blocks 0-1, 2-3 and 4-6; the failing
    # rows sit in different blocks of both ells
    argv = ["verify-lemma", "--ell-grid", "64,256", "--instances", "7", "--seed", "3",
            "--out", "lemma.csv"]
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, capsys)[0] == 0
    rows = list(csv.DictReader(open("lemma.csv")))
    failing = [rows[1], rows[5], rows[7 + 3], rows[7 + 6]]
    keys = {(int(row["ell"]), float(row["norm1"])) for row in failing}
    real = lemma.check_lemma
    monkeypatch.setattr(
        lemma, "check_lemma",
        lambda inst: dataclasses.replace(real(inst), holds=(inst.ell, inst.norm1()) not in keys))
    monkeypatch.setenv("QEL_THREADS", "3")
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.count("FAIL: archived counterexample") == 4
    assert sorted(p.name for p in tmp_path.glob("lemma-violation-*")) == sorted(
        f"lemma-violation-ell{row['ell']}-seed{row['seed']}.txt" for row in failing)
    assert_archives_rebuild(failing, tmp_path)


@pytest.mark.parametrize("argv", [
    ["verify-lemma", "--ell-grid", "64,256", "--instances", "7"],
    ["verify-theorem2", "--n", "16", "--programs", "3", "--gates", "150"],
], ids=lambda argv: argv[0])
def test_campaign_output_does_not_depend_on_the_thread_count(argv, tmp_path, capsys, monkeypatch):
    outputs = set()
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QEL_THREADS", threads)
        out = tmp_path / f"threads{threads}.csv"
        code, stdout, err = run_cli([*argv, "--out", str(out)], capsys)
        assert code == 0
        outputs.add((out.read_bytes(), stdout, err))
    assert len(outputs) == 1


def test_verify_lemma_rejects_large_interference(capsys):
    code, _, err = run_cli(["verify-lemma", "--c", "0.2"], capsys)
    assert code == 2
    assert "1/8" in err


def test_verify_theorem2_histogram_and_exit(tmp_path, capsys):
    out = tmp_path / "thm2.csv"
    code, stdout, _ = run_cli(
        ["verify-theorem2", "--n", "16", "--programs", "3", "--gates", "150",
         "--seed", "11", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 150
    for row in rows:
        assert abs(float(row["delta"])) <= float(row["bound"]) + 1e-8
    assert "rotations_checked=150" in stdout
    assert "ratio [0.9, 1.0]" in stdout


def test_verify_theorem2_checks_exactly_the_requested_rotations(tmp_path, capsys):
    out = tmp_path / "thm2.csv"
    code, stdout, _ = run_cli(
        ["verify-theorem2", "--n", "16", "--programs", "3", "--gates", "200",
         "--seed", "11", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "rotations_checked=200 " in stdout
    programs = [row["program"] for row in csv.DictReader(out.open())]
    assert [programs.count(str(i)) for i in range(3)] == [67, 67, 66]


def test_verify_theorem2_rejects_fewer_gates_than_programs(capsys):
    code, _, err = run_cli(
        ["verify-theorem2", "--n", "8", "--programs", "4", "--gates", "2"], capsys)
    assert code == 2
    assert "--gates must be >= --programs (4), got 2" in err


def test_run_wht_names_the_first_step_over_the_rotation_bound(tmp_path, capsys, monkeypatch):
    # the butterfly rotations meet their bound to within an ulp, so a
    # negative tolerance turns them into violations
    tol = -1e-12
    program = fast_wht_program(8)
    trajectory = trace_potentials(program, PotentialSpec.plain(8))
    first = next(t for t, (gate, delta, bound)
                 in enumerate(zip(program.gates, trajectory.deltas, trajectory.bounds), start=1)
                 if isinstance(gate, Rotation) and abs(delta) > bound + tol)
    monkeypatch.setattr(potential, "BOUND_TOL", tol)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run-wht", "--n", "8", "--out", "trace.csv"], capsys)
    assert code == 1
    assert f"qel: FAIL: step {first}: |delta| = " in err
    assert "exceeds rotation bound" in err
    assert not (tmp_path / "trace.csv").exists()


def test_verify_theorem2_archives_replay_the_violations(tmp_path, capsys, monkeypatch):
    # about half of these rotations sit within 0.44 of their bound; the
    # archives replay at the default cadence, and deltas do not depend on it
    tol = -0.44
    monkeypatch.setattr(potential, "BOUND_TOL", tol)
    for run, argv in enumerate([["--n", "8", "--gates", "40"],
                                ["--n", "16", "--gates", "400", "--recompute-every", "5"]]):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, _, err = run_cli(
            ["verify-theorem2", *argv, "--programs", "2", "--seed", "11", "--out", "thm2.csv"],
            capsys,
        )
        assert code == 1
        rows = list(csv.DictReader(open("thm2.csv")))
        for index in range(2):
            mine = {int(r["step"]): r for r in rows if r["program"] == str(index)}
            steps = sorted(t for t, r in mine.items()
                           if abs(float(r["delta"])) > float(r["bound"]) + tol)
            assert 0 < len(steps) < len(mine)
            stem = f"theorem2-violation-program{index}"
            assert f"FAIL: program {index} broke the rotation bound at steps {steps}" in err
            A, B = load_matrices_text(f"{stem}.mats")
            program = load_program(f"{stem}.gates")
            replay = trace_potentials(program, PotentialSpec.preconditioned(A, B),
                                      check_bounds=False, track_kappa=False)
            columns = list(enumerate(zip(program.gates, replay.deltas, replay.bounds), start=1))
            assert [t for t, step in columns if potential._exceeds_bound(*step)] == steps
            for t, (_, delta, bound) in columns:
                if t in mine:
                    assert delta.hex() == float(mine[t]["delta"]).hex()
                    assert bound.hex() == float(mine[t]["bound"]).hex()


def test_verify_theorem2_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli(
            ["verify-theorem2", "--n", "16", "--programs", "2",
             "--gates", "80", "--seed", "3", "--out", str(path)],
            capsys,
        )
    assert a.read_bytes() == b.read_bytes()


def test_k_slice_potential_from_file_matches_hat(tmp_path, capsys):
    n = 8
    F = wht_matrix(n)
    slices = tmp_path / "slices.txt"
    with open(slices, "w") as fh:
        write_matrix_text(fh, np.eye(n))   # A1
        write_matrix_text(fh, F)           # B1
        write_matrix_text(fh, -F)          # A2
        write_matrix_text(fh, np.eye(n))   # B2
    out_k = tmp_path / "k.csv"
    out_h = tmp_path / "h.csv"
    run_cli(["run-wht", "--n", str(n), "--potential", "k-slice",
             "--slices", str(slices), "--out", str(out_k)], capsys)
    run_cli(["run-wht", "--n", str(n), "--potential", "hat-pq",
             "--out", str(out_h)], capsys)
    col = lambda path: [r["potential"] for r in csv.DictReader(path.open())]
    k_vals = [float(v) for v in col(out_k)]
    h_vals = [float(v) for v in col(out_h)]
    assert k_vals == pytest.approx(h_vals, abs=1e-9)


def test_k_slice_requires_slices_file(capsys):
    code, _, err = run_cli(["run-wht", "--n", "4", "--potential", "k-slice"], capsys)
    assert code == 2
    assert "--slices" in err


def test_missing_slices_file_is_config_error(capsys):
    code, _, err = run_cli(
        ["run-wht", "--n", "4", "--potential", "k-slice",
         "--slices", "/nonexistent/path.txt"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("argv", [["run-wht", "--n", "4", "--potential", "plain"],
                                  ["run-perturbation", "--n", "8", "--eps", "0.125",
                                   "--potential", "hat-pq"]],
                         ids=["run-wht", "run-perturbation"])
def test_slices_with_a_named_potential_is_config_error(argv, tmp_path, capsys):
    # a named kind has no use for the file, so it must not be ignored in silence
    out = tmp_path / "out.csv"
    code, _, err = run_cli([*argv, "--slices", "/nonexistent/path.txt", "--out", str(out)],
                           capsys)
    assert code == 2
    assert f"--slices applies only to --potential k-slice, not {argv[-1]}" in err
    assert not out.exists()


def test_run_perturbation_resolves_the_potential_before_synthesis(capsys, monkeypatch):
    # a bad --slices file exits 2 before any program is synthesized, so no
    # kappa of a synthesized state is certified; the spy sees a good run's
    calls = []
    real = gates.condition_number
    monkeypatch.setattr(gates, "condition_number", lambda M: calls.append(1) or real(M))
    code, _, err = run_cli(["run-perturbation", "--n", "256", "--eps", "0.0625",
                            "--potential", "k-slice", "--slices", "/nonexistent/s.txt"],
                           capsys)
    assert code == 2 and "/nonexistent/s.txt" in err
    assert calls == []
    code, _, _ = run_cli(["run-perturbation", "--n", "8", "--eps", "0.125", "--out", os.devnull],
                         capsys)
    assert code == 0 and calls


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
def test_write_table_streams_the_joined_text(count, tmp_path, capsys, monkeypatch):
    # chunks of three rows, written one at a time, give the bytes of the
    # whole table joined at once, on a file and on stdout
    monkeypatch.setattr(cli, "_TABLE_CHUNK", 3)
    header = ("step", "value")
    rows = [(t, t / 7, None if t % 2 else "x") for t in range(count)]
    text = "\n".join([",".join(header), *map(format_csv_row, rows)]) + "\n"
    cli._write_table(tmp_path / "t.csv", header, iter(rows))
    assert (tmp_path / "t.csv").read_bytes() == text.encode("ascii")
    cli._write_table(None, header, iter(rows))
    assert capsys.readouterr().out == text


def test_build_potential_spec_labels():
    assert build_potential_spec("plain", 4, None).label == "plain"
    assert build_potential_spec("hat-pq", 4, None).label == "hat-pq"
    for kind in NAMED_POTENTIALS:
        assert build_potential_spec(kind, 4, None).label == kind
    with pytest.raises(ValueError):
        build_potential_spec("mystery", 4, None)
    for command in ("run-wht", "run-perturbation"):
        assert potential_choices(command) == (*NAMED_POTENTIALS, "k-slice")


def potential_choices(command):
    """The --potential choices of one subcommand's parser."""
    subparsers, = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    flag, = (action for action in subparsers.choices[command]._actions
             if action.dest == "potential")
    return tuple(flag.choices)


@pytest.mark.parametrize("header", ["n 0 3", "n -1 2\n1.0 2.0"],
                         ids=["zero-rows", "negative-rows"])
def test_k_slice_file_with_a_non_positive_size_is_config_error(header, tmp_path, capsys):
    slices = tmp_path / "slices.txt"
    slices.write_text(header + "\n")
    code, _, err = run_cli(["run-wht", "--n", "4", "--potential", "k-slice",
                            "--slices", str(slices)], capsys)
    assert code == 2
    size = header.split("\n")[0]
    assert f"matrix header '{size}' needs rows and cols >= 1" in err


@pytest.mark.parametrize("text, message", [
    ("# A1\n# B1\n", "no matrices found in"),
    ("n 1 1\n1.0\n", "slices file must hold an even, positive number of matrices"),
], ids=["comments-only", "one-matrix"])
def test_k_slice_file_without_a_pair_of_matrices_is_config_error(text, message, tmp_path,
                                                                 capsys):
    slices = tmp_path / "slices.txt"
    slices.write_text(text)
    code, _, err = run_cli(["run-wht", "--n", "4", "--potential", "k-slice",
                            "--slices", str(slices)], capsys)
    assert code == 2
    assert message in err


NAN_SLICES = "n 2 2\nnan 0.0\n0.0 1.0\nn 2 2\n1.0 0.0\n0.0 1.0\n"
HUGE_SLICES = "n 2 2\n1e200 0.0\n0.0 1e200\nn 2 2\n1e200 0.0\n0.0 1e200\n"


# (argv, QEL_THREADS, --slices file text, a fragment the message must hold);
# "SLICES" and "OUT" in argv stand for files under the test's tmp_path
EDGE_INPUTS = {
    "slices-nan": (["run-wht", "--n", "2", "--potential", "k-slice", "--slices", "SLICES"],
                   None, NAN_SLICES, "slice 0: A has a non-finite entry"),
    "slices-inf": (["run-wht", "--n", "2", "--potential", "k-slice", "--slices", "SLICES"],
                   None, NAN_SLICES.replace("nan", "inf"), "slice 0: A has a non-finite entry"),
    "slices-overflow": (["run-wht", "--n", "2", "--potential", "k-slice", "--slices", "SLICES"],
                        None, HUGE_SLICES, "the starting k-slice potential is -inf, not finite"),
    "sweep-eps-below-floor-n4": (["scaling-sweep", "--n-grid", "4", "--eps-grid", "1e-200"],
                                 None, None, "point n=4 eps=1e-200"),
    "sweep-eps-below-floor-n512": (["scaling-sweep", "--n-grid", "512", "--eps-grid", "1e-200"],
                                   None, None, "point n=512 eps=1e-200"),
    "sweep-off-diagonal-subnormal": (["scaling-sweep", "--n-grid", "1099511627776",
                                      "--eps-grid", "3e-161"],
                                     None, None, "point n=1099511627776 eps=3e-161"),
    "subnormal-eps": (["run-perturbation", "--n", "4", "--eps", "5e-324", "--out", "OUT"],
                      None, None, "got the subnormal 5e-324"),
    "n-not-power-of-two": (["run-wht", "--n", "6"], None, None, "power of two"),
    "eps-too-large": (["run-perturbation", "--n", "8", "--eps", "0.5"],
                      None, None, "eps must lie in [0, 1/2)"),
    "zero-threads": (["verify-lemma", "--ell-grid", "64", "--instances", "1"],
                     "0", None, "QEL_THREADS must be >= 1"),
}


@pytest.mark.parametrize("case", EDGE_INPUTS, ids=str)
def test_edge_inputs_are_config_errors(case, tmp_path, capsys, monkeypatch):
    argv, threads, slices_text, fragment = EDGE_INPUTS[case]
    slices, out = tmp_path / "slices.txt", tmp_path / "out.csv"
    if slices_text is not None:
        slices.write_text(slices_text)
    if threads is not None:
        monkeypatch.setenv("QEL_THREADS", threads)
    argv = [{"SLICES": str(slices), "OUT": str(out)}.get(arg, arg) for arg in argv]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("qel: error:") and "Traceback" not in err
    assert fragment in err
    assert stdout == "" and not out.exists()


def test_scaling_sweep_accepts_eps_at_the_normalizer_floor(capsys):
    # the smallest eps whose plain off-diagonal class eps^2 / (n (1 - eps^2))
    # is a normal float, at each n, found by bisection (eps^2 is subnormal
    # there, so one ulp of eps may not move it); the largest eps below the
    # floor is rejected.  Each accepted point, the README's corner n = 2^40,
    # eps = 2^-30 included, keeps the dominant term of the plain potential:
    # its ratio is (1 - 1/n) (1 + (2 log2(1/eps) + 1/ln 2) / log2 n).
    points = []
    for n in (4, 256, 512, 2 ** 40):
        lo, hi = 0.0, 0.25
        while lo < (mid := (lo + hi) / 2) < hi:
            if mid * mid / (n * (1.0 - mid * mid)) < sys.float_info.min:
                lo = mid
            else:
                hi = mid
        code, _, err = run_cli(["scaling-sweep", "--n-grid", str(n), "--eps-grid", repr(lo)],
                               capsys)
        assert code == 2 and f"point n={n} eps={lo!r}" in err
        points.append((n, hi))
    points.append((2 ** 40, 2.0 ** -30))
    for n, eps in points:
        code, stdout, err = run_cli(["scaling-sweep", "--n-grid", str(n),
                                     "--eps-grid", repr(eps)], capsys)
        assert code == 0, err
        assert "FAIL" not in err and "Traceback" not in err
        header, row = stdout.splitlines()[:2]
        assert header == ",".join(cli.SWEEP_COLUMNS)
        ratio_plain = float(row.split(",")[cli.SWEEP_COLUMNS.index("ratio_plain")])
        expected = (1 - 1 / n) * (1 + (2 * math.log2(1 / eps) + 1 / math.log(2)) / math.log2(n))
        assert ratio_plain == pytest.approx(expected, rel=1e-9)


def test_format_csv_row_conventions():
    assert format_csv_row([1, "R", None, 0.5, True]) == "1,R,,0.5,True"
    assert format_csv_row([2.0 ** -6]) == "0.015625"
