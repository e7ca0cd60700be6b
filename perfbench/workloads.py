"""The benchmark's workloads: the qel.cli jobs of one pass and their output checks.

Each check reads the subcommand's own summary and CSV, never timing, and
returns a list of problems; an empty list means the job's output is right.
"""

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

WORKLOADS = ("wht-trace", "perturb-synth", "campaigns")

# Tolerances of the checks; the CLI applies the same slacks to itself.
POTENTIAL_TOL = 1e-6      # run-wht final potential vs n log2 n, and vs direct
KAPPA_TOL = 1e-9          # certificate vs (1 + eps) / (1 - eps)
DISAGREEMENT_TOL = 1e-6   # perturbation endpoint, incremental vs direct
BOUND_SLACK = 1e-8        # theorem-2 rotation bound slack
SIGN_EPS_CAP = 0.125      # sweep: first-order and hat signs are claimed up to here


@dataclass(frozen=True)
class JobOutput:
    returncode: int
    stdout: str
    stderr: str
    csv_text: str

    def table(self):
        """(header, rows) of the CSV the job wrote."""
        rows = list(csv.reader(io.StringIO(self.csv_text)))
        return (rows[0], rows[1:]) if rows else ([], [])


@dataclass(frozen=True)
class Job:
    name: str                  # metric stem: the job's seconds print as <name>_s
    argv: tuple                # qel.cli.main arguments, without --out
    check: Callable            # JobOutput -> list of problems
    gates: int = 0             # program gates traced through trace_potentials
    scaling_gates: int = 0     # of those, constant gates with |c| != 1


def _row_count(problems, rows, expected):
    if len(rows) != expected:
        problems.append(f"CSV has {len(rows)} rows, expected {expected}")


def check_run_wht(out, gates, final=None):
    m = re.search(r"gates=(\d+) final=(\S+) direct=(\S+)", out.stdout)
    if m is None:
        return ["no run-wht summary line"]
    problems = []
    count, value, direct = int(m[1]), float(m[2]), float(m[3])
    if count != gates:
        problems.append(f"gates={count}, expected {gates}")
    if not abs(value - direct) <= POTENTIAL_TOL:
        problems.append(f"final {value!r} disagrees with direct {direct!r}")
    if final is not None and not abs(value - final) <= POTENTIAL_TOL:
        problems.append(f"final potential {value!r}, expected {final!r}")
    _row_count(problems, out.table()[1], gates + 1)
    return problems


def check_run_perturbation(out, gates, eps):
    m = re.search(r"gates=(\d+) .*kappa_certificate=(\S+)", out.stdout)
    d = re.search(r"disagreement=(\S+)", out.stdout)
    if m is None or d is None:
        return ["no run-perturbation summary lines"]
    problems = []
    count, kappa, disagreement = int(m[1]), float(m[2]), float(d[1])
    if count != gates:
        problems.append(f"gates={count}, expected {gates}")
    allowed = (1.0 + eps) / (1.0 - eps) + KAPPA_TOL
    if not kappa <= allowed:
        problems.append(f"kappa_certificate {kappa!r} exceeds {allowed!r}")
    if not disagreement <= DISAGREEMENT_TOL:
        problems.append(f"endpoint disagreement {disagreement!r} > {DISAGREEMENT_TOL}")
    _row_count(problems, out.table()[1], gates + 1)
    return problems


def check_verify_lemma(out, ells, instances):
    verdicts = re.findall(r"verify-lemma ell=\d+ .* holds=(\w+)", out.stdout)
    problems = []
    if verdicts != ["True"] * ells:
        problems.append(f"summary verdicts {verdicts}, expected {ells} x True")
    header, rows = out.table()
    _row_count(problems, rows, ells * instances)
    if header:
        col = header.index("holds")
        failing = sum(1 for row in rows if row[col] != "True")
        if failing:
            problems.append(f"{failing} CSV rows do not hold")
    return problems


def check_verify_theorem2(out, rotations):
    m = re.search(r"rotations_checked=(\d+) max_ratio=(\S+)", out.stdout)
    if m is None:
        return ["no verify-theorem2 summary line"]
    problems = []
    if not float(m[2]) <= 1.0:
        problems.append(f"max_ratio {m[2]} > 1")
    header, rows = out.table()
    _row_count(problems, rows, rotations)
    if header:
        d, b = header.index("delta"), header.index("bound")
        violations = sum(1 for row in rows
                         if abs(float(row[d])) > float(row[b]) + BOUND_SLACK)
        if violations:
            problems.append(f"{violations} rotations exceed their bound")
    return problems


def check_scaling_sweep(out, points):
    header, rows = out.table()
    problems = []
    _row_count(problems, rows, points)
    if header:
        col = {name: header.index(name)
               for name in ("eps", "phi_plain", "phi_precond_id_f", "phi_hat")}
        failures = 0
        for row in rows:
            failures += float(row[col["phi_plain"]]) >= 0.0
            if float(row[col["eps"]]) <= SIGN_EPS_CAP:
                failures += float(row[col["phi_precond_id_f"]]) <= 0.0
                failures += float(row[col["phi_hat"]]) <= 0.0
        if failures:
            problems.append(f"{failures} sign failures in the sweep")
    return problems


def run_wht_job(name, n, potential):
    """The plain potential of the transform is exactly n log2 n, which is
    also the program's gate count."""
    gates = n * int(math.log2(n))
    final = float(gates) if potential == "plain" else None
    return Job(name, ("run-wht", "--n", str(n), "--potential", potential),
               partial(check_run_wht, gates=gates, final=final), gates=gates)


def run_perturbation_job(name, n, eps, route, gates):
    return Job(name, ("run-perturbation", "--n", str(n), "--eps", repr(eps),
                      "--route", route),
               partial(check_run_perturbation, gates=gates, eps=eps),
               gates=gates, scaling_gates=n)


def jobs(workload, seed):
    """The jobs of one pass, in the order they run.  Only `campaigns` draws
    on the seed, which it hands to the subcommands as --seed."""
    if workload == "wht-trace":
        return [run_wht_job("run_wht.plain", 1024, "plain"),
                run_wht_job("run_wht.hat_pq", 1024, "hat-pq")]
    if workload == "perturb-synth":
        return [run_perturbation_job("run_perturbation.fast", 256, 0.0625, "fast", 2304),
                run_perturbation_job("run_perturbation.appendix_b", 128, 0.0625,
                                     "appendix-b", 16384)]
    if workload == "campaigns":
        ells, instances = (64, 256, 1024, 4096, 65536), 200
        programs, rotations = 4, 8000
        constants = programs * (rotations // programs // 10)
        n_grid, eps_grid = (256, 512, 1024), (0.125, 0.0625, 0.03125)
        return [
            Job("verify_lemma",
                ("verify-lemma", "--ell-grid", ",".join(map(str, ells)),
                 "--instances", str(instances), "--seed", str(seed)),
                partial(check_verify_lemma, ells=len(ells), instances=instances)),
            # random constants have |c| = 2**u with u uniform, so never 1
            Job("verify_theorem2",
                ("verify-theorem2", "--n", "256", "--programs", str(programs),
                 "--gates", str(rotations), "--seed", str(seed)),
                partial(check_verify_theorem2, rotations=rotations),
                gates=rotations + constants, scaling_gates=constants),
            Job("scaling_sweep",
                ("scaling-sweep", "--n-grid", ",".join(map(str, n_grid)),
                 "--eps-grid", ",".join(map(repr, eps_grid))),
                partial(check_scaling_sweep, points=len(n_grid) * len(eps_grid))),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
