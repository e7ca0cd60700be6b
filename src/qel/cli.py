"""Command-line driver: traces, scaling sweeps, and inequality campaigns.

Exit status is 0 iff every assertion requested by the subcommand held,
1 on an assertion or inequality failure, 2 on bad configuration.
QEL_THREADS caps the threads of verify-lemma (worker_count() instance
blocks per ell) only.  verify-theorem2 traces its programs in a plain loop,
and scaling-sweep walks its grid in one: perturb.perturbation_potentials
gives each point's values, and perturb.dense_cross_check checks them
against dense n x n products for small n.  The CLI formats and reports;
the mathematics of Id + eps*F lives in perturb.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from itertools import islice, repeat

import numpy as np

from .gates import Rotation, random_program, save_program
from .hadamard import _log2_int, fast_wht_program
from .lemma import C_MAX, ELL_FLOOR, campaign_instance, run_campaign
from .perturb import (ROUTE_APPENDIX_B, ROUTE_FAST_KRONECKER, _check_eps,
                      dense_cross_check, perturbation_potentials, synth_perturbation)
from .potential import (
    NAMED_POTENTIALS,
    PROBE_COLUMNS,
    RECOMPUTE_EVERY,
    PotentialSpec,
    _exceeds_bound,
    load_matrices_text,
    named_spec,
    trace_potentials,
    write_matrix_text,
)

TRACE_COLUMNS = (
    "step",
    "kind",
    "i",
    "iprime",
    "theta_or_c",
    "potential",
    "delta",
    "thm2_bound",
    "kappa",
)
SWEEP_COLUMNS = (
    "n",
    "eps",
    "phi_plain",
    "denom_plain",
    "ratio_plain",
    "phi_precond_id_f",
    "denom_precond_id_f",
    "ratio_precond_id_f",
    "phi_hat",
    "denom_hat",
    "ratio_hat",
)
LEMMA_COLUMNS = ("seed", "ell", "C", "norm1", "lhs", "rhs", "margin", "holds")
THEOREM2_COLUMNS = ("program", "step", "i", "iprime", "delta", "bound", "ratio")

DEFAULT_N_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
DEFAULT_EPS_GRID = tuple(2.0 ** -j for j in range(3, 9))
DEFAULT_ELL_GRID = (64, 256, 1024, 4096, 65536)
DEFAULT_SEED = 20250819

SIGN_EPS_CAP = 0.125
_TABLE_CHUNK = 4096  # CSV rows formatted per write


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_csv_row(values):
    return ",".join(_fmt(v) for v in values)


def worker_count():
    """Parallel width for grid work, honoring the QEL_THREADS cap."""
    raw = os.environ.get("QEL_THREADS", "").strip()
    if raw:
        try:
            width = int(raw)
        except ValueError:
            raise ValueError(f"QEL_THREADS must be an integer, got {raw!r}") from None
        if width < 1:
            raise ValueError(f"QEL_THREADS must be >= 1, got {width}")
        return width
    return os.cpu_count() or 1


def _pool_map(fn, items):
    """Map fn over items, preserving order, with at most worker_count() threads."""
    items = list(items)
    width = min(worker_count(), len(items))
    if width <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, items))


def _write_table(path, header, rows):
    """Write the CSV to `path` (stdout if None), _TABLE_CHUNK rows per write,
    so no more than a chunk of the text is held at once."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="ascii")) as fh:
        fh.write(",".join(header) + "\n")
        rows = iter(rows)
        while chunk := list(islice(rows, _TABLE_CHUNK)):
            fh.write("".join(format_csv_row(row) + "\n" for row in chunk))


def _grid(cast):
    """argparse type: a nonempty space- or comma-separated list of `cast` values."""
    def parse(text):
        toks = text.replace(",", " ").split()
        if not toks:
            raise ValueError("empty grid")
        return tuple(cast(tok) for tok in toks)
    parse.__name__ = f"{cast.__name__} grid"
    return parse


def _positive_int(text):
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _warn_asymptotic_regime(n, eps):
    if eps > 0.0 and 1.0 / eps > n:
        print(
            f"warning: 1/eps = {1.0 / eps:g} exceeds n = {n}; "
            "the asymptotic regime needs n >= 1/eps",
            file=sys.stderr,
        )


def build_potential_spec(kind, n, slices_path):
    """Resolve --potential: a named kind, or k-slice pairs from --slices."""
    if kind != "k-slice":
        if slices_path is not None:
            raise ValueError(f"--slices applies only to --potential k-slice, not {kind}")
        return named_spec(kind, n)
    if slices_path is None:
        raise ValueError("--potential k-slice requires --slices <file>")
    mats = load_matrices_text(slices_path)
    if len(mats) % 2 != 0:
        raise ValueError(
            "slices file must hold an even, positive number of matrices "
            "(A1, B1, A2, B2, ...)"
        )
    pairs = list(zip(mats[0::2], mats[1::2]))
    return PotentialSpec(n, pairs, label="k-slice")


def trajectory_rows(trajectory):
    """CSV rows for one trajectory, with a step-0 initialization row, one
    at a time."""
    yield (0, "init", None, None, None, trajectory.initial_value, 0.0, None, 1.0)
    columns = zip(trajectory.program.gates, trajectory.potentials[1:], trajectory.deltas,
                  trajectory.bounds or repeat(None), trajectory.kappas or repeat(None))
    for t, (gate, potential, delta, bound, kappa) in enumerate(columns, start=1):
        if isinstance(gate, Rotation):
            head = ("R", gate.i, gate.iprime, gate.theta)
        else:
            head = ("C", gate.i, None, gate.c)
        yield (t, *head, potential, delta, bound, kappa)


def _trace(args, program, spec):
    """Trace `spec` (the resolved --potential) along `program` and write its CSV."""
    trajectory = trace_potentials(program, spec, recompute_every=args.recompute_every)
    if args.plot_data:
        _write_table(args.out, ("step", "potential"), enumerate(trajectory.potentials))
    else:
        _write_table(args.out, TRACE_COLUMNS, trajectory_rows(trajectory))
    return trajectory


def cmd_run_wht(args):
    program = fast_wht_program(args.n)
    trajectory = _trace(args, program, build_potential_spec(args.potential, args.n, args.slices))
    print(
        f"run-wht n={args.n} potential={trajectory.label}: gates={len(program)} "
        f"final={trajectory.final_value!r} direct={trajectory.direct_final!r} "
        f"max|delta|={trajectory.max_abs_delta!r}"
    )
    return 0


def cmd_run_perturbation(args):
    _log2_int(args.n)
    _check_eps(args.eps)
    _warn_asymptotic_regime(args.n, args.eps)
    route = ROUTE_APPENDIX_B if args.route == "appendix-b" else ROUTE_FAST_KRONECKER
    spec = build_potential_spec(args.potential, args.n, args.slices)  # before synthesis: fail fast
    plan = synth_perturbation(args.n, args.eps, route)
    program = plan.program
    trajectory = _trace(args, program, spec)
    print(
        f"run-perturbation n={args.n} eps={args.eps!r} route={route} "
        f"potential={trajectory.label}: gates={len(program)} "
        f"(rotations={program.rotation_count()}, constants={program.constant_count()}) "
        f"kappa_certificate={plan.kappa_certificate!r}"
    )
    print(
        f"  endpoint incremental={trajectory.final_value!r} "
        f"direct={trajectory.direct_final!r} "
        f"disagreement={abs(trajectory.final_value - trajectory.direct_final)!r}"
    )
    max_delta = trajectory.max_abs_delta
    if args.eps > 0.0:
        step_denom = args.eps * math.log2(1.0 / args.eps)
        gate_denom = args.n * math.log2(args.n) / math.log2(1.0 / args.eps)
        print(
            f"  max|delta|={max_delta!r} ratio_to_eps_log_inv_eps="
            f"{max_delta / step_denom!r}"
        )
        print(
            f"  gate_count_ratio_to_n_log_n_over_log_inv_eps="
            f"{len(program) / gate_denom!r}"
        )
    else:
        print(f"  max|delta|={max_delta!r} (eps=0: no step-size normalization)")
    return 0


def cmd_scaling_sweep(args):
    n_grid = args.n_grid
    eps_grid = args.eps_grid
    for n in n_grid:
        if _log2_int(n) < 2:
            raise ValueError(
                f"scaling-sweep needs n >= 4, got {n}: at n = 2 the hat potential "
                "of Id + eps*F is identically 0, so its sign condition cannot hold")
    for eps in eps_grid:
        if _check_eps(eps) == 0.0:
            raise ValueError("scaling-sweep needs eps > 0: the ratios divide by eps")
    for n in n_grid:
        for eps in eps_grid:
            # the plain potential's off-diagonal entry class; below the floor it
            # loses digits or rounds to 0, and its term dominates the value
            if eps * eps / (n * (1.0 - eps * eps)) < sys.float_info.min:
                raise ValueError(
                    f"scaling-sweep point n={n} eps={eps!r}: eps^2 / (n (1 - eps^2)) "
                    f"is below the smallest normal float {sys.float_info.min!r}")
    for n in n_grid:
        for eps in eps_grid:
            _warn_asymptotic_regime(n, eps)

    rows, failures = [], []
    for n in n_grid:
        cross_check = dense_cross_check(n)
        log2n = math.log2(n)
        for eps in eps_grid:
            phis = perturbation_potentials(n, eps)
            failures += cross_check(eps, phis)
            phi_plain, phi_precond, phi_hat = phis
            denom_plain = eps * eps * n * log2n
            denom_first = eps * n * log2n
            rows.append((n, eps,
                         phi_plain, denom_plain, abs(phi_plain) / denom_plain,
                         phi_precond, denom_first, phi_precond / denom_first,
                         phi_hat, denom_first, phi_hat / denom_first))
            if phi_plain >= 0.0:
                failures.append(f"phi_plain >= 0 at n={n} eps={eps!r}")
            if eps <= SIGN_EPS_CAP + 1e-12:
                if phi_precond <= 0.0:
                    failures.append(f"phi_precond_id_f <= 0 at n={n} eps={eps!r}")
                if phi_hat <= 0.0:
                    failures.append(f"phi_hat <= 0 at n={n} eps={eps!r}")
    _write_table(args.out, SWEEP_COLUMNS, rows)

    for name, idx in zip(NAMED_POTENTIALS, (4, 7, 10)):
        ratios = [row[idx] for row in rows]
        print(
            f"scaling-sweep {name}: ratio range "
            f"[{min(ratios)!r}, {max(ratios)!r}] "
            f"spread={max(ratios) / min(ratios)!r}"
        )
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_verify_lemma(args):
    if not (0.0 <= args.c <= C_MAX):
        raise ValueError(
            f"--c must lie in [0, {C_MAX}]: the inequality is only claimed "
            f"for interference budgets up to 1/8, got {args.c!r}"
        )
    for ell in args.ell_grid:
        if ell < ELL_FLOOR:
            raise ValueError(f"--ell-grid entries must be >= {ELL_FLOOR}, got {ell}")

    # worker_count() contiguous instance blocks per ell, ell-major, so the
    # blocks of the largest ell overlap in numpy calls that release the GIL
    width = min(worker_count(), args.instances)
    cuts = [args.instances * k // width for k in range(width + 1)]
    items = [(ell, range(a, b)) for ell in args.ell_grid for a, b in zip(cuts, cuts[1:])]

    def campaign(item):
        ell, indices = item
        return list(run_campaign([ell], indices, C=args.c, seed=args.seed))

    rows = [row for part in _pool_map(campaign, items) for row in part]
    blocks = [rows[j:j + args.instances] for j in range(0, len(rows), args.instances)]
    _write_table(args.out, LEMMA_COLUMNS, rows)

    failures = []
    for block, ell in zip(blocks, args.ell_grid):
        margins = [row[6] for row in block]
        holds = all(row[7] for row in block)
        print(
            f"verify-lemma ell={ell} instances={len(block)} "
            f"min_margin={min(margins)!r} holds={holds}"
        )
        if not holds:
            failures.extend(row for row in block if not row[7])

    for row in failures[:4]:
        seed, ell = int(row[0]), int(row[1])
        inst = campaign_instance(ell, args.c, seed)
        path = f"lemma-violation-ell{ell}-seed{seed}.txt"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# ell={ell} C={args.c!r} seed={seed} norm1={row[3]!r}\n")
            fh.write(f"# lhs={row[4]!r} rhs={row[5]!r} margin={row[6]!r}\n")
            write_matrix_text(fh, inst.x[np.newaxis])
            write_matrix_text(fh, inst.y[np.newaxis])
        print(f"FAIL: archived counterexample to {path}", file=sys.stderr)
    return 1 if failures else 0


def _random_preconditioner(n, rng):
    """Random dense matrix with spectral norm in (0, 2]."""
    G = rng.standard_normal((n, n))
    smax = np.linalg.svd(G, compute_uv=False)[0]
    return G * (2.0 * rng.uniform(0.25, 1.0) / smax)


def cmd_verify_theorem2(args):
    _log2_int(args.n)
    if args.gates < args.programs:
        raise ValueError(f"--gates must be >= --programs ({args.programs}), got {args.gates}")

    seeds = np.random.SeedSequence(args.seed).spawn(args.programs)
    share, extra = divmod(args.gates, args.programs)
    # serial; README "Parallelism" gives the measured cost of a thread per program
    rows, broken = [], []
    for index, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        A = _random_preconditioner(args.n, rng)
        B = _random_preconditioner(args.n, rng)
        rotations = share + (index < extra)
        program = random_program(args.n, rotations, max(1, rotations // 10), rng)
        trajectory = trace_potentials(program, PotentialSpec.preconditioned(A, B),
                                      recompute_every=args.recompute_every,
                                      check_bounds=False, track_kappa=False)
        steps = []
        columns = zip(program.gates, trajectory.deltas, trajectory.bounds)
        for t, (gate, delta, bound) in enumerate(columns, start=1):
            if not isinstance(gate, Rotation):
                continue
            ratio = abs(delta) / bound if bound > 1e-300 else 0.0
            rows.append((index, t, gate.i, gate.iprime, delta, bound, ratio))
            if _exceeds_bound(gate, delta, bound):
                steps.append(t)
        if steps:
            broken.append((index, steps, program, A, B))
    _write_table(args.out, THEOREM2_COLUMNS, rows)

    ratios = np.array([row[6] for row in rows])
    edges = np.linspace(0.0, 1.0, 11)
    counts, _ = np.histogram(np.clip(ratios, 0.0, 1.0), bins=edges)
    print(
        f"verify-theorem2 n={args.n} programs={args.programs} "
        f"rotations_checked={len(rows)} max_ratio={float(ratios.max())!r}"
    )
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        print(f"  ratio [{lo:.1f}, {hi:.1f}]: {int(count)}")

    for index, steps, program, A, B in broken:
        stem = f"theorem2-violation-program{index}"
        save_program(program, f"{stem}.gates")
        with open(f"{stem}.mats", "w", encoding="ascii") as fh:
            write_matrix_text(fh, A)
            write_matrix_text(fh, B)
        print(
            f"FAIL: program {index} broke the rotation bound at steps {steps}; "
            f"archived {stem}.gates and {stem}.mats",
            file=sys.stderr,
        )
    return 1 if broken else 0


def _add_recompute_flag(parser):
    parser.add_argument(
        "--recompute-every",
        type=_positive_int,
        default=RECOMPUTE_EVERY,
        metavar="K",
        help="steps between checkpoints, which probe the tracked inverse and "
             f"cached products with {PROBE_COLUMNS} random +-1 vectors and check "
             "the tracked value against the caches' own (the endpoint checks "
             "both from scratch)",
    )


def _add_trace_flags(parser):
    parser.add_argument(
        "--potential",
        choices=(*NAMED_POTENTIALS, "k-slice"),
        default="plain",
        help="which quasi-entropy functional to trace",
    )
    parser.add_argument(
        "--slices",
        default=None,
        help="matrix-text file of A/B pairs; only with --potential k-slice",
    )
    _add_recompute_flag(parser)
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    parser.add_argument(
        "--plot-data",
        action="store_true",
        help="emit two-column step,potential data instead of the full trace",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qel",
        description=(
            "Quasi-entropy laboratory: trace potential functionals along "
            "rotation/scaling gate programs and stress the inequalities "
            "that make them useful."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "run-wht",
        help="trace a potential along the butterfly Walsh-Hadamard program",
    )
    p.add_argument("--n", type=int, default=8, help="transform size (power of two)")
    _add_trace_flags(p)
    p.set_defaults(func=cmd_run_wht)

    p = sub.add_parser(
        "run-perturbation",
        help="synthesize Id + eps*F in the gate model and trace a potential",
    )
    p.add_argument("--n", type=int, default=64, help="transform size (power of two)")
    p.add_argument("--eps", type=float, default=2.0 ** -6, help="perturbation size")
    p.add_argument(
        "--route",
        choices=("appendix-b", "fast"),
        default="fast",
        help="eigenbasis factorization: generic Givens or Kronecker layers",
    )
    _add_trace_flags(p)
    p.set_defaults(func=cmd_run_perturbation)

    p = sub.add_parser(
        "scaling-sweep",
        help="closed-form potentials of Id + eps*F over an (n, eps) grid",
    )
    p.add_argument(
        "--n-grid",
        type=_grid(int),
        default=DEFAULT_N_GRID,
        help="space- or comma-separated powers of two",
    )
    p.add_argument(
        "--eps-grid",
        type=_grid(float),
        default=DEFAULT_EPS_GRID,
        help="space- or comma-separated values in (0, 1/2); every point needs "
             "eps^2 / (n (1 - eps^2)) >= 2.2e-308, the smallest normal float",
    )
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_scaling_sweep)

    p = sub.add_parser(
        "verify-lemma",
        help="randomized campaign for the clustered-mass entropy inequality",
    )
    p.add_argument(
        "--ell-grid",
        type=_grid(int),
        default=DEFAULT_ELL_GRID,
        help="ambient dimensions, each >= 64",
    )
    p.add_argument(
        "--instances", type=_positive_int, default=1000,
        help="random instances per dimension",
    )
    p.add_argument(
        "--c",
        type=float,
        default=C_MAX,
        help="interference budget C (rejected above 1/8)",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="campaign seed")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser(
        "verify-theorem2",
        help="stress the per-rotation change bound on random programs",
    )
    p.add_argument("--n", type=int, default=128, help="state size (power of two)")
    p.add_argument(
        "--programs", type=_positive_int, default=10,
        help="independent random programs",
    )
    p.add_argument(
        "--gates", type=_positive_int, default=2000,
        help="total rotations across programs (at least --programs)",
    )
    _add_recompute_flag(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="campaign seed")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_verify_theorem2)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"qel: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"qel: FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
