"""Benchmark for qel: closed-loop passes over one workload's CLI jobs.

    python3 perfbench/run.py --workload wht-trace --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports qel from src/ (no
install).  Each pass runs the workload's jobs (see workloads.py) one after
another through qel.cli.main in this process, with --out in a temporary
directory, and checks every job's output.  Passes repeat until the next one
would overrun --seconds; timings are medians over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Each pass of
the checkout's jobs is paired with the same jobs run, in this process, on
the pinned copy of qel in qel_pinned/, right before or after them; the
bounded wall time is the ratio of the two sides' totals.  The host's speed
drifts by tens of percent over minutes, and the ratio cancels that drift.

--trace 1 alternates untraced and traced passes and reports its per-layer
metrics; only traced passes install the wrappers of tracing.py, and the
pinned copy does not run.

Compute threads never outnumber cores: QEL_THREADS is pinned to the number
of usable CPUs and BLAS to one thread, before numpy is imported.

The last line of stdout is the result as one JSON object; the line before it
is the full record (environment, per-job medians, CSV digests), which is
also written under .perfbench_results/ with the spans of a traced run.
The exit status is 0 when every check held and 1 when one failed (after the
result is printed); 2 means no result at all, e.g. no qel sources.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED = BENCH_DIR / "qel_pinned"
RESULTS = ROOT / ".perfbench_results"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_SAMPLES_BEFORE = 2  # plus one after every pass
PROBE_TIMEOUT_S = 60

# Times one set-up in a fresh interpreter: import qel, build the jobs.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qel.cli
import workloads
workloads.jobs(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""
# The per-gate engine, for gates.us_per_gate.
ENGINE_LAYERS = (
    "gates.apply_gate",
    "gates.run_program",
    "gates.verify_well_conditioned",
    "potential.PotentialTracker.advance",
    "potential.PotentialTracker.rotation_bound",
)
INSTANCE_LAYER = "lemma.run_campaign"
# Units of the end-to-end values printed besides those BENCHMARK.json bounds.
E2E_UNITS = {"setup_s": "s", "wall_vs_pinned": "x", "wall_s": "s", "pinned_wall_s": "s",
             "gates_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclasses.dataclass
class JobResult:
    name: str
    seconds: float
    digest: str
    problems: list
    pool_busy_s: float = 0.0  # traced passes: summed duration of pool items
    pinned_s: float = 0.0     # paired passes: the same job on the pinned copy


@dataclasses.dataclass
class Pass:
    traced: bool
    results: list
    tracer: tracing.Tracer = None
    rss_mb: float = 0.0  # first paired pass: peak RSS after the checkout's jobs

    @property
    def wall(self):
        return sum(r.seconds for r in self.results)

    @property
    def pinned_wall(self):
        return sum(r.pinned_s for r in self.results)


def pin_threads():
    nproc = len(os.sched_getaffinity(0))
    os.environ["QEL_THREADS"] = str(nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def predictions(bench, workload):
    """Exact per-pass call counts stated in the workload's `why`."""
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
    return {name: int(count)
            for name, count in re.findall(r"([A-Za-z][\w.]*\.calls)=(\d+)", why)}


def setup_seconds(workload, seed):
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
           workload, str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(job, workdir, cli=None):
    """Run one job through cli.main, by default the checkout's qel.cli; the
    timed region is the call alone."""
    if cli is None:
        import qel.cli as cli

    out_path = workdir / "out.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    problems = []
    cwd = os.getcwd()
    os.chdir(workdir)  # failure archives land here, not in the checkout
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                returncode = cli.main([*job.argv, "--out", str(out_path)])
            except SystemExit as exc:  # argparse rejected the arguments
                returncode = exc.code
            except Exception:  # a crash is a failed job, not a failed benchmark
                returncode = -1
                problems.append(traceback.format_exc())
            seconds = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    csv_bytes = out_path.read_bytes() if out_path.exists() else b""
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    if returncode != 0:
        problems.append(f"exit code {returncode}: {stderr.getvalue().strip()[-500:]}")
    problems += job.check(workloads.JobOutput(returncode, stdout.getvalue(),
                                              stderr.getvalue(),
                                              csv_bytes.decode("ascii", "replace")))
    return JobResult(job.name, seconds, hashlib.sha256(csv_bytes).hexdigest(), problems)


def run_pinned(job, workdir, cli):
    """Seconds of one job on the pinned copy.  Only its exit status is
    checked: a job that fails there means the benchmark itself is broken."""
    result = run_job(dataclasses.replace(job, check=lambda out: []), workdir, cli)
    if result.problems:
        raise RuntimeError(f"{job.name} failed on the pinned copy: {result.problems}")
    return result.seconds


def run_paired_pass(jobs, workdir, pinned_cli, index):
    """The checkout's jobs, each paired with the same job on the pinned copy.

    The first pass runs all of the checkout's jobs before any pinned one, so
    the peak RSS after them is the checkout's own.  Later passes put each
    pair side by side, and which side goes first alternates from job to job
    and from pass to pass, so a drift in host speed across a pass cancels."""
    if index == 0:
        results = [run_job(job, workdir) for job in jobs]
        rss = peak_rss_mb()
        for job, result in zip(jobs, results):
            result.pinned_s = run_pinned(job, workdir, pinned_cli)
        return Pass(False, results, rss_mb=rss)
    results = []
    for k, job in enumerate(jobs):
        if (index + k) % 2:
            pinned_s = run_pinned(job, workdir, pinned_cli)
            results.append(run_job(job, workdir))
        else:
            results.append(run_job(job, workdir))
            pinned_s = run_pinned(job, workdir, pinned_cli)
        results[-1].pinned_s = pinned_s
    return Pass(False, results)


def run_pass(jobs, workdir, traced, pinned_cli=None, index=0):
    if pinned_cli is not None:
        return run_paired_pass(jobs, workdir, pinned_cli, index)
    if not traced:
        return Pass(False, [run_job(job, workdir) for job in jobs])
    tracer = tracing.Tracer()
    results = []
    with tracing.installed(tracer):
        for job in jobs:
            mark = len(tracer.spans)
            result = run_job(job, workdir)
            result.pool_busy_s = sum(s.end - s.start for s in tracer.spans[mark:]
                                     if s.name == tracing.POOL_ITEM)
            results.append(result)
    return Pass(True, results, tracer)


def run_passes(jobs, seconds, trace, workdir, after_pass, pinned_cli=None):
    """Closed loop of passes; with tracing, untraced and traced alternate.
    With the pinned copy, every pass is paired (see run_paired_pass).
    after_pass() runs between passes, inside the --seconds window."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()  # every pass starts from a collected heap
        began = time.perf_counter()
        k = len(passes)
        passes.append(run_pass(jobs, workdir, traced=trace and k % 2 == 1,
                               pinned_cli=pinned_cli, index=k))
        after_pass()
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + longest > seconds:
            return passes


def check_determinism(passes):
    """Every job's CSV must be byte-identical across the passes of a run."""
    digests = {}
    for p in passes:
        for r in p.results:
            first = digests.setdefault(r.name, r.digest)
            if r.digest != first:
                r.problems.append(f"CSV sha256 {r.digest} differs from the first "
                                  f"pass's {first}")
    return digests


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_medians(jobs, passes):
    """Per job, over the untraced passes: median seconds and, where the
    passes were paired, median seconds on the pinned copy and the ratio of
    the job's total seconds to the pinned copy's."""
    untraced = [p for p in passes if not p.traced]
    medians = {}
    for k, job in enumerate(jobs):
        results = [p.results[k] for p in untraced]
        medians[f"{job.name}_s"] = statistics.median(r.seconds for r in results)
        if all(r.pinned_s for r in results):
            medians[f"{job.name}.pinned_s"] = statistics.median(r.pinned_s for r in results)
            medians[f"{job.name}.vs_pinned"] = (sum(r.seconds for r in results)
                                                / sum(r.pinned_s for r in results))
    return medians


def end_to_end_metrics(jobs, passes, setup):
    """Medians over the passes of an untraced run, all of them paired.  The
    bounded ratio is of totals, not a median: a pair's two sides differ by
    up to 30% from second to second, and a run has only a few passes.  The
    peak RSS is taken before the pinned copy first runs."""
    wall = statistics.median(p.wall for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_vs_pinned": sum(p.wall for p in passes) / sum(p.pinned_wall for p in passes),
        "wall_s": wall,
        "pinned_wall_s": statistics.median(p.pinned_wall for p in passes),
        "gates_per_s": sum(job.gates for job in jobs) / wall,
        "peak_rss_mb": passes[0].rss_mb,
    }


def pass_layer_metrics(jobs, p, threads):
    calls, self_s = p.tracer.totals()
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    scaling = sum(job.scaling_gates for job in jobs)
    m["gates.condition_number.calls_per_scaling_gate"] = (
        calls["gates.condition_number"] / scaling if scaling else 0.0)
    applied = calls["gates.apply_gate"]
    m["gates.us_per_gate"] = (
        1e6 * sum(self_s[layer] for layer in ENGINE_LAYERS) / applied if applied else 0.0)
    instance_us = [1e6 * s for s in p.tracer.item_seconds[INSTANCE_LAYER]]
    if len(instance_us) >= 2:
        cuts = statistics.quantiles(instance_us, n=100, method="inclusive")
        m["lemma.instance_us.p50"], m["lemma.instance_us.p99"] = cuts[49], cuts[98]
    else:
        m["lemma.instance_us.p50"] = m["lemma.instance_us.p99"] = 0.0
    pool_wall = sum(r.seconds for r in p.results if r.pool_busy_s)
    m["cli.workers.busy_frac"] = (
        sum(r.pool_busy_s for r in p.results) / (pool_wall * threads) if pool_wall else 0.0)
    return m


def per_layer_metrics(jobs, passes, threads, expected_calls):
    """Medians over traced passes, plus the problems found in the counts."""
    traced = [p for p in passes if p.traced]
    per_pass = [pass_layer_metrics(jobs, p, threads) for p in traced]
    problems = []
    for name, expected in expected_calls.items():
        counted = [m.get(name) for m in per_pass]
        if any(c != expected for c in counted):
            problems.append(f"{name}: predicted {expected} per pass, counted {counted}")
    for name in per_pass[0]:
        counted = {m[name] for m in per_pass}
        if name.endswith(".calls") and len(counted) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(counted)}")
    metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    traced_wall = statistics.median([p.wall for p in traced])
    untraced_wall = statistics.median([p.wall for p in passes if not p.traced])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics, problems


def package_sha256(package):
    """sha256 over the names and contents of a package's modules; the same
    for the checkout's qel and the pinned copy while they are identical."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(nproc, seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        blas = {"name": "unknown"}
    blas["threads"] = os.environ["OPENBLAS_NUM_THREADS"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "QEL_THREADS": os.environ["QEL_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": package_sha256(SRC / "qel"),
        "pinned_sha256": package_sha256(PINNED),
        "seed": seed,
    }


def select(metrics, declared):
    """Exactly the metrics BENCHMARK.json declares, each with its unit."""
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qel" / "__init__.py").is_file():
        print(f"perfbench: error: no qel sources at {SRC / 'qel'}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import qel

    if Path(qel.__file__).resolve().parent != SRC / "qel":
        print(f"perfbench: error: imported qel from {qel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    jobs = workloads.jobs(args.workload, args.seed)
    # The host's speed drifts over seconds, so set-ups are spread over the
    # run like the passes are, rather than taken back to back.
    setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES_BEFORE)]

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    pinned_cli = None if args.trace else importlib.import_module("qel_pinned.cli")
    try:
        passes = run_passes(jobs, args.seconds, bool(args.trace), workdir,
                            lambda: setup.append(setup_seconds(args.workload, args.seed)),
                            pinned_cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = check_determinism(passes)
    per_job = job_medians(jobs, passes)
    e2e = None
    problems = []
    if args.trace:
        layers, problems = per_layer_metrics(jobs, passes, nproc,
                                             predictions(bench, args.workload))
        metrics = select(layers, bench["per_layer"])
    else:
        e2e = end_to_end_metrics(jobs, passes, setup)
        metrics = select(e2e, bench["end_to_end"])
    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.problems)
    problems += [f"{r.name}: {msg}" for r in results for msg in r.problems]

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(nproc, args.seed),
        "passes": {"untraced": sum(not p.traced for p in passes),
                   "traced": sum(p.traced for p in passes)},
        "jobs": {job.name: list(job.argv) for job in jobs},
        "setup_samples_s": setup,
        "pass_wall_s": [p.wall for p in passes],
        "pinned_pass_wall_s": [p.pinned_wall for p in passes if not p.traced],
        "job_s": {job.name: [p.results[k].seconds for p in passes]
                  for k, job in enumerate(jobs)},
        "pinned_job_s": {job.name: [p.results[k].pinned_s for p in passes if not p.traced]
                         for k, job in enumerate(jobs)},
        "per_job_s": per_job,
        "failed_frac": failed / len(results),
        "csv_sha256": digests,
        "problems": problems,
        "end_to_end": e2e,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"spans-{args.workload}.tsv", "w", encoding="ascii") as fh:
            fh.write("pass\tspan\tparent\tname\tthread\tstart\tend\tself_s\n")
            for k, p in enumerate(q for q in passes if q.traced):
                for s in p.tracer.spans:
                    fh.write(f"{k}\t{s.span_id}\t{s.parent_id}\t{s.name}\t{s.thread}"
                             f"\t{s.start!r}\t{s.end!r}\t{s.self_s!r}\n")

    for msg in problems:
        print(f"perfbench: FAIL: {msg}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {len(results)} jobs, {failed} failed "
          f"(failed_frac={failed / len(results)!r})")
    for name, value in per_job.items():
        print(f"  {name:<40} {value!r} {'x' if name.endswith('.vs_pinned') else 's'}")
    for name, value in (e2e or {}).items():
        print(f"  {name:<40} {value!r} {E2E_UNITS[name]}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']!r} {entry['unit']}")
    print(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
