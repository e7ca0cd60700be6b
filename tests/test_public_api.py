"""Public names: the package re-exports, and the functions the benchmark
tracer (perfbench/tracing.py) wraps by name."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
from pathlib import Path

import pytest

import qel
from qel import cli, gates, hadamard, lemma, perturb, potential

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
MODULES = (gates, hadamard, lemma, perturb, potential)
PACKAGE = Path(qel.__file__).resolve().parent

# Every parameter with a default, as (module, function, parameter).  A new
# knob is a visible edit to this list.
KEYWORD_DEFAULTS = [
    ("cli", "main", "argv"),
    ("gates", "run_program", "observers"),
    ("gates", "KappaCertifier.__init__", "final_step"),
    ("gates", "KappaCertifier.__init__", "exhaustive"),
    ("potential", "_as_square", "name"),
    ("potential", "k_slice_quasi_entropy", "minv_t"),
    ("potential", "quasi_entropy", "minv_t"),
    ("potential", "trace_potentials", "recompute_every"),
    ("potential", "trace_potentials", "certify"),
]


def test_package_exports_the_union_of_the_module_lists():
    union = set().union(*(module.__all__ for module in MODULES))
    assert len(qel.__all__) == len(set(qel.__all__))
    assert set(qel.__all__) == union
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qel, name) is getattr(module, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_lists_every_public_function_and_class_it_defines(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__)


# Exported names that no code in src/qel references, each with the reason it
# stays.  Any other export nothing in the package calls is surface kept only
# for tests; a new one is a visible edit to this table.
UNCALLED_EXPORTS = {
    "quasi_entropy": "the paper's plain potential Phi; criteria 1 and 4 evaluate it",
    "exact_inverse_perturbation": "the closed-form inverse of Id + eps*F; criterion 10",
    "inverse_residual": "the residual of that inverse; criterion 10",
    "inverse_residual_norm": "the residual's closed-form norm; criterion 10",
    "load_program": "replays the programs that failure archives save",
    "fast_apply_wht": "the O(n log n) transform a precision sweep measures against",
}


def package_references():
    """Every name loaded, or looked up as an attribute, anywhere in src/qel,
    except inside the def or class of the same name and inside __all__."""
    found = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in child.targets):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name is not None and name not in enclosing:
                found.add(name)
            visit(child, enclosing)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_export_has_a_caller_in_the_package_or_a_listed_reason():
    uncalled = set(qel.__all__) - package_references()
    assert sorted(uncalled - UNCALLED_EXPORTS.keys()) == []  # test-only surface
    assert sorted(UNCALLED_EXPORTS.keys() - uncalled) == []  # stale reasons


def keyword_defaults(path):
    """(module, qualified function name, parameter) for each default in one file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = scope + getattr(child, "name", "<lambda>")
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                named = positional[len(positional) - len(args.defaults):]
                named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
                found.extend((path.stem, name, arg.arg) for arg in named)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + child.name + ".")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_keyword_defaults_are_the_listed_ones():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in keyword_defaults(path)]
    assert sorted(found) == sorted(KEYWORD_DEFAULTS)


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_by_path("perfbench_tracing", TRACING)


def layer_bindings(tracing):
    """{(owner, attribute): object} for every place a layer is looked up."""
    modules = [importlib.import_module(f"qel.{m}") for m in tracing.QEL_MODULES]
    bindings = {(cli, "_pool_map"): cli._pool_map}
    for layer in tracing.LAYERS:
        module_name, _, attr = layer.partition(".")
        home = importlib.import_module(f"qel.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            bindings[(cls, method)] = cls.__dict__[method]
        else:
            for module in modules:
                if hasattr(module, attr):
                    bindings[(module, attr)] = getattr(module, attr)
    return bindings


def test_benchmark_tracer_wraps_every_layer_and_restores_it(capsys):
    tracing = load_tracing()
    before = layer_bindings(tracing)
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["run-wht", "--n", "4", "--out", os.devnull]) == 0
    capsys.readouterr()
    calls, _ = tracer.totals()
    assert calls["gates.apply_gate"] == len(hadamard.fast_wht_program(4))
    assert calls["potential.PotentialTracker.advance"] == 1  # one segment: 8 gates < 1024
    after = layer_bindings(tracing)
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_benchmark_tracer_sees_the_campaign_schedule(capsys, monkeypatch):
    # verify-lemma pools worker_count() instance blocks per ell and
    # verify-theorem2 runs serially, so only the lemma opens pool spans
    tracing = load_tracing()
    before = layer_bindings(tracing)
    monkeypatch.setenv("QEL_THREADS", "2")
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["verify-lemma", "--ell-grid", "64,256", "--instances", "5",
                         "--out", os.devnull]) == 0
        pool_items = [s for s in tracer.spans if s.name == tracing.POOL_ITEM]
        assert len(pool_items) == 4
        assert len(tracer.item_seconds["lemma.run_campaign"]) == 10
        mark = len(tracer.spans)
        assert cli.main(["verify-theorem2", "--n", "8", "--programs", "2", "--gates", "20",
                         "--out", os.devnull]) == 0
        theorem2 = [s.name for s in tracer.spans[mark:]]
        assert theorem2.count("gates.random_program") == 2
        assert tracing.POOL_ITEM not in theorem2
    capsys.readouterr()
    after = layer_bindings(tracing)
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def pinned_calls(workload):
    """{layer.calls: count} that the workload's `why` in BENCHMARK.json pins
    per pass, read as the benchmark reads it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
    return {name: int(count)
            for name, count in re.findall(r"([A-Za-z][\w.]*\.calls)=(\d+)", why)}


@pytest.mark.parametrize("workload", load_by_path("perfbench_workloads", WORKLOADS).WORKLOADS)
def test_benchmark_workloads_make_exactly_the_pinned_calls(workload, tmp_path, capsys,
                                                           monkeypatch):
    # a traced benchmark pass fails on any count that moves, so a change
    # that moves one must also re-pin it in BENCHMARK.json
    tracing = load_tracing()
    workloads = load_by_path("perfbench_workloads", WORKLOADS)
    pinned = pinned_calls(workload)
    assert pinned
    monkeypatch.chdir(tmp_path)
    with tracing.installed(tracing.Tracer()) as tracer:
        for job in workloads.jobs(workload, 1):
            out = tmp_path / f"{job.name}.csv"
            code = cli.main([*job.argv, "--out", str(out)])
            stdout, stderr = capsys.readouterr()
            output = workloads.JobOutput(code, stdout, stderr, out.read_text())
            assert (code, job.check(output)) == (0, []), job.name
    calls, _ = tracer.totals()
    assert {name: calls[name.removesuffix(".calls")] for name in pinned} == pinned


README = PACKAGE.parents[1] / "README.md"
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def library_tour_names():
    """Backticked identifiers (optionally dotted, optionally called) of two
    or more characters in the README's "Library tour" section."""
    text = README.read_text()
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    names = []
    for span in re.findall(r"`([^`]+)`", tour):
        m = IDENTIFIER.fullmatch(span)
        if m and len(m[1]) >= 2:
            names.append(m[1])
    return names


def resolves(name):
    """A name in qel or one of its modules (dotted: attributes from there
    on), an attribute of a public class, or a parameter of a public function."""
    head, *rest = name.split(".")
    roots = (qel, *MODULES, cli)
    for obj in [qel] if head == "qel" else [getattr(r, head) for r in roots if hasattr(r, head)]:
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    if rest:
        return False
    for obj in (getattr(qel, public) for public in qel.__all__):
        if inspect.isclass(obj):
            fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
            if hasattr(obj, name) or name in fields:
                return True
        elif callable(obj) and name in inspect.signature(obj).parameters:
            return True
    return False


def test_readme_library_tour_names_only_code_that_exists():
    names = library_tour_names()
    assert len(names) > 50
    assert [name for name in names if not resolves(name)] == []


def tolerance_table_rows():
    """(name, module, value) of each row of the README's tolerance table
    whose Name and Module cells are single backticked identifiers."""
    text = README.read_text()
    table = text.split("## Tolerances and thresholds", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3:
            continue
        name, module = (re.fullmatch(r"`([A-Za-z_]\w*)`", cell) for cell in cells[:2])
        if name and module:
            rows.append((name[1], module[1], cells[2].strip("`")))
    return rows


def test_readme_tolerance_table_states_the_constants_the_code_defines():
    rows = tolerance_table_rows()
    assert {"DRIFT_TOL", "PROBE_COLUMNS", "DESYNC_TOL", "SIGMA_FLOOR"} <= {r[0] for r in rows}
    for name, module, value in rows:
        constant = getattr(importlib.import_module(f"qel.{module}"), name)
        assert constant == float(value), (name, module, value)
