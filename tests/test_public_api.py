"""Public names: the package re-exports, and the functions the benchmark
tracer (perfbench/tracing.py) wraps by name."""

import ast
import importlib
import importlib.util
import inspect
import os
from pathlib import Path

import pytest

import qel
from qel import cli, gates, hadamard, lemma, perturb, potential

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (gates, hadamard, lemma, perturb, potential)
PACKAGE = Path(qel.__file__).resolve().parent

# Every parameter with a default, as (module, function, parameter).  A new
# knob is a visible edit to this list.
KEYWORD_DEFAULTS = [
    ("cli", "build_potential_spec", "slices_path"),
    ("cli", "main", "argv"),
    ("gates", "run_program", "observers"),
    ("gates", "verify_well_conditioned", "exhaustive"),
    ("gates", "KappaCertifier.__init__", "final_step"),
    ("gates", "KappaCertifier.__init__", "exhaustive"),
    ("perturb", "synth_perturbation", "route"),
    ("potential", "_as_square", "name"),
    ("potential", "_slice_products", "copy"),
    ("potential", "_coupled", "rows"),
    ("potential", "k_slice_quasi_entropy", "minv_t"),
    ("potential", "quasi_entropy", "minv_t"),
    ("potential", "preconditioned_quasi_entropy", "minv_t"),
    ("potential", "hat_quasi_entropy", "minv_t"),
    ("potential", "trace_potentials", "recompute_every"),
    ("potential", "trace_potentials", "check_bounds"),
    ("potential", "trace_potentials", "track_kappa"),
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


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
    program_gates = len(hadamard.fast_wht_program(4))
    assert calls["gates.apply_gate"] == program_gates
    assert calls["potential.PotentialTracker.advance"] == program_gates
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
