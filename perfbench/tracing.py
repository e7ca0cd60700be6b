"""In-memory spans around calls into qel's public functions.

A traced pass wraps each function in LAYERS where its callers look it up:
every qel module that binds the same function object gets the wrapper, and
methods are wrapped on their class.  Nothing under src/ changes, and an
untraced pass installs no wrappers at all.

Self time of a span is its duration minus the durations of the spans it
directly encloses on the same thread, so spans opened by pool worker
threads never subtract from the main thread.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Functions timed in a traced pass, as <module>.<function> under qel.
LAYERS = (
    "gates.condition_number",
    "gates.apply_gate",
    "gates.run_program",
    "gates.verify_well_conditioned",
    "gates.inverse_drift",
    "gates.random_program",
    "potential.PotentialTracker.advance",
    "potential.PotentialTracker.rotation_bound",
    "potential.trace_potentials",
    "potential.k_slice_quasi_entropy",
    "perturb.givens_decompose",
    "perturb.synth_perturbation",
    "perturb.wht_eigenbasis",
    "lemma.sample_instance",
    "lemma.check_lemma",
    "lemma.run_campaign",
    "hadamard.wht_matrix",
    "hadamard.fast_wht_program",
    "hadamard.kron_rotation_layer",
    "cli.format_csv_row",
)
# One span per item that cli._pool_map hands to a worker.
POOL_ITEM = "cli.pool_item"
QEL_MODULES = ("gates", "hadamard", "potential", "perturb", "lemma", "cli")

_DONE = object()


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a span opened with an empty stack on its thread
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    call: bool  # False for the later resumptions of a generator


class Tracer:
    """Collects spans from any thread; each thread keeps its own span stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        # per generator name: seconds of each resumption that produced an item
        self.item_seconds = defaultdict(list)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        stack = self._stack()
        parent = stack[-1][1] if stack else 0
        frame = [name, next(self._ids), parent, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame, call=True):
        """Close the innermost open span on this thread; returns its duration."""
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, span_id, parent, start, child_s = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        self.spans.append(Span(span_id, parent, name, threading.get_ident(),
                               start, end, duration - child_s, call))
        return duration

    def totals(self):
        """(calls, self seconds) per span name."""
        calls, self_s = Counter(), defaultdict(float)
        for s in self.spans:
            self_s[s.name] += s.self_s
            if s.call:
                calls[s.name] += 1
        return calls, self_s


def wrap(tracer, name, fn):
    """fn with every call recorded as a span; a generator function gets one
    span per resumption, so the consumer's time between items is not its own."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(gen, _DONE)
                finally:
                    seconds = tracer.exit(frame, call=first)
                if item is _DONE:
                    return
                tracer.item_seconds[name].append(seconds)
                first = False
                yield item
        return traced_generator

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return traced_call


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer function where qel's modules look it up; undo on exit."""
    modules = [importlib.import_module(f"qel.{m}") for m in QEL_MODULES]
    undo = []
    try:
        for layer in LAYERS:
            module_name, _, attr = layer.partition(".")
            home = importlib.import_module(f"qel.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, wrap(tracer, layer, original))
                continue
            original = getattr(home, attr)
            wrapper = wrap(tracer, layer, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        cli = importlib.import_module("qel.cli")
        pool_map = cli._pool_map

        def traced_pool_map(fn, items):
            return pool_map(wrap(tracer, POOL_ITEM, fn), items)

        undo.append((cli, "_pool_map", pool_map))
        cli._pool_map = traced_pool_map
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
