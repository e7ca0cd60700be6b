"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import threading
from functools import partial

import run
import workloads
from tracing import Tracer, wrap


def scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > middle [1, 8] > inner [2, 5], then inner [6, 7]
    tracer = Tracer(clock=scripted_clock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 10.0]))
    inner = wrap(tracer, "inner", lambda: None)

    def middle_body():
        inner()
        inner()

    middle = wrap(tracer, "middle", middle_body)
    wrap(tracer, "outer", middle)()

    calls, self_s = tracer.totals()
    assert calls == {"inner": 2, "middle": 1, "outer": 1}
    assert self_s == {"inner": 4.0, "middle": 3.0, "outer": 3.0}
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent_id == 0
    assert by_name["middle"].parent_id == by_name["outer"].span_id
    assert all(s.parent_id == by_name["middle"].span_id
               for s in tracer.spans if s.name == "inner")


def test_self_time_keeps_threads_apart():
    # Thread b opens and closes its spans while thread a's are open; with a
    # shared stack they would nest under a.inner and distort both threads.
    local = threading.local()
    tracer = Tracer(clock=lambda: next(local.ticks))
    go, done = threading.Event(), threading.Event()

    def a_inner_body():
        go.set()
        assert done.wait(timeout=10)

    def b_main():
        local.ticks = iter([2.0, 3.0, 5.0, 8.0])
        assert go.wait(timeout=10)
        wrap(tracer, "b.outer", wrap(tracer, "b.inner", lambda: None))()
        done.set()

    b = threading.Thread(target=b_main)
    b.start()
    local.ticks = iter([0.0, 1.0, 4.0, 10.0])
    wrap(tracer, "a.outer", wrap(tracer, "a.inner", a_inner_body))()
    b.join(timeout=10)
    assert not b.is_alive()

    _, self_s = tracer.totals()
    assert self_s == {"a.inner": 3.0, "a.outer": 7.0, "b.inner": 2.0, "b.outer": 4.0}
    assert len({s.thread for s in tracer.spans}) == 2


def test_generator_spans_exclude_the_consumer():
    # two items at resumptions [0, 1] and [3, 5]; exhaustion [9, 9.5]
    def numbers():
        yield from range(2)

    tracer = Tracer(clock=scripted_clock([0.0, 1.0, 3.0, 5.0, 9.0, 9.5]))
    assert list(wrap(tracer, "gen", numbers)()) == [0, 1]
    calls, self_s = tracer.totals()
    assert calls == {"gen": 1}
    assert self_s == {"gen": 3.5}
    assert tracer.item_seconds["gen"] == [1.0, 2.0]


def test_wrong_expected_value_counts_in_failed_frac(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "SCRATCH", tmp_path / "scratch")
    for var in ("QEL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    good = workloads.run_wht_job("run_wht.n8", 8, "plain")
    # the plain potential at n = 8 is 24; expect 25 instead
    wrong = dataclasses.replace(
        good, name="run_wht.n8_wrong",
        check=partial(workloads.check_run_wht, gates=24, final=25.0))
    monkeypatch.setattr(workloads, "jobs", lambda workload, seed: [good, wrong])

    status = run.main(["--workload", "wht-trace", "--seed", "1",
                       "--seconds", "0.01", "--trace", "0"])

    assert status == 1
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["correct"] is False
    assert record["failed_frac"] == 0.5
    # every pass was paired with the same jobs on the pinned copy
    assert len(record["pinned_pass_wall_s"]) == len(record["pass_wall_s"])
    assert record["end_to_end"]["wall_vs_pinned"] > 0
    assert any("run_wht.n8_wrong" in p and "expected 25.0" in p
               for p in record["problems"])
