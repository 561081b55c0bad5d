"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench

Runs one character mod 7 on a 16-row lattice, untraced and traced, and
checks the printed metric names and units against BENCHMARK.json and that
every traced function is unwrapped afterwards.
"""

import json
import time
from types import SimpleNamespace

import pytest

import run
from spans import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(cold: bool) -> run.Workload:
    return run.Workload(
        "tiny-cold" if cold else "tiny-warm",
        ordinates=1,
        size=16,
        cold=cold,
        ops=[(7, (1,)), (7, (5,))],
        checks_per_modulus=1,
    )


def originals():
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in run.TRACED
    ]


@pytest.fixture(autouse=True)
def work_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("cold", [True, False])
def test_tiny_run_prints_declared_metrics(trace, cold, monkeypatch, capsys, work_root):
    w = tiny(cold)
    monkeypatch.setitem(run.WORKLOADS, w.name, w)
    before = originals()
    assert run.main(["--workload", w.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    assert [a is b for a, b in zip(originals(), before)] == [True] * len(before)

    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    assert list(work_root.glob("cache-*")) == []  # temporary cache dirs removed
    if trace:
        metrics = {k: v["value"] for k, v in last["metrics"].items()}
        assert metrics["hurwitz.build_lattice.calls"] == 1
        assert metrics["sampler_largeq.sample_range.calls"] == 2 + (0 if cold else 1)
        assert metrics["sampler_largeq.lvalue_use_ratio"] == pytest.approx(1 / 6)
        assert 0.9 < metrics["trace.attributed_frac"] <= 1.0


def test_same_seed_same_inputs():
    for w in run.WORKLOADS.values():
        a, b = run.make_inputs(w, 7), run.make_inputs(w, 7)
        assert (a.t_lo, a.ops, a.checks) == (b.t_lo, b.ops, b.checks)
        assert sorted(a.ops) == sorted(w.ops)


def test_self_times_partition_the_outer_span():
    ns = SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()

    ns.outer = outer
    tracer = Tracer(lambda: 0)
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "inner", "inner")
    try:
        ns.outer()
    finally:
        tracer.restore()
    assert ns.outer is outer
    (o,), (i,) = tracer.by_name("outer"), tracer.by_name("inner")
    assert i.parent == o.sid and o.parent is None
    # the inner wrapper's own time is charged to neither span
    assert 0 < o.duration - (o.self_s + i.self_s) < tracer.own_s < 1e-3
    assert o.self_s < i.self_s


def test_clock_probes_during_one_long_call_and_restores_the_handler():
    import signal

    import hostspeed

    handler = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.Clock()
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3 * hostspeed.EVERY_S:  # one call, no yield to the bench
        pass
    elapsed = time.perf_counter() - t0
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probes) >= 4  # the first, at least two from the timer, the last
    # probe time is not work: the probes inside the loop are all that wall_s leaves out
    assert clock.wall_s + sum(clock.probes[1:-1]) == pytest.approx(elapsed, abs=0.01)
    assert clock.scaled_s > 0
