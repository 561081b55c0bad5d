#!/usr/bin/env python3
"""Benchmark of the large-modulus sampler, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
operation is one ``sampler_largeq.sample_range`` call, which returns the
certified grid of one character over a few consecutive ordinates from
t = 16 on the 1/16 grid.  The seed picks the order of the characters and
the samples the oracle checks; the package only ever sees those inputs.
Ordinates and characters are fixed per workload: enclosure widths move by
up to a quarter between neighbouring ordinates and fivefold between
characters mod 1009, so seeded choices would swamp the width metrics.

With ``--trace 0`` the run reports the end-to-end metrics, its times
rescaled to a reference host speed (see ``hostspeed.py``); with
``--trace 1`` it runs one untraced and one traced pass of the same work
and reports the per-layer metrics (see ``spans.py``).  Every run checks
its outputs: finite samples, exactly one lattice build per ordinate,
repeated passes identical, and mpmath spot checks (``oracle.py``).  The
last line of standard output is one JSON object; the full record,
environment included, goes to ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "grhdesk").is_dir():
    sys.exit(f"no package to measure: {ROOT / 'src' / 'grhdesk'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mpmath
import numpy as np

from grhdesk import hurwitz
from grhdesk import sampler_largeq as sl
from grhdesk.characters import CharGroup, char_group
from grhdesk.errors import GrhdeskError
from grhdesk.ivec import op_counter

import hostspeed
import oracle
from spans import Tracer

STEP = Fraction(1, 16)
T_LO = Fraction(16)
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# the imports a program using the package starts with, timed in fresh
# interpreters: the one part of set-up cheap enough to repeat in a run
IMPORT_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mpmath, numpy; "
    "from grhdesk import characters, errors, hurwitz, ivec, sampler_largeq"
)
IMPORT_REPS = 7

Op = tuple[int, tuple[int, ...]]


# ---------------------------------------------------------------------------
# workloads


def _prime_chars(p: int) -> list[Op]:
    """Every primitive character mod an odd prime: exponents 1..p-2."""
    return [(p, (k,)) for k in range(1, p - 1)]


# Mod the prime 1009 the group is cyclic of order 1008: exponent 504 is the
# real character and k pairs with 1008 - k.  Mod 1024 it is C2 x C256, (e0, e1)
# is primitive iff e1 is odd and pairs with (e0, 256 - e1); no real character
# mod 1024 is primitive.
FEWCHAR = [(1009, (504,)), (1009, (1,)), (1009, (1007,))] + [
    (1024, (e0, e1)) for e0 in (0, 1) for e1 in (1, 255)
]


@dataclass(frozen=True)
class Workload:
    name: str
    ordinates: int
    size: int | None  # lattice rows; None keeps the package's default policy
    cold: bool  # each pass in a fresh cache_dir, so lattices are built in it
    ops: list[Op]
    checks_per_modulus: int  # characters the oracle checks, at up to 2 ordinates each


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice-cold", 3, None, True, _prime_chars(7), 3),
        Workload("allchar-q101", 2, 64, False, _prime_chars(101), 3),
        Workload("fewchar-large", 1, 64, False, FEWCHAR, 1),
    )
}


@dataclass
class Inputs:
    t_lo: Fraction
    t_hi: Fraction
    ops: list[Op]
    checks: list[tuple[Op, int]]  # (operation, ordinate index) for the oracle


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = random.Random(seed)
    ops = rng.sample(w.ops, len(w.ops))
    checks = []
    for q in sorted({q for q, _ in ops}):
        mine = [op for op in ops if op[0] == q]
        for op in rng.sample(mine, min(w.checks_per_modulus, len(mine))):
            # two ordinates of one character, so its one sign must fit both
            for i in rng.sample(range(w.ordinates), min(2, w.ordinates)):
                checks.append((op, i))
    return Inputs(T_LO, T_LO + STEP * (w.ordinates - 1), ops, checks)


# ---------------------------------------------------------------------------
# running


@dataclass
class Pass:
    grids: dict  # op -> SampleGrid
    failed: list  # (op, error text)
    op_s: list[float]  # wall seconds of each operation, in order, host probes included
    cache_dir: str
    wall_s: float  # wall time of the pass, host probes excluded
    scaled_s: float  # wall_s rescaled to the reference host speed


class Bench:
    def __init__(self, w: Workload, inputs: Inputs):
        self.w = w
        self.inputs = inputs
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.dirs: list[str] = []
        self.problems: list[str] = []

    def fresh_dir(self) -> str:
        d = tempfile.mkdtemp(prefix="cache-", dir=WORK_ROOT)
        self.dirs.append(d)
        return d

    def cleanup(self) -> None:
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def sample(self, op: Op, cache_dir: str):
        q, chi = op
        inp = self.inputs
        return sl.sample_range(
            q, chi, inp.t_lo, inp.t_hi, STEP, size=self.w.size, cache_dir=cache_dir
        )

    def setup(self) -> str | None:
        """Fresh cache_dir, then one sample_range per modulus for warm workloads."""
        d = self.fresh_dir()
        if not self.w.cold:
            seen = set()
            for op in self.inputs.ops:
                if op[0] not in seen:
                    seen.add(op[0])
                    self.sample(op, d)
        return d

    def run_pass(self, setup_dir: str | None, clock: hostspeed.Clock) -> Pass:
        d = self.fresh_dir() if self.w.cold else setup_dir
        grids, failed, op_s = {}, [], []
        clock.start()
        try:
            for op in self.inputs.ops:
                t0 = time.perf_counter()
                try:
                    grids[op] = self.sample(op, d)
                except GrhdeskError as exc:
                    failed.append((op, f"{type(exc).__name__}: {exc}"))
                op_s.append(time.perf_counter() - t0)
        finally:
            clock.stop()
        self.check_builds(d)
        return Pass(grids, failed, op_s, d, clock.wall_s, clock.scaled_s)

    def check_builds(self, cache_dir: str) -> None:
        """One lattice per ordinate in the run's own cache_dir, never more."""
        built = len(list(Path(cache_dir).glob("*.dat")))
        if built != self.w.ordinates:
            self.problems.append(f"{built} lattice files in {cache_dir}, expected {self.w.ordinates}")

    def check_pass(self, p: Pass, reference: Pass | None) -> None:
        for op, grid in p.grids.items():
            if len(grid) != self.w.ordinates or grid.q != op[0] or grid.character != op[1]:
                self.problems.append(f"malformed grid for {op}")
            for s in grid.samples:
                if not (math.isfinite(s.lo) and math.isfinite(s.hi) and s.lo <= s.hi):
                    self.problems.append(f"non-finite sample {s!r} for {op}")
        if reference is not None and _endpoints(p) != _endpoints(reference):
            self.problems.append("a repeated pass returned different enclosures")

    def check_oracle(self, p: Pass) -> int:
        """mpmath spot checks; one sign per character must fit all its values."""
        signs: dict[Op, set[int]] = {}
        done = 0
        for op, i in self.inputs.checks:
            grid = p.grids.get(op)
            if grid is None:
                continue
            s = grid.samples[i]
            value = oracle.completed_value(char_group(op[0]), op[1], grid.t_float(i))
            fits = oracle.signs_inside(value, s.lo, s.hi)
            signs[op] = signs.get(op, {1, -1}) & fits
            if not signs[op]:
                self.problems.append(f"oracle {value} outside {s!r} for {op} at t={grid.t_float(i)}")
            done += 1
        return done

    def check_characters(self) -> None:
        """Every character is primitive; allchar-q101 has all of them."""
        for q, chi in self.inputs.ops:
            if not char_group(q).is_primitive(chi):
                self.problems.append(f"character {chi} mod {q} is not primitive")
        if self.w.name == "allchar-q101":
            want = {(101, idx) for idx in char_group(101).primitive_indices()}
            if set(self.inputs.ops) != want:
                self.problems.append("allchar-q101 does not cover every primitive character")


def _endpoints(p: Pass) -> dict:
    return {op: [(s.lo, s.hi) for s in g.samples] for op, g in p.grids.items()}


def _widths(p: Pass) -> list[float]:
    return [s.width() for g in p.grids.values() for s in g.samples]


# ---------------------------------------------------------------------------
# the traced layers


def _cvec_width(v) -> float:
    return float(max(np.max(v.re.width()), np.max(v.im.width())))


def _lattice_width(span, args, lat):
    span.info["width"] = max(max(c.re.width(), c.im.width()) for row in lat.rows for c in row)


def _unit_width(span, args, out):
    span.info["width"] = _cvec_width(out)


def _dft_width(span, args, out):
    group, values = args
    w_in = _cvec_width(values)
    span.info["width"] = _cvec_width(out)
    span.info["growth"] = span.info["width"] / (group.phi * w_in) if w_in else 0.0


def _count_out(span, args, out):
    span.info["n_out"] = len(out)


# (owner, attribute, span name, hook): each function is wrapped where its
# caller looks it up, so the package itself is left untouched
TRACED = (
    (sl, "sample_range", "sampler_largeq.sample_range", _count_out),
    (sl, "build_lattice", "hurwitz.build_lattice", _lattice_width),
    (hurwitz, "load_lattice", "hurwitz.load_lattice", None),
    (hurwitz, "save_lattice", "hurwitz.save_lattice", None),
    (CharGroup, "char_meta", "characters.char_meta", None),
    (sl, "l_values_at", "sampler_largeq.l_values_at", _count_out),
    (sl, "unit_hurwitz", "sampler_largeq.unit_hurwitz", _unit_width),
    (sl, "group_dft_cvec", "dft.group_dft_cvec", _dft_width),
    (sl, "q_pow", "sampler_largeq.q_pow", None),
    (sl, "lambda_from_l", "sampler_largeq.lambda_from_l", None),
    (sl, "log_gamma", "interval.log_gamma", None),
)


def install(tracer: Tracer) -> None:
    for owner, attr, name, hook in TRACED:
        tracer.wrap(owner, attr, name, hook)


def layer_metrics(tracer: Tracer, wall_s: float, load_probe_s: float) -> dict:
    def spans(name):
        return tracer.by_name(name)

    def calls(name):
        return len(spans(name))

    def self_s(name):
        return sum(s.self_s for s in spans(name))

    def total_s(name):
        return sum(s.duration for s in spans(name))

    def ops(name):
        return sum(s.ops for s in spans(name))

    def info_max(name, key):
        return max((s.info[key] for s in spans(name)), default=0.0)

    returned = sum(s.info["n_out"] for s in spans("sampler_largeq.sample_range"))
    computed = sum(s.info["n_out"] for s in spans("sampler_largeq.l_values_at"))
    attributed = sum(s.self_s for s in tracer.spans)
    return {
        "hurwitz.build_lattice.calls": (calls("hurwitz.build_lattice"), "count"),
        "hurwitz.build_lattice.self_s": (self_s("hurwitz.build_lattice"), "s"),
        "hurwitz.load_lattice.calls": (calls("hurwitz.load_lattice"), "count"),
        "hurwitz.load_lattice.s": (load_probe_s, "s"),
        "hurwitz.save_lattice.s": (total_s("hurwitz.save_lattice"), "s"),
        "hurwitz.cell_width_max": (info_max("hurwitz.build_lattice", "width"), "1"),
        "characters.char_meta.calls": (calls("characters.char_meta"), "count"),
        "characters.char_meta.self_s": (self_s("characters.char_meta"), "s"),
        "sampler_largeq.sample_range.calls": (calls("sampler_largeq.sample_range"), "count"),
        "sampler_largeq.sample_range.self_s": (self_s("sampler_largeq.sample_range"), "s"),
        "sampler_largeq.l_values_at.calls": (calls("sampler_largeq.l_values_at"), "count"),
        "sampler_largeq.l_values_at.self_s": (self_s("sampler_largeq.l_values_at"), "s"),
        "sampler_largeq.unit_hurwitz.s": (total_s("sampler_largeq.unit_hurwitz"), "s"),
        "sampler_largeq.unit_hurwitz.ivec_ops": (ops("sampler_largeq.unit_hurwitz"), "count"),
        "sampler_largeq.unit_hurwitz.width_max": (info_max("sampler_largeq.unit_hurwitz", "width"), "1"),
        "sampler_largeq.q_pow.s": (total_s("sampler_largeq.q_pow"), "s"),
        "sampler_largeq.lvalue_use_ratio": (returned / computed if computed else 0.0, "ratio"),
        "dft.group_dft_cvec.s": (total_s("dft.group_dft_cvec"), "s"),
        "dft.group_dft_cvec.ivec_ops": (ops("dft.group_dft_cvec"), "count"),
        "dft.group_dft_cvec.width_max": (info_max("dft.group_dft_cvec", "width"), "1"),
        "dft.group_dft_cvec.width_growth": (info_max("dft.group_dft_cvec", "growth"), "ratio"),
        "sampler_largeq.lambda_from_l.self_s": (self_s("sampler_largeq.lambda_from_l"), "s"),
        "interval.log_gamma.calls": (calls("interval.log_gamma"), "count"),
        "interval.log_gamma.s": (total_s("interval.log_gamma"), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.attributed_frac": (attributed / wall_s, "ratio"),
    }


def _probe_load(cache_dir: str) -> float:
    """Median seconds to load one lattice file this run saved."""
    times = []
    for path in sorted(Path(cache_dir).glob("*.dat")):
        t0 = time.perf_counter()
        hurwitz.load_lattice(path)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------


def environment(w: Workload, seed: int, inputs: Inputs) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "t_lo": str(inputs.t_lo),
        "t_hi": str(inputs.t_hi),
        "characters": [[q, list(chi)] for q, chi in inputs.ops],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (metrics as (value, unit))."""
    inputs = make_inputs(w, seed)
    bench = Bench(w, inputs)
    try:
        if trace:
            metrics, attempted, failed, extra = _run_traced(bench)
        else:
            metrics, attempted, failed, extra = _run_plain(bench, seconds)
        bench.check_characters()
    finally:
        bench.cleanup()
    return {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": bench.problems,
        "environment": environment(w, seed, inputs),
        **extra,
    }


def time_imports() -> tuple[float, float]:
    """Median wall and rescaled seconds of the imports in a fresh interpreter."""
    return hostspeed.timed_start([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")], IMPORT_REPS)


def _run_plain(bench: Bench, seconds: float):
    w = bench.w
    import_wall_s, import_s = time_imports()
    clock = hostspeed.Clock()
    clock.start()
    try:
        setup_dir = bench.setup()
    finally:
        clock.stop()
    setup_s, setup_wall_s = import_s + clock.scaled_s, import_wall_s + clock.wall_s

    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(bench.run_pass(setup_dir, clock))
        bench.check_pass(passes[-1], passes[0] if len(passes) > 1 else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not w.cold:
        bench.check_builds(setup_dir)
    checked = bench.check_oracle(passes[0])

    attempted = len(bench.inputs.ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    samples = sum(len(g) for g in passes[0].grids.values())
    widths = _widths(passes[0])
    if not widths:
        bench.problems.append("no operation returned a grid")
    undecided = sum(s.contains_zero() for g in passes[0].grids.values() for s in g.samples)
    # the median over passes of their time, so one slow pass counts less
    pass_s = statistics.median(p.scaled_s for p in passes)
    pass_wall_s = statistics.median(p.wall_s for p in passes)
    metrics = {
        "samples_per_s": (samples / pass_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "lambda_width_max": (max(widths) if widths else math.nan, "1"),
        "lambda_width_p50": (statistics.median(widths) if widths else math.nan, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "undecided_frac": (undecided / len(widths) if widths else math.nan, "ratio"),
        "fail_frac": (failed / attempted, "ratio"),
        "samples_per_wall_s": (samples / pass_wall_s, "1/s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "import_s": (import_s, "s"),
        "host_probe_s": (statistics.median(clock.probes), "s"),
    }
    extra = {
        "passes": len(passes),
        "host_probes_s": clock.probes,
        "oracle_checks": checked,
        "op_s": [p.op_s for p in passes],
        "failures": [f"{op}: {msg}" for p in passes for op, msg in p.failed],
    }
    return metrics, attempted, failed, extra


def _run_traced(bench: Bench):
    tracer = Tracer(lambda: op_counter.count)
    t0 = time.perf_counter()
    install(tracer)
    try:
        setup_dir = bench.setup()
    finally:
        tracer.restore()
    setup_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    plain = bench.run_pass(setup_dir, hostspeed.Clock(probing=False))
    plain_wall = time.perf_counter() - t0
    bench.check_pass(plain, None)

    ops0 = op_counter.count
    t0 = time.perf_counter()
    install(tracer)
    try:
        traced = bench.run_pass(setup_dir, hostspeed.Clock(probing=False))
    finally:
        tracer.restore()
    traced_wall = time.perf_counter() - t0
    ops_total = op_counter.count - ops0
    bench.check_pass(traced, plain)
    if not bench.w.cold:
        bench.check_builds(setup_dir)
    checked = bench.check_oracle(traced)

    metrics = layer_metrics(tracer, setup_wall + traced_wall, _probe_load(traced.cache_dir))
    metrics["ivec.ops_total"] = (ops_total, "count")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.wrapper_s"] = (tracer.own_s, "s")
    if metrics["hurwitz.build_lattice.calls"][0] != bench.w.ordinates:
        bench.problems.append(
            f"{metrics['hurwitz.build_lattice.calls'][0]} lattice builds, expected {bench.w.ordinates}"
        )
    attempted = len(bench.inputs.ops)
    extra = {"oracle_checks": checked, "spans": tracer.dump()}
    return metrics, attempted, len(traced.failed), extra


def _declared(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    out_dir = WORK_ROOT / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["wall_s"] = time.perf_counter() - _T0
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    env = dict(record["environment"], characters=len(record["environment"]["characters"]))
    print("env " + json.dumps(env))
    for key, (value, unit) in record["metrics"].items():
        print(f"{key} {value!r} {unit}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    declared = _declared(bool(args.trace))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    k: {"value": record["metrics"][k][0], "unit": record["metrics"][k][1]}
                    for k in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
