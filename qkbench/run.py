"""Benchmark of qkforge: chains, graphs and schedules.

    python3 qkbench/run.py --workload chains --seed 1 --seconds 30 --trace 0

Runs from the root of a qkforge checkout and imports the package from its
`src/` directory.  One single-threaded process per workload: set the inputs
up from the seed, then repeat whole rounds of the workload's operations
until `--seconds` have passed, checking every output.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with `--trace 1` the run makes two untraced and one traced
round, times the kernels on fixed inputs, writes the spans to
qkbench/out/trace-<workload>-<seed>.jsonl and reports the per-layer metrics;
a layer that the workload does not use reports 0.
See qkbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 16  # set-up samples per run, spread over its length
SETUP_CPUS = 4  # a sample is the fastest set-up on up to this many CPUs
PROGRAM_MODULES = ("ffpoly", "qk", "seqgen", "cm_arith", "extfield", "dynamics", "cli",
                   "errors")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_program() -> SimpleNamespace:
    """A fresh import of qkforge from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "qkforge" or n.startswith("qkforge.")]:
        del sys.modules[name]
    package = importlib.import_module("qkforge")
    if Path(package.__file__).resolve().parent != SRC / "qkforge":
        raise ImportError(f"qkforge was imported from {package.__file__}, not {SRC}")
    mods = {short: importlib.import_module(f"qkforge.{short}") for short in PROGRAM_MODULES}
    return SimpleNamespace(package=package, **mods)


def lru_caches(m) -> list:
    """Every lru_cache of the program.  Call it before any wrapping: a
    wrapper hides `cache_clear`, and its cache would then never be cleared."""
    return [obj for short in PROGRAM_MODULES for obj in vars(getattr(m, short)).values()
            if hasattr(obj, "cache_clear")]


def set_up(workload: str, seed: int):
    """Import the program and make the inputs; returns both and the time
    that took."""
    t0 = perf_counter()
    m = import_program()
    ops = workloads.BUILDERS[workload](m, seed, OUT)
    return m, ops, perf_counter() - t0


class Runner:
    """Times and checks rounds of operations.  Outputs of the first round
    are checked independently; later rounds must reproduce their digests.

    With `marked`, each operation is cut into segments at the calls that
    `tracing.Marks` marks, and each segment keeps its fastest time over the
    rounds; `marks.uninstall()` removes the marks."""

    def __init__(self, m, ops, marked: bool = False):
        self.ops = ops
        self.caches = lru_caches(m)  # before Marks wraps count_points
        self.marks = tracing.Marks(m.package) if marked else None
        # Per operation, each segment's fastest time so far: memory that does
        # not grow with the number of rounds, so peak_rss_mb does not either.
        self.fastest: list[array] = [array("d") for _ in ops]
        self.digests: list = [None] * len(ops)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def round(self) -> float:
        """One round of every operation; returns its summed time."""
        self.clear_caches()
        total = 0.0
        for j, op in enumerate(self.ops):
            if op.fresh:
                self.clear_caches()
            failure = None
            if self.marks is not None:
                self.marks.reset()
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                failure = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            total += t1 - t0
            cuts = [t0, *self.marks.times, t1] if self.marks is not None else [t0, t1]
            segs = [b - a for a, b in zip(cuts, cuts[1:])]
            fastest = self.fastest[j]
            if self.rounds == 0:
                fastest.extend(segs)
            elif len(segs) == len(fastest):
                for i, seg in enumerate(segs):
                    if seg < fastest[i]:
                        fastest[i] = seg
            else:  # the marked calls differ between rounds: a fault of the program
                self.errors.append(f"{op.label}: round {self.rounds} has {len(segs)} "
                                   f"segments, round 0 had {len(fastest)}")
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                out_digest = ("failed", failure.split(":", 1)[0])
                if self.rounds == 0:
                    print(f"failed: {op.label}: {failure[:200]}", file=sys.stderr)
            else:
                if self.rounds == 0:
                    try:
                        self.errors += op.check(out)
                    except (ValueError, KeyError, TypeError, IndexError) as exc:
                        self.errors.append(f"{op.label}: output does not parse: {exc!r}")
                out_digest = op.digest(out)
            if self.rounds == 0:
                self.digests[j] = out_digest
            elif out_digest != self.digests[j]:
                self.errors.append(f"{op.label}: round {self.rounds} output differs from round 0")
        self.rounds += 1
        return total

    def wall_s(self) -> float:
        """Each segment's fastest time over the rounds, summed over all
        segments of all operations."""
        return sum(sum(fastest) for fastest in self.fastest)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def sampled_set_up(workload: str, seed: int, cpus: list[int], sample: int) -> float:
    """The fastest of one set-up on each of up to SETUP_CPUS allowed CPUs,
    starting one further along the list with each sample.  The imports and
    inputs are discarded."""
    times = []
    for j in range(max(1, min(len(cpus), SETUP_CPUS))):
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[(sample + j) % len(cpus)]})
        times.append(set_up(workload, seed)[2])
        gc.collect()  # free the discarded import now, not at a later peak
    return min(times)


def timed_run(m, ops, workload: str, seed: int, setup_s: float, seconds: float) -> dict:
    """Rounds until `seconds` have passed.  Between rounds the set-up is
    sampled again, up to SETUP_SAMPLES times spread over the run, so that
    setup_s is the median over the run rather than one moment's speed; the
    rounds keep using `m` and `ops`.

    The process stays single-threaded but moves to the next of its allowed
    CPUs before each round, so that every segment is timed on each of them:
    a shared host slows one CPU at a time for seconds on end, and a run that
    stayed on the slow one would never see the program's own speed.  For the
    same reason a set-up sample is the fastest set-up on a few CPUs."""
    runner = Runner(m, ops, marked=True)
    cpus = allowed_cpus()
    setups = [setup_s]
    start = perf_counter()
    try:
        while runner.rounds == 0 or perf_counter() < start + seconds:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[runner.rounds % len(cpus)]})
            runner.round()
            if perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(sampled_set_up(workload, seed, cpus, len(setups)))
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    runner.marks.uninstall()
    print(f"{runner.rounds} rounds of {len(ops)} operations in "
          f"{sum(map(len, runner.fastest))} segments; {len(setups)} set-ups", file=sys.stderr)
    metrics = {"setup_s": (statistics.median(setups), "s"), "wall_s": (runner.wall_s(), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    return result(runner, metrics)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _best_us(fn, samples: int = 5) -> float:
    """Fastest mean time of fn over `samples` batches of about 10 ms, in µs."""
    t0 = perf_counter()
    fn()
    reps = max(1, int(0.01 / max(perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(samples):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (perf_counter() - t0) / reps)
    return best * 1e6


def kernel_metrics(m) -> dict[str, tuple[float, str]]:
    """Kernel timings on fixed inputs, untraced and independent of the seed."""
    rng = random.Random(20130828)
    Poly = m.ffpoly.Poly
    out: dict[str, tuple[float, str]] = {}

    def rand_poly(p: int, n: int, monic: bool = False):
        return Poly(tuple(rng.randrange(p) for _ in range(n)) + ((1,) if monic else ()), p)

    for c in (40, 320, 640):
        a, b = rand_poly(53, c), rand_poly(53, c)
        out[f"ffpoly.mul_us.c{c}"] = (_best_us(lambda: a * b), "us")
    for c, p in ((3, 17), (40, 53), (320, 53), (640, 53)):
        ctx = m.ffpoly.ModulusContext(rand_poly(p, c, monic=True))
        a, b = list(rand_poly(p, c).coeffs), list(rand_poly(p, c).coeffs)
        out[f"ffpoly.mulmod_us.c{c}"] = (_best_us(lambda: ctx.mulmod(a, b)), "us")

    field = m.extfield.ExtField(m.ffpoly.smallest_irreducible(317, 2), assume_irreducible=True)
    elems = [field.from_index(rng.randrange(1, field.q)) for _ in range(4096)]
    x, y = elems[0], elems[1]
    out["extfield.mul_us"] = (_best_us(lambda: x * y), "us")
    out["extfield.inverse_us"] = (_best_us(lambda: x.inverse()), "us")
    out["extfield.batch_inverse_us_per_elem"] = (
        _best_us(lambda: m.extfield.batch_inverse(elems), samples=3) / len(elems), "us")

    p = 200_029  # prime, = 1 mod 4
    curve = m.cm_arith.CURVE_DISC4

    def count():
        m.cm_arith.count_points.cache_clear()
        m.cm_arith.count_points(curve, p)

    out["cm_arith.count_points_ns_per_p"] = (1e3 * _best_us(count, samples=3) / p, "ns")
    p = 1_000_033  # prime, = 1 mod 4
    k = m.qk.find_k(p, "C2")[0]
    m.cm_arith.depths(p, k, 1)  # fills the Frobenius cache: time pi^n alone
    out["cm_arith.depths_ms.n65536"] = (
        _best_us(lambda: m.cm_arith.depths(p, k, 1 << 16), samples=3) / 1e3, "ms")
    return out


def traced_run(m, ops, workload: str, seed: int) -> dict:
    runner = Runner(m, ops)
    untraced = min(runner.round(), runner.round())
    tracer = tracing.Tracer(m.package)
    tracer.install()
    try:
        traced = runner.round()
    finally:
        tracer.uninstall()
    path = OUT / f"trace-{workload}-{seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"wrote {len(tracer.start)} spans to {path}", file=sys.stderr)
    metrics = tracer.layer_metrics()
    metrics.update(kernel_metrics(m))
    metrics["trace.spans"] = (len(tracer.start), "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return result(runner, metrics)


def result(runner: Runner, metrics: dict) -> dict:
    for message in runner.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qkforge" / "__init__.py").is_file():
        print(f"error: no qkforge sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    m, ops, setup_s = set_up(args.workload, args.seed)
    if args.trace:
        out = traced_run(m, ops, args.workload, args.seed)
    else:
        out = timed_run(m, ops, args.workload, args.seed, setup_s, args.seconds)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
