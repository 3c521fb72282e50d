"""Benchmark of the swsurgery package, measured from outside through its public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Run from any directory; the package is imported from ``src/`` beside this
directory.  Every workload is a closed loop with one client: each op starts
after the previous one ends.  Set-up (importing swsurgery and generating the
seeded inputs) is repeated and its median reported; there is no warm-up op.

``--trace 0`` times a fixed number of rounds of ops, about ``--seconds`` of
op time, checks every output outside the timed interval, and reports the
end-to-end metrics, scaled to a nominal machine speed (``reference.py``).
``--trace 1`` runs the first rounds of the same inputs and a fixed probe
three times (untraced, traced, untraced), requires equal output digests, and
reports the per-layer metrics of ``layers.py``; spans go to ``.bench_out/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference
from layers import metric_specs
from spans import Recorder
from workloads import WORKLOADS, checkout_root

MODULES = ("exactmat", "lattice", "manifold", "knots", "plumbing", "monodromy",
           "models", "pipelines", "report", "cli")
SETUP_REPEATS = 5
SETUP_SAMPLES = 3  # reference kernel runs after each set-up
STARTUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


class SetupError(Exception):
    pass


def load_package(root: Path) -> SimpleNamespace:
    """Import swsurgery afresh from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "swsurgery" / "__init__.py").is_file():
        raise SetupError(f"no package source under {src}")
    for name in [n for n in sys.modules if n == "swsurgery" or n.startswith("swsurgery.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        importlib.import_module("swsurgery")
        pkg = SimpleNamespace(**{m: importlib.import_module(f"swsurgery.{m}") for m in MODULES})
    except ImportError as exc:
        raise SetupError(f"cannot import swsurgery: {exc}") from exc
    if Path(pkg.cli.__file__).resolve().parent != (src / "swsurgery").resolve():
        raise SetupError(f"swsurgery was imported from {pkg.cli.__file__}, not {src}")
    return pkg


def setup(workload, root: Path, seed: int, count: int):
    pkg = load_package(root)
    workload.prepare(pkg, root)
    rounds = list(workload.rounds(random.Random(f"{workload.name}/{seed}"), count))
    return pkg, rounds


def clear_caches(pkg) -> None:
    """Empty every lru_cache of the package, as a fresh process has them."""
    for module in vars(pkg).values():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_op(workload, pkg, case, run, recorder=None):
    """One op; returns (seconds, digest or None, error or None).

    A given recorder traces the op itself, never its check.
    """
    if recorder is not None:
        recorder.active = True
    t0 = perf_counter()
    try:
        out = run(pkg, case)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return perf_counter() - t0, None, exc
    finally:
        elapsed = perf_counter() - t0
        if recorder is not None:
            recorder.active = False
    try:
        return elapsed, workload.check(pkg, case, out), None
    except Exception as exc:
        return elapsed, None, exc


def timed_run(workload, pkg, rounds, seconds):
    """Every round of ops; returns raw latencies, scaled latencies and errors.

    The workload's reference kernel runs before the first op and once per
    ``kernel.every_s`` of op time after that.  Each op is scaled by the
    kernel samples taken within ``reference.WINDOW_S`` of op time of it.
    """
    kernel = workload.kernel
    latencies, errors = [], []
    positions, samples = [0.0], [kernel.seconds()]  # op time at each sample, sample time
    busy = since_sample = 0.0
    for batch in rounds:
        for case in batch:
            elapsed, _, error = run_op(workload, pkg, case, workload.run)
            latencies.append(elapsed)
            busy += elapsed
            since_sample += elapsed
            while since_sample >= kernel.every_s:
                positions.append(busy)
                samples.append(kernel.seconds())
                since_sample -= kernel.every_s
            if error is not None:
                errors.append((case, error))
        if busy >= 3 * seconds:  # keeps a much slower program within its time budget
            break
    scaled, start = [], 0.0
    for elapsed in latencies:
        lo = bisect_left(positions, start - reference.WINDOW_S)
        hi = bisect_right(positions, start + elapsed + reference.WINDOW_S)
        scaled.append(elapsed * kernel.scale(samples[lo:hi] or samples))
        start += elapsed
    return latencies, scaled, errors


def end_to_end(workload, pkg, rounds, seconds, setup_times):
    latencies, scaled, errors = timed_run(workload, pkg, rounds, seconds)
    n = len(latencies)
    tail = max(0, n - 11)  # highest rank with at least ten samples beyond it
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    raw = {
        "ops_per_s": (n - len(errors)) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * sorted(latencies)[tail],
    }
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (n - len(errors)) / sum(scaled),
        "op_p50_ms": 1000 * statistics.median(scaled),
        "op_tail_ms": 1000 * sorted(scaled)[tail],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "success_rate": (n - len(errors)) / n,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} scaled set-ups",
        "ops_per_s": f"raw {raw['ops_per_s']:.4g}: {n - len(errors)} correct ops in "
                     f"{sum(latencies):.2f} s of op time, {sum(scaled):.2f} s scaled",
        "op_p50_ms": f"raw {raw['op_p50_ms']:.4g}",
        "op_tail_ms": f"raw {raw['op_tail_ms']:.4g}; p{100 * (tail + 1) / n:.1f} of {n} ops, "
                      f"{n - tail - 1} beyond it",
        "peak_rss_mb": "largest child process" if workload.name == "cli" else "this process",
        "success_rate": f"error_rate {len(errors) / n:g} = {len(errors)} failed / {n} attempted",
    }
    metrics = {name: (values[name], unit, notes.get(name, "")) for name, unit in END_TO_END}
    return metrics, n, errors


def run_pass(pkg, ops, recorder=None):
    """(workload, case) ops once, from empty caches.

    Returns (scaled op seconds, digests, errors); the in-process reference
    kernel is sampled as in ``timed_run``.
    """
    clear_caches(pkg)
    if recorder is not None:
        recorder.install()
    kernel = reference.IN_PROCESS
    digests, errors, busy = [], [], 0.0
    samples, since_sample = [kernel.seconds()], 0.0
    try:
        for i, (workload, case) in enumerate(ops):
            if recorder is not None:
                recorder.op = i
            elapsed, digest, error = run_op(workload, pkg, case, workload.run_in_process, recorder)
            busy += elapsed
            since_sample += elapsed
            while since_sample >= kernel.every_s:
                samples.append(kernel.seconds())
                since_sample -= kernel.every_s
            digests.append(digest)
            if error is not None:
                errors.append((case, error))
    finally:
        if recorder is not None:
            recorder.restore()
    return busy * kernel.scale(samples), digests, errors


def cli_startup_ms(cli, pkg) -> float:
    """Median wall time of ``python -m swsurgery --version`` in a fresh process."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        code, _ = cli.run(pkg, ("--version",))
        times.append(perf_counter() - t0)
        if code != 0:
            raise SetupError(f"swsurgery --version exited with {code}")
    return 1000 * statistics.median(times)


def per_layer(workload, pkg, rounds, root, seed):
    cli = WORKLOADS["cli"]
    cli.prepare(pkg, root)
    cases = [case for batch in rounds for case in batch]
    ops = [(workload, case) for case in cases] + [(cli, argv) for argv in cli.PROBE]
    # untraced passes before and after the traced one: the first pass of a
    # process runs slower, which alone would bias the overhead ratio
    before_s, plain, errors = run_pass(pkg, ops)
    recorder = Recorder()
    traced_s, traced, traced_errors = run_pass(pkg, ops, recorder)
    values = recorder.layer_metrics()
    after_s, plain_after, after_errors = run_pass(pkg, ops)
    errors += traced_errors + after_errors
    plain_s = (before_s + after_s) / 2
    mismatched = [c for (_, c), a, b, d in zip(ops, plain, traced, plain_after)
                  if a is not None and not a == b == d]
    errors += [(case, "traced output digest differs from the untraced one") for case in mismatched]
    units = {name: (unit, prediction) for name, unit, _, prediction in metric_specs()}
    values["cli.startup_ms"] = cli_startup_ms(cli, pkg)
    values["trace.overhead_ratio"] = traced_s / plain_s
    metrics = {name: (values[name], unit, f"moves {prediction}")
               for name, (unit, prediction) in units.items()}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    recorder.write(spans_path)
    print(f"# {len(recorder.names)} spans over {len(cases)} {workload.name} ops and "
          f"{len(cli.PROBE)} probe commands (op ids from {len(cases)}) written to {spans_path}")
    print(f"# scaled op time untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
          f"{len(ops) - len(mismatched)}/{len(ops)} output digests equal")
    failed = len({repr(case) for case, _ in errors})
    return metrics, len(ops), failed, errors


def declared(root: Path, key: str):
    """{name: unit} of BENCHMARK.json's list ``key``, or None without the file."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[key]}


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)])
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = checkout_root()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            count = workload.trace_rounds
        else:
            count = max(1, round(args.seconds * workload.rounds_per_s))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            pkg, rounds = setup(workload, root, args.seed, count)
            elapsed = perf_counter() - t0
            samples = [reference.IN_PROCESS.seconds() for _ in range(SETUP_SAMPLES)]
            setup_times.append(elapsed * reference.IN_PROCESS.scale(samples))
        print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            metrics, attempted, failed, errors = per_layer(workload, pkg, rounds, root, args.seed)
            key = "per_layer"
        else:
            metrics, attempted, errors = end_to_end(workload, pkg, rounds, args.seconds, setup_times)
            failed = len(errors)
            key = "end_to_end"
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for case, error in errors[:5]:
        print(f"FAILED {case!r:.200}: {error!r:.300}", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<6} {note}")
    expected = declared(root, key)
    printed = {name: unit for name, (_, unit, _) in metrics.items()}
    if expected is not None and expected != printed:
        print(f"error: metrics differ from BENCHMARK.json {key}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
