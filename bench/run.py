"""Known-answer benchmark for orbibraid verdicts.

Usage, from the repository root:

    python3 bench/run.py --workload braid-words --seed 1 --seconds 25 --trace 0

Self-tests: ``python3 -m pytest -q bench``.

Workloads: braid-words, coherence-routes, rep-verify, cli-corpus (see
BENCHMARK.json for why each exists).  The inputs come from the seed only;
every request is checked against an answer fixed by construction or by an
independent oracle.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of the time to import
  ``orbibraid.cli`` and load the bundled sl2 data and diagram corpus,
  scaled to the reference machine speed (see REFERENCE_IMPORT_S);
- ``verdict_p50_ms`` / ``verdict_p90_ms``: per-request wall time, argv (or
  arguments) in, rendered report (or result) out, scaled to the reference
  machine speed (see REFERENCE_KERNEL_S);
- ``verdicts_per_s``: requests completed per second of (scaled) request
  time;
- ``peak_rss_mb``: peak resident set of the workload's process.

With ``--trace 1`` it runs the first cycles of the same pool, each request
(or pair of requests compared with each other) once untraced and then once
more with spans around every layer's public functions, and reports the
per-layer metrics (see ``tracing.py``).  The spans are written to
``.bench_out/trace-<workload>.json``.

The load is a closed loop: one client, one request at a time, no threads.
Each workload runs in its own fresh child process.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details: failures by cause, the unscaled wall times, the Python
version and CPU count.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 150
WARMUP_REQUESTS = 4
# A shared machine's speed drifts by tens of percent over tens of seconds.
# Times are scaled to a reference speed by a calibration timed next to them,
# as its time on the reference machine (Python 3.11, 2 vCPUs) over its time
# now.  Request times use a compute kernel timed between requests.  Set-up
# in a fresh interpreter is mostly loading and executing modules, which
# drifts apart from compute, so each set-up probe is paired with a fresh
# interpreter that imports REFERENCE_MODULES.  bench/baseline.json records
# the unscaled spreads beside the scaled ones.
REFERENCE_KERNEL_S = 5.0e-3
CALIBRATION_EVERY_S = 0.25
REFERENCE_IMPORT_S = 0.05
REFERENCE_MODULES = (
    "unittest", "email.mime.multipart", "http.client", "xml.etree.ElementTree", "logging", "csv",
    "difflib", "configparser", "pickle", "calendar", "tomllib", "optparse",
)
# Hash randomisation would make set iteration order, and so timings, vary between runs.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


def _probe_setup() -> None:
    """Print the time this fresh interpreter takes to become ready to serve."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import orbibraid.cli  # noqa: F401
    from orbibraid.dsl import parse_diagram
    from orbibraid.reflect import RepData

    data_dir = SRC / "orbibraid" / "data"
    RepData.load(data_dir / "sl2.rep.json")
    for path in sorted((data_dir / "diagrams").glob("*.diag")):
        parse_diagram(path.read_text())
    print(time.perf_counter() - t0)


def _probe_reference() -> None:
    """Print the time this fresh interpreter takes to import REFERENCE_MODULES."""
    loaded = [name for name in REFERENCE_MODULES if name in sys.modules]
    if loaded:
        raise SystemExit(f"bench: reference modules already imported: {loaded}")
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(time.perf_counter() - t0)


def _spawn(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        text=True,
    )
    return proc.stdout


def setup_seconds() -> tuple[float, float]:
    """Median set-up time over fresh interpreters: as measured, and scaled to the reference speed."""
    _spawn(["--role", "setup"])  # first interpreter compiles the bytecode caches
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append((float(_spawn(["--role", "setup"])), float(_spawn(["--role", "reference"]))))
    raw = statistics.median(t for t, _ in probes)
    scaled = statistics.median(t * REFERENCE_IMPORT_S / ref for t, ref in probes)
    return raw, scaled


def _serve(requests, tally) -> list[float]:
    """Run requests in order, checking each; returns their wall times in seconds."""
    import workloads

    times = []
    clock = time.perf_counter
    for req in requests:
        t0 = clock()
        try:
            result = req.call()
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            times.append(clock() - t0)
            tally.fail("exception", req, exc)
            continue
        times.append(clock() - t0)
        try:
            req.check(result)
        except workloads.ExitTwo as exc:
            tally.fail("exit2", req, exc)
        except Exception as exc:
            tally.fail("mismatch", req, exc)
        else:
            tally.ok()
    return times


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = {"mismatch": 0, "exception": 0, "exit2": 0}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str, req, exc: Exception) -> None:
        self.attempted += 1
        self.failed[why] += 1
        if sum(self.failed.values()) <= 5:
            print(f"FAILED {why} {req.kind}: {type(exc).__name__}: {str(exc)[:300]}", file=sys.stderr)


def _calibration_kernel() -> int:
    """A fixed unit of pure-Python work, independent of orbibraid, with the
    program's kind of instruction mix: permutation tuples, exact fractions,
    small objects, token splitting and dict lookups."""
    acc = 0
    p, q = tuple(range(8)), (3, 0, 6, 1, 7, 2, 5, 4)
    for _ in range(1500):
        p = tuple(q[x] for x in p)
        acc += sum(1 for j in range(7) if p[j] > p[j + 1])
    f = Fraction(0)
    for k in range(1, 300):
        f += Fraction(k % 7 + 1, k + 1)
    tokens = " ".join(f"s{i % 7 + 1}" for i in range(4000)).split()
    index = {(t, i % 13): i for i, t in enumerate(tokens)}
    return acc + len(index) + f.numerator % 7


def _kernel_seconds() -> float:
    """Time of one kernel run, with the collector off so the heap's size does not count."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _loop(pool, seconds: float, tally):
    """The timed closed loop: cycle through the pool until the time is up.

    Between requests, at most every CALIBRATION_EVERY_S, it times the
    calibration kernel.  Returns the requests' wall times and the same times
    scaled to the reference speed: multiplied by REFERENCE_KERNEL_S over the
    median of the four kernel timings nearest to the request.
    """
    times, done_at, kernel, kernel_at = [], [], [], []

    def calibrate():
        kernel.append(_kernel_seconds())
        kernel_at.append(time.perf_counter())

    calibrate()
    calibrate()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < start + seconds:
        times += _serve([pool[i % len(pool)]], tally)
        done_at.append(time.perf_counter())
        i += 1
        if done_at[-1] - kernel_at[-1] >= CALIBRATION_EVERY_S:
            calibrate()
    calibrate()
    calibrate()
    scaled = []
    for t, at in zip(times, done_at):
        k = bisect.bisect(kernel_at, at)
        scaled.append(t * REFERENCE_KERNEL_S / statistics.median(kernel[k - 2 : k + 2]))
    return times, scaled


def _request_metrics(times: list[float]) -> dict[str, float]:
    return {
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "verdict_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
        "verdicts_per_s": len(times) / sum(times),
    }


def _child(workload: str, seed: int, seconds: float, trace: bool) -> None:
    sys.path[:0] = [str(SRC), str(HERE)]
    import random

    import workloads

    build, cycles, trace_cycles = workloads.WORKLOADS[workload]
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = build(random.Random(f"{workload}:{seed}"), workdir, cycles)
        tally = Tally()
        _serve(pool[:WARMUP_REQUESTS], tally)
        if trace:
            import tracing

            subset = pool[: len(pool) * trace_cycles // cycles]
            # Each request, or pair of requests compared with each other, is
            # served untraced and then traced right after, so the machine's
            # drift stays out of the overhead.
            units = []
            for i, req in enumerate(subset):
                if req.second_of_pair:
                    units[-1].append((i, req))
                else:
                    units.append([(i, req)])
            tracer = tracing.Tracer()
            untraced = traced = 0.0
            for unit in units:
                untraced += sum(_serve([req for _, req in unit], tally))
                try:
                    tracer.install()
                    for i, req in unit:
                        tracer.request = i
                        traced += sum(_serve([req], tally))
                finally:
                    tracer.uninstall()
            metrics = tracer.metrics(traced)
            metrics["trace.overhead_frac"] = traced / untraced - 1
            meta = {"workload": workload, "seed": seed, "request_kinds": [req.kind for req in subset]}
            tracer.dump(OUT / f"trace-{workload}.json", meta)
            doc = {"metrics": metrics}
        else:
            times, scaled = _loop(pool, seconds, tally)
            doc = {
                "metrics": _request_metrics(scaled),
                "raw": _request_metrics(times),
                "samples": len(times),
            }
            doc["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc["attempted"] = tally.attempted
        doc["failed"] = tally.failed
        print(json.dumps(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _declared(spec: dict, metrics: dict, kind: str) -> dict:
    """Every metric BENCHMARK.json declares for this kind of run, with its unit."""
    missing = [m["name"] for m in spec[kind] if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: the run measured no {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def main() -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "child", "setup", "reference"), default="main", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "orbibraid" / "cli.py").is_file():
        print(f"bench: no orbibraid sources under {SRC}", file=sys.stderr)
        return 2
    if args.role == "setup":
        _probe_setup()
        return 0
    if args.role == "reference":
        _probe_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.role == "child":
        _child(args.workload, args.seed, args.seconds, bool(args.trace))
        return 0

    child_args = ["--role", "child", "--workload", args.workload, "--seed", str(args.seed)]
    child_args += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    doc = json.loads(_spawn(child_args).strip().splitlines()[-1])
    metrics = doc["metrics"]
    if not args.trace:
        doc["raw"]["setup_s"], metrics["setup_s"] = setup_seconds()
    failed = sum(doc["failed"].values())
    # Run details on the line before the result: failures by cause, unscaled times, environment.
    detail = {k: doc[k] for k in ("failed", "samples", "raw") if k in doc}
    print(json.dumps({"detail": dict(detail, python=platform.python_version(), nproc=os.cpu_count())}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": doc["attempted"],
        "failed": failed,
        "metrics": _declared(spec, metrics, "per_layer" if args.trace else "end_to_end"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
