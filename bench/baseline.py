"""Record a baseline: every workload on several seeds, medians and quartile spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload it runs ``bench/run.py`` once per seed without tracing,
then once traced on the first seed, and writes the medians, the quartile
spread (q3 - q1) / median of every end-to-end metric, the same for the
unscaled wall times beside the scaled ones the metrics report (so the record
shows whether the scaling narrows the spread), the traced per-layer metrics,
and the Python version, CPU count and commit of the recording.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    *_, detail, result = out.strip().splitlines()
    doc = json.loads(result)
    doc["detail"] = json.loads(detail)["detail"]
    print(f"{workload} seed={seed} trace={trace}: attempted={doc['attempted']} failed={doc['failed']}", file=sys.stderr)
    return doc


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, help="write the record here (default: print it)")
    args = ap.parse_args()

    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        summary = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs)}
        for name in bounds:
            summary[name] = dict(_stats([r["metrics"][name]["value"] for r in runs]), bound=bounds[name])
            if name in runs[0]["detail"].get("raw", {}):
                summary[name]["unscaled"] = _stats([r["detail"]["raw"][name] for r in runs])
        traced = _run(workload, seeds[0], args.seconds, 1)
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = summary
        for name in bounds:
            s = summary[name]
            unscaled = f"  unscaled spread {s['unscaled']['spread']:.3f}" if "unscaled" in s else ""
            print(f"{workload:17s} {name:15s} median {s['median']:10.4f}  spread {s['spread']:.3f} (bound {s['bound']}){unscaled}")
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
