"""Repeat the benchmark over seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 bench/repeat.py --workloads count-haar,certify --seeds 1-10 \
        --seconds 15 [--trace 0|1] [--out summary.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median.  ``fail_frac`` (``1 - ok_frac``), ``wrong_frac`` (failed
operations over attempted) and ``max_residual`` (``10 ** -residual_digits``)
are derived from each run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    result = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {k: v["value"] for k, v in line["metrics"].items()}
            if "ok_frac" in metrics:
                metrics["fail_frac"] = 1.0 - metrics["ok_frac"]
            metrics["wrong_frac"] = line["failed"] / line["attempted"]
            if "residual_digits" in metrics:
                metrics["max_residual"] = 10.0 ** -metrics["residual_digits"]
            print(f"{workload} seed {seed}: correct={line['correct']}"
                  f" failed={line['failed']}/{line['attempted']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
            for key, value in metrics.items():
                values.setdefault(key, []).append(value)
        result[workload] = {key: summary(vals) for key, vals in values.items()}
        for key, s in result[workload].items():
            print(f"  {workload:20s} {key:48s} median {s['median']:.6g}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
