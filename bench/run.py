"""Benchmark for biaxial: seeded workloads through the public entry points.

Usage, from the root of a checkout::

    python3 bench/run.py --workload count-haar --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in; a
checkout without it is an error.  One process and one thread drive the
library as a closed loop with a single caller: each call starts when the
previous one has returned.  Outputs are checked between rounds, outside the
timed calls.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same rounds once untraced and once with a span on
every public function of each layer module, prints the per-layer metrics
and the tracing overhead, and writes the spans under ``.bench_out/``.
The last line printed is one JSON object with the results.
"""

from __future__ import annotations

import os

# Pin numpy's BLAS and OpenMP pools before numpy is imported, here and in
# the fresh interpreters that measure set-up time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up runs per run, spread evenly over the timed run, so that their
# median spans the same stretch of host load as the timed calls.
SETUP_REPEATS = 9
# Timed work between host-speed samples.
CALIBRATE_NS = 20_000_000
# Throughput is the median over blocks of this many consecutive rounds.
# Any 8 consecutive rounds draw the middle Euler angle once from each eighth
# of its distribution (see workloads.InstanceStream), so blocks differ in
# host speed, not in the mix of instance sizes.
BLOCK_ROUNDS = 8
# The tail is the median over groups of this many consecutive latencies
# (a single group when a run has fewer than twice as many) of each group's
# highest percentile with TAIL_BEYOND latencies above it.
TAIL_GROUP = 100
TAIL_BEYOND = 10

SETUP_PRELUDE = """\
import json, sys
sys.path.insert(0, {src!r})
import biaxial, biaxial.cli
first_path = {first!r}
with open(first_path, encoding="utf-8") as fh:
    first = json.load(fh)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "frac",
    "residual_digits": "digits",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import ``biaxial`` from this checkout's ``src``, and nothing else."""
    package = SRC / "biaxial"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no biaxial package at {package}")
    sys.path.insert(0, str(SRC))
    import biaxial
    import biaxial.cli  # noqa: F401  (the CLI is a workload entry point)
    if Path(biaxial.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported biaxial from {biaxial.__file__}, not {package}")
    return biaxial


def tail(samples: np.ndarray) -> tuple[float, float, int]:
    """Tail latency, its percentile within a group, and the number of groups."""
    groups = max(1, len(samples) // TAIL_GROUP)
    size = len(samples) // groups
    values = []
    for g in range(groups):
        chunk = samples[g * size:(g + 1) * size if g + 1 < groups else None]
        k = max(0, len(chunk) - TAIL_BEYOND - 1)
        values.append(float(np.partition(chunk, k)[k]))
    return statistics.median(values), 100.0 * (k + 1) / len(chunk), groups


class Run:
    """Timings and check totals of one pass over rounds.

    Host speed is sampled before a timed call whenever CALIBRATE_NS of
    timed work has passed since the last sample, and once at the end; the
    calls between two samples are scaled by their mean.  Timings are kept
    in flat arrays, so that the benchmark's own memory hardly grows with
    the number of calls a run makes.
    """

    def __init__(self, workload, totals, wrap=None, keep: bool = False) -> None:
        self.workload = workload
        self.totals = totals
        self.wrap = wrap or (lambda index, fn: fn())
        self.kept: list | None = [] if keep else None
        self.speed = HostSpeed()
        self.busy_ns = 0
        self._since_sample = CALIBRATE_NS
        self._index = 0
        self._pending = array("d")  # raw times of calls since the last sample
        self.raw_ns = array("d")
        self.scaled_ns = array("d")
        self.round_calls = array("q")
        self.round_items = array("q")
        self.bytes_in = 0
        self.bytes_out = 0

    def items(self) -> int:
        return sum(self.round_items)

    def _sample(self) -> None:
        index = self.speed.sample()
        if self._pending:
            scale = self.speed.scale(index - 1, index)
            self.scaled_ns.extend(ns * scale for ns in self._pending)
            self._pending = array("d")
        self._since_sample = 0

    def call(self, fn):
        """Time one call into the program; return its output or the exception it raised."""
        if self._since_sample >= CALIBRATE_NS:
            self._sample()
        start = time.perf_counter_ns()
        try:
            out = self.wrap(self._index, fn)
        except Exception as exc:  # a raising call is a failed instance, not a crash
            out = exc
        ns = time.perf_counter_ns() - start
        self.busy_ns += ns
        self._since_sample += ns
        self._pending.append(ns)
        self.raw_ns.append(ns)
        return out

    def run(self, index: int, rnd, check: bool = True):
        self._index = index
        calls = len(self.raw_ns)
        result = self.workload.run_round(rnd, self)
        if self.kept is not None:
            self.kept.append(rnd)
        self.round_calls.append(len(self.raw_ns) - calls)
        self.round_items.append(len(rnd))
        self.bytes_in += result.bytes_in
        self.bytes_out += result.bytes_out
        if check:
            self.check(index, rnd, result)
        return result

    def check(self, index: int, rnd, result) -> None:
        for verdict in self.workload.check_round(index, rnd, result):
            self.totals.add(verdict)

    def finish(self) -> None:
        """Scale the last calls and sum the calls of every round."""
        self._sample()
        ends = np.cumsum(np.frombuffer(self.round_calls, dtype=np.int64))
        starts = ends - np.frombuffer(self.round_calls, dtype=np.int64)
        scaled = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.scaled_ns))])
        raw = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.raw_ns))])
        self.round_ns = scaled[ends] - scaled[starts]
        if self.workload.batch:
            # One latency per batch: its time per item.
            items = np.frombuffer(self.round_items, dtype=np.int64)
            self.latencies = self.round_ns / items
            self.raw_latencies = (raw[ends] - raw[starts]) / items
        else:
            self.latencies = np.frombuffer(self.scaled_ns)
            self.raw_latencies = np.frombuffer(self.raw_ns)

    def throughput(self) -> tuple[float, int]:
        """Median items per second over blocks of BLOCK_ROUNDS rounds (one
        block of every round when a run has fewer)."""
        blocks = max(1, len(self.round_items) // BLOCK_ROUNDS)
        size = len(self.round_items) // blocks
        items = np.frombuffer(self.round_items, dtype=np.int64)
        rates = [items[b * size:(b + 1) * size].sum() * 1e9
                 / self.round_ns[b * size:(b + 1) * size].sum() for b in range(blocks)]
        return float(statistics.median(rates)), blocks


def measure_setup(workload, first_round, expected: str, totals,
                  repeats: int) -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh interpreters that import biaxial and answer once."""
    from workloads import Verdict

    first_path = workload.scratch / "first.json"
    first_path.write_text(json.dumps(workload.setup_input(first_round)), encoding="utf-8")
    code = SETUP_PRELUDE.format(src=str(SRC), first=str(first_path)) + workload.setup_code()
    times, raw = [], []
    speed = HostSpeed()
    for _ in range(repeats):
        before = speed.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=os.environ)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * speed.scale(before, speed.sample()))
        answer = proc.stdout.strip()
        if proc.returncode != 0 or answer != expected:
            totals.add(Verdict(True, True, None,
                               f"set-up run answered {answer!r} (exit {proc.returncode}),"
                               f" expected {expected!r}: {proc.stderr.strip()[-300:]}"))
    first_path.unlink()
    return times, raw


def run_until(run: Run, rounds, index: int, seconds: float) -> int:
    """Run rounds until the timed work reaches ``seconds``; return the next index."""
    while run.busy_ns < seconds * 1e9:
        run.run(index, next(rounds))
        index += 1
    return index


def untraced(workload, args, totals) -> dict:
    rounds = workload.rounds(args.seed)
    first = next(rounds)
    result = Run(workload, totals).run(0, first)
    expected = workload.setup_answer(result.outputs[0])
    timed = Run(workload, totals)
    setup, setup_raw, index = [], [], 1
    for part in range(1, SETUP_REPEATS + 1):
        index = run_until(timed, rounds, index, args.seconds * part / SETUP_REPEATS)
        times, raw = measure_setup(workload, first, expected, totals, repeats=1)
        setup += times
        setup_raw += raw
    timed.finish()

    rate, blocks = timed.throughput()
    raw_rate = timed.items() * 1e9 / timed.busy_ns
    n = len(timed.latencies)
    p50 = float(np.median(timed.latencies))
    tail_ns, tail_pct, groups = tail(timed.latencies)
    fail_frac = totals.failed / totals.attempted
    max_res = totals.max_residual
    # A run whose replays are all exact reads as the smallest positive float.
    digits = -math.log10(max(max_res, 5e-324))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("times are scaled to the reference host; raw times in brackets")
    print(f"setup_s          {statistics.median(setup):.4f} s"
          f"  [{statistics.median(setup_raw):.4f}] (median of {len(setup)} fresh interpreters)")
    print(f"throughput_per_s {rate:.4f} 1/s  [{raw_rate:.4f}] (median of {blocks} blocks;"
          f" {timed.items()} instances in {timed.busy_ns / 1e9:.2f} s timed)")
    print(f"latency_p50_ms   {p50 / 1e6:.4f} ms"
          f"  [{float(np.median(timed.raw_latencies)) / 1e6:.4f}] (n={n})")
    print(f"latency_tail_ms  {tail_ns / 1e6:.4f} ms"
          f"  [{tail(timed.raw_latencies)[0] / 1e6:.4f}] (median over {groups}"
          f" groups of {n // groups}+ of the p{tail_pct:.2f} with {TAIL_BEYOND} beyond; n={n})")
    print(f"fail_frac        {fail_frac:.6f}  ({totals.failed}/{totals.attempted} fail a check;"
          f" {totals.hard} of them wrong answers, reported as failed operations)")
    print(f"ok_frac          {1.0 - fail_frac:.6f} frac")
    print(f"max_residual     {max_res:.4g}  (over {totals.residuals} replays)")
    print(f"residual_digits  {digits:.4f} digits  (-log10 max_residual)")
    print(f"peak_rss_mb      {rss_mb:.2f} MB")
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": rate,
        "latency_p50_ms": p50 / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "ok_frac": 1.0 - fail_frac,
        "residual_digits": digits,
        "peak_rss_mb": rss_mb,
    }


def traced(workload, args, totals) -> dict:
    from tracing import Tracer

    rounds = workload.rounds(args.seed)
    Run(workload, totals).run(0, next(rounds))
    plain = Run(workload, totals, keep=True)
    run_until(plain, rounds, 1, args.seconds / 2)
    plain.finish()

    tracer = Tracer()
    observers = {
        "synthesis.decompose_min": lambda d, obs: obs.update(
            decompositions=obs.get("decompositions", 0) + 1,
            factors=obs.get("factors", 0) + len(d.factors)),
        "oracle.numeric_search": lambda r, obs: obs.update(
            evaluations=obs.get("evaluations", 0) + r.evaluations),
    }
    spanned = Run(workload, totals, wrap=tracer.instance)
    results = []
    tracer.install(workload.api, observers)
    try:
        for i, rnd in enumerate(plain.kept):
            if spanned.busy_ns >= args.seconds / 2 * 1e9:
                break
            results.append(spanned.run(i + 1, rnd, check=False))
    finally:
        tracer.uninstall()
    spanned.finish()
    for i, (rnd, result) in enumerate(zip(plain.kept, results)):
        spanned.check(i + 1, rnd, result)

    done = len(results)
    overhead = float(spanned.round_ns.sum() / plain.round_ns[:done].sum()) - 1.0
    items = spanned.items()
    root = tracer.root_ns()
    obs = tracer.observed

    def per_inst(name):
        return tracer.calls_of(name) / items

    def layer_frac(layer):
        return tracer.layer_self_ns(layer) / root

    replays = tracer.calls_of("synthesis.replay_factors")
    metrics = {
        "core.compose.calls_per_inst": per_inst("core.compose"),
        "core.rot.calls_per_inst": per_inst("core.rot"),
        "core.unit_axis.calls_per_inst": per_inst("core.unit_axis"),
        "core.frame_for.calls_per_inst": per_inst("core.frame_for"),
        "core.generalized_euler.calls_per_inst": per_inst("core.generalized_euler"),
        "core.self_frac": layer_frac("core"),
        "counting.analyze.calls_per_inst": per_inst("counting.analyze"),
        "counting.from_axes.calls_per_inst": per_inst("counting.AxisPair.from_axes"),
        "counting.self_frac": layer_frac("counting"),
        "synthesis.replay_factors.calls_per_inst": replays / items,
        "synthesis.replay_factors.self_frac":
            tracer.self_of("synthesis.replay_factors") / root,
        "synthesis.solve_triple.calls_per_inst": per_inst("synthesis.solve_triple"),
        "synthesis.factors_per_inst": obs.get("factors", 0) / items,
        "synthesis.replay_useful_ratio":
            obs.get("decompositions", 0) / replays if replays else 0.0,
        "synthesis.self_frac": layer_frac("synthesis"),
        "oracle.numeric_search.calls_per_inst": per_inst("oracle.numeric_search"),
        "oracle.search_evals_per_inst": obs.get("evaluations", 0) / items,
        "oracle.geodesic_bound_check.calls_per_inst":
            per_inst("oracle.geodesic_bound_check"),
        "oracle.self_frac": layer_frac("oracle"),
        "serialization.parse_instance.calls_per_inst":
            per_inst("serialization.parse_instance"),
        "serialization.parse_certificate.calls_per_inst":
            per_inst("serialization.parse_certificate"),
        "serialization.certificate_to_obj.calls_per_inst":
            per_inst("serialization.certificate_to_obj"),
        "serialization.self_frac": layer_frac("serialization"),
        "cli.self_frac": layer_frac("cli"),
        "cli.bytes_in_per_inst": spanned.bytes_in / items,
        "cli.bytes_out_per_inst": spanned.bytes_out / items,
        "trace.overhead_frac": overhead,
    }
    stem = OUT / f"trace-{workload.name}"
    tracer.write(stem, {"workload": workload.name, "seed": args.seed,
                        "rounds": done, "instances": items,
                        "root_ns": root,
                        "untraced_scaled_ns": float(plain.round_ns[:done].sum()),
                        "traced_scaled_ns": float(spanned.round_ns.sum())})
    print(f"traced {done} rounds ({items} instances, {tracer.total_spans} spans,"
          f" {len(tracer.span_id)} kept) -> {stem}.json/.npz")
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g}")
    return metrics


PER_LAYER_UNITS = {
    "self_frac": "frac",
    "calls_per_inst": "calls/inst",
    "factors_per_inst": "factors/inst",
    "replay_useful_ratio": "ratio",
    "search_evals_per_inst": "evals/inst",
    "bytes_in_per_inst": "B/inst",
    "bytes_out_per_inst": "B/inst",
    "overhead_frac": "frac",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_program()
    from workloads import WORKLOADS, CheckTotals

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # Files the CLI and the set-up runs read and write; one directory per
    # process, so that runs never share them.
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](api, scratch)
    totals = CheckTotals()
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} gaps={list(workload.gaps)}")
    try:
        metrics = (traced if args.trace else untraced)(workload, args, totals)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for reason in totals.reasons:
        print(f"bench: instance fails a check: {reason}", file=sys.stderr)
    # An operation fails when it raises or answers wrongly.  A residual above
    # tol.recon that still reaches the target is imprecision: it counts
    # against ok_frac and residual_digits, not here.
    print(json.dumps({
        "correct": totals.hard == 0,
        "attempted": totals.attempted,
        "failed": totals.hard,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
