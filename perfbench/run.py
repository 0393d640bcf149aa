"""Host-time benchmark for txsim: how long the simulator takes per design point.

Run from the repository root:

    python3 perfbench/run.py --workload oe_raft_mpt --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

Each workload (see cells.py) is one fixed design-point cell, run through the
public ``txsim.harness.run_experiment`` in this single-threaded process;
``--workload all`` runs every workload in its own child process, one after
another.  After one warm-up cell, whole cycles over the run's inputs (see
``inputs``) repeat for about ``--seconds`` seconds.  Every cell is
self-checked (checks.py) and its exact counters must repeat per input.

``--trace 0`` prints the end-to-end metrics: the median host time of a cell
(``cell_s``) and of its set-up (``setup_s``: workload generation, wiring,
preloading every replica, up to entry into the drive loop) and the peak
resident memory of the process.  ``--trace 1`` alternates untraced and traced
cells and prints per-layer metrics from the traced ones (tracing.py) plus the
tracing overhead.  The last line of standard output is one JSON object; the
exit code is non-zero when any cell failed.  Reports and spans are written to
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

if __name__ == "__main__":
    # the benchmark measures the sources of this checkout, never an installed copy
    if not (ROOT / "src" / "txsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no txsim sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.cells import TXN_COUNT, WORKLOADS, Workload  # noqa: E402
from perfbench.checks import check_cell, exact_counters, virtual_digest  # noqa: E402
from perfbench.hooks import Capture, Patches  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics, write_spans  # noqa: E402
from txsim.harness import run_experiment  # noqa: E402

# (name, unit, better) of every metric the last line carries
END_TO_END = (
    ("cell_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# per-layer metrics the last line carries in traced mode: those that are
# measured on every workload.  Self times of layers a workload does not run
# (raft on a PBFT cell, MPT on a plain index) are printed and reported but
# left out of the last line.
PER_LAYER = (
    ("simnet.steps", "count", "lower"),
    ("simnet.delivered", "count", "lower"),
    ("simnet.requeues", "count", "lower"),
    ("simnet.requeue_ratio", "ratio", "lower"),
    ("simnet.timer_events", "count", "lower"),
    ("simnet.self_s", "s", "lower"),
    ("simnet.delivered_per_s", "1/s", "higher"),
    ("consensus.s", "s", "lower"),
    ("consensus.raft.msgs", "count", "lower"),
    ("consensus.pbft.msgs", "count", "lower"),
    ("consensus.msgs_per_commit", "msg/commit", "lower"),
    ("authstore.apply_batch.calls", "count", "lower"),
    ("authstore.ledger.append.calls", "count", "lower"),
    ("authstore.hash_ops", "count", "lower"),
    ("authstore.hash_bytes", "B", "lower"),
    ("encoding.block.bytes", "B", "lower"),
    ("sharding.tpc_msgs", "count", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("workload.txns_per_s", "1/s", "higher"),
    ("harness.collect_s", "s", "lower"),
    ("pipeline.virtual_tps", "tx/s", "higher"),
    ("pipeline.latency_p50_us", "us", "lower"),
    ("pipeline.latency_p99_us", "us", "lower"),
    ("pipeline.committed", "count", "higher"),
    ("pipeline.aborted", "count", "lower"),
    ("pipeline.dropped", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# A run cycles through VARIANTS inputs (workload and simulator seed pairs),
# because the host work of a saturated cell moves by 10-15% from one seed to
# the next; a median over several inputs repeats far better across runs.
VARIANTS = 5
MIN_CYCLES = 2  # every input runs at least twice, however short --seconds is


@dataclass
class Sample:
    """One ``run_experiment`` call: its host times, checks and exact counts."""

    variant: int
    traced: bool
    cell_s: float
    setup_s: Optional[float]
    failures: List[str]
    counters: Dict[str, object] = field(default_factory=dict)
    layers: Optional[dict] = None
    spans: list = field(default_factory=list)


def run_cell(workload: Workload, spec, sim_seed: int, variant: int = 0, traced: bool = False,
             cell: int = 0) -> Sample:
    """Run one cell with the capture hooks (and, if traced, every span wrapper)."""
    capture = Capture()
    tracer = Tracer(cell) if traced else None
    with Patches() as patches:
        capture.install(patches)
        if tracer is not None:
            tracer.install(patches)
        gc.collect()
        start = time.perf_counter()
        try:
            metrics = run_experiment(workload.cfg, spec, workload.arrival, seed=sim_seed)
        except Exception as exc:  # a cell that raises fails; the run goes on
            traceback.print_exc()
            return Sample(variant, traced, time.perf_counter() - start, None, [f"raised {exc!r}"])
        end = time.perf_counter()
    setup_s = capture.drive_enter - start if capture.drive_enter is not None else None
    failures = check_cell(metrics, capture, spec.txn_count)
    counters = exact_counters(metrics, capture)
    counters["virtual_digest"] = virtual_digest(workload, spec, sim_seed, metrics, capture, OUT_DIR)
    sample = Sample(variant, traced, end - start, setup_s, failures, counters)
    if tracer is not None:
        counters["simnet.steps"] = tracer.totals["simnet.steps"]
        calls = tracer.group_calls()
        silent = sorted(group for group in workload.expected if calls[group] == 0)
        if silent:
            failures.append(f"trace: no calls recorded by {', '.join(silent)}")
        sample.layers = layer_metrics(tracer, capture, counters, end, spec.txn_count)
        sample.spans = tracer.spans
    return sample


def mark_inexact(samples: List[Sample]) -> None:
    """Fail every cell whose exact counters differ from the first cell of its input."""
    first: Dict[int, dict] = {}
    for sample in samples:
        if not sample.counters:
            continue
        ref = first.setdefault(sample.variant, sample.counters)
        differ = sorted(k for k in sample.counters.keys() & ref.keys() if sample.counters[k] != ref[k])
        if differ:
            sample.failures.append(f"exact counters differ from the first cell: {', '.join(differ)}")


def inputs(workload: Workload, seed: int, sim_seed: int, txn_count: int, variants: int):
    """The run's inputs: workload seed ``seed*variants+i``, simulator seed ``sim_seed*variants+i``.

    Runs with different seeds never share an input.
    """
    return [
        (workload.spec_for(seed * variants + i, txn_count), sim_seed * variants + i)
        for i in range(variants)
    ]


def measure(workload: Workload, seed: int, sim_seed: int, seconds: float, trace: bool,
            txn_count: int = TXN_COUNT, variants: int = VARIANTS,
            min_cycles: int = MIN_CYCLES) -> List[Sample]:
    """A warm-up cell, then whole cycles over the inputs for about ``seconds``.

    Each cycle runs every input once, untraced; with ``trace`` each untraced
    cell is followed by a traced cell of the same input.
    """
    OUT_DIR.mkdir(exist_ok=True)
    cells = inputs(workload, seed, sim_seed, txn_count, variants)
    samples = [run_cell(workload, *cells[0])]
    start = time.perf_counter()
    cycles = 0
    while True:
        for variant, (spec, cell_seed) in enumerate(cells):
            samples.append(run_cell(workload, spec, cell_seed, variant))
            if trace:
                samples.append(run_cell(workload, spec, cell_seed, variant, traced=True, cell=len(samples)))
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and elapsed * (cycles + 1) / cycles > seconds:
            break
    mark_inexact(samples)
    return samples


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def summarize(samples: List[Sample]) -> Dict[str, float]:
    """Every metric of the run: medians over the timed (non-warm-up) cells."""
    timed = [s for s in samples[1:] if not s.traced]
    out = {
        "cell_s": median_of(s.cell_s for s in timed),
        "setup_s": median_of(s.setup_s for s in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    traced = [s for s in samples if s.traced and s.layers is not None]
    if traced:
        for key in traced[0].layers:
            out[key] = median_of(s.layers[key] for s in traced)
        out["trace.cell_s"] = median_of(s.cell_s for s in traced)
        out["trace.overhead_s"] = out["trace.cell_s"] - out["cell_s"]
    return out


def machine_info() -> Dict[str, object]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit} for name, unit in units},
    })


def run_digest(samples: List[Sample]) -> Tuple[str, Dict[int, str]]:
    """Per-input virtual digests, and the SHA-256 over them in input order."""
    per_input: Dict[int, str] = {}
    for sample in samples:
        if sample.counters:
            per_input.setdefault(sample.variant, sample.counters["virtual_digest"])
    joined = "".join(per_input[v] for v in sorted(per_input))
    return hashlib.sha256(joined.encode()).hexdigest(), per_input


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    sim_seed = args.seed if args.sim_seed is None else args.sim_seed
    cells = inputs(workload, args.seed, sim_seed, TXN_COUNT, VARIANTS)
    samples = measure(workload, args.seed, sim_seed, args.seconds, bool(args.trace))
    metrics = summarize(samples)
    failed = sum(1 for s in samples if s.failures)
    timed = sum(1 for s in samples[1:] if not s.traced)
    traced = [s for s in samples if s.traced]
    digest, per_input = run_digest(samples)
    stem = f"{workload.name}-seed{args.seed}-sim{sim_seed}-trace{args.trace}"
    info = machine_info()

    print(f"perfbench {workload.name}: seed={args.seed} sim_seed={sim_seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']} python={info['python']}")
    print(f"cells_failed {failed} / cells_attempted {len(samples)} "
          f"(1 warm-up, {timed} timed untraced, {len(traced)} traced)")
    for name, unit, _ in END_TO_END:
        note = f"  median of {timed} cells" if unit == "s" else ""
        print(f"{name:<12} {metrics[name]:.6f} {unit}{note}")
    print(f"virtual_digest {digest}")
    for variant, (spec, cell_seed) in enumerate(cells):
        print(f"  input {variant}: workload seed {spec.seed}, simulator seed {cell_seed}, "
              f"{spec.txn_count} txns, digest {per_input.get(variant, 'none')}")
    for i, sample in enumerate(samples):
        for failure in sample.failures:
            print(f"FAILED cell {i} (input {sample.variant}): {failure}")
    if traced:
        print(f"per-layer metrics, median of {len(traced)} traced cells:")
        for name, value in metrics.items():
            print(f"  {name:<32} {value:.6g}")
        for label, holds in workload.shape:
            print(f"shape {label}: {'holds' if holds(metrics) else 'does not hold'}")
        spans_path = OUT_DIR / f"spans-{workload.name}.tsv"  # one file per workload bounds disk use
        write_spans(spans_path, [s.spans for s in traced])
        print(f"spans: {spans_path.relative_to(ROOT)}")
    report = OUT_DIR / f"report-{stem}.json"
    report.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "sim_seed": sim_seed,
        "inputs": [{"workload_seed": spec.seed, "sim_seed": cell_seed, "txn_count": spec.txn_count,
                    "virtual_digest": per_input.get(v)} for v, (spec, cell_seed) in enumerate(cells)],
        "seconds": args.seconds, "trace": args.trace, "machine": info, "virtual_digest": digest,
        "metrics": metrics,
        "cells": [{"input": s.variant, "traced": s.traced, "cell_s": s.cell_s, "setup_s": s.setup_s,
                   "failures": s.failures} for s in samples],
    }, indent=1) + "\n")
    print(f"report: {report.relative_to(ROOT)}")
    units = [(n, u) for n, u, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(result_line(failed == 0, len(samples), failed, metrics, units))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own child process; a summary table at the end."""
    rows, attempted, failed, metrics, units = [], 0, 0, {}, []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.sim_seed is not None:
            cmd += ["--sim-seed", str(args.sim_seed)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result (exit {child.returncode})", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"] or int(child.returncode != 0)
        digest = next((ln.split()[1] for ln in lines if ln.startswith("virtual_digest ")), "none")
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units.append((f"{name}.{metric}", entry["unit"]))
        rows.append((name, result, digest))
    print()
    print(f"{'workload':<24} {'cell_s':>8} {'setup_s':>8} {'peak_rss_mb':>12} "
          f"{'failed/attempted':>17}  virtual_digest")
    for name, result, digest in rows:
        m = result["metrics"]
        cells = [f"{m[k]['value']:.4f}" if k in m else "-" for k in ("cell_s", "setup_s", "peak_rss_mb")]
        print(f"{name:<24} {cells[0]:>8} {cells[1]:>8} {cells[2]:>12} "
              f"{result['failed']:>8}/{result['attempted']:<8}  {digest}")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Host-time benchmark for txsim.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--sim-seed", type=int, default=None,
                        help="simulator seed passed to run_experiment (default: --seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time after warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
