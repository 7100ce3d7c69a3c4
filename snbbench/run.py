"""The repository benchmark: LDBC SNB and Cypher workloads on GES_f*.

Usage, from the root of a checkout::

    python3 snbbench/run.py --workload snb-read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` runs fixed operation counts untraced and traced and
reports the per-layer metrics.  Every timing is normalized to host speed
(see ``hostprobe.py``); the raw figure and the probe are printed beside it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when the outputs checked equal the reference's and nothing leaked;
every process the run started has ended by then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"snbbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from hostprobe import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_timed(result: harness.RunResult) -> dict:
    normalized = harness.end_to_end(result)
    raw = harness.end_to_end(result, normalized=False)
    log = result.phases["timed"]
    probe = result.normalizer.probe_ms()
    print(
        f"{result.workload} seed {result.seed}: {log.ops} ops in {log.wall_s:.1f} s "
        f"measured, {result.phases['warmup'].ops} warm-up, {len(result.setup_raw_s)} opens"
    )
    print(
        f"host.probe_ms {probe:.4f} over {len(result.normalizer.samples)} probes "
        f"(reference {PROBE_REF_S * 1e3:.4f})"
    )
    for category, (n, beyond) in harness.class_counts(result).items():
        print(f"samples {category}: {n}, beyond p{harness.P_TAIL}: {beyond}")
    for name, value in normalized.items():
        kept = name in harness.END_TO_END_UNITS
        print(
            f"{name:<18} {value:12.4f} {harness.END_TO_END_UNITS.get(name, 'ms'):<4} "
            f"raw {raw[name]:12.4f}  host.probe_ms {probe:.4f}"
            + ("" if kept else "  (printed, not kept)")
        )
    return {name: _metric(normalized[name], unit) for name, unit in harness.END_TO_END_UNITS.items()}


def report_traced(result: harness.RunResult) -> dict:
    metrics = harness.per_layer(result)
    traced = result.phases["traced"]
    print(
        f"{result.workload} seed {result.seed}: traced {traced.ops} ops after "
        f"{result.phases['untraced'].ops} untraced and {result.phases['warmup'].ops} warm-up"
    )
    total = sum(ms for _, _, ms in harness.self_time_table(result))
    print(f"self time per op, traced: {total:.4f} ms (unattributed = span '{harness.ROOT}')")
    for name, calls, ms in harness.self_time_table(result):
        print(f"  {name:<24} {calls:>9} calls {ms:10.4f} ms/op {ms / total * 100:6.1f} %")
    for name, unit in harness.LAYER_UNITS.items():
        print(f"{name:<36} {metrics[name]:14.4f} {unit}")
    return {name: _metric(metrics[name], unit) for name, unit in harness.LAYER_UNITS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="GES repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One CPU for the benchmark, its pool workers and its child processes:
    # on a shared two-vCPU guest, wake-ups across vCPUs moved the pooled
    # workload's IS tail by a fifth between runs.  The pooled workload
    # therefore measures dispatch, export and IPC, not parallel speed-up.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    try:
        result = harness.run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT
        )
    finally:
        stray = harness.stop_child_processes()
    metrics = report_traced(result) if args.trace else report_timed(result)
    check = result.check
    print(
        f"output check: {check.replayed} sampled reads bag-equal to flat GES "
        f"({len(check.mismatches)} mismatches {check.mismatches[:5]}), "
        f"{check.updates_checked} acknowledged inserts visible "
        f"({len(check.updates_missing)} missing); "
        f"shm segments leaked: {len(result.leaked_segments)}; "
        f"child processes left running: {len(stray)}"
    )
    correct = result.correct and not stray
    if result.failed:
        print(f"failed operations: {result.failed_by_kind}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
