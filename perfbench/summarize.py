"""Summarize the run records under .perfbench/results across seeds.

    python3 perfbench/summarize.py [--out perfbench/baseline.json]

It reads the full-size records only, not the smoke-size ones the
benchmark's tests leave.  For every workload and end-to-end metric it
prints the median over the untraced runs, the quartiles, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  A spread above a third of the
bound is marked UNSTEADY.  The set's median calibration time is compared
with the baseline's, and a set 15% slower is marked SLOW SET.  With
--out it also writes these figures, the traced runs' per-layer medians,
and the environment as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"
SLOW_SET_RATIO = 1.15


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write a baseline JSON file here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    known = json.loads(BASELINE.read_text())["workloads"] if BASELINE.exists() else {}
    records = [json.loads(p.read_text())
               for p in sorted((ROOT / ".perfbench" / "results").glob("*.json"))]
    records = [r for r in records if r["size"] == "full"]
    baseline: dict = {"environment": None, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in records if r["workload"] == workload]
        untraced = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        if not untraced:
            continue
        baseline["environment"] = untraced[0]["environment"]
        seeds = sorted(r["seed"] for r in untraced)
        failed = [r["seed"] for r in mine if not r["correct"]]
        print(f"{workload}: {len(untraced)} runs, seeds {seeds}, failed runs {failed}")
        calibration = statistics.median(
            t for r in untraced for t in r["calibration_s"].values())
        line = f"  calibration median {calibration:.4f} s"
        if workload in known:
            base = known[workload]["calibration_s"]
            line += f" (baseline {base:.4f} s)"
            if calibration > SLOW_SET_RATIO * base:
                line += "  SLOW SET: compare with care"
        print(line)
        entry = {"seeds": seeds, "failed_runs": failed, "calibration_s": calibration,
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in untraced
                           if name in r["metrics"]])
            flag = "" if s["spread"] < bound / 3 else "  UNSTEADY"
            print(f"  {name:<12} median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")
            entry["end_to_end"][name] = s
        if traced:
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced
                                        if name in r["metrics"])
                for name in traced[0]["metrics"]}
        baseline["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
