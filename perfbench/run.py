"""The gchom benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload table-cold-g6 --seed 1 --seconds 40 --trace 0

One client, one step at a time: every step is a fresh interpreter
(worker.py) that starts only after the previous one exited.  A run sets
up a few times, then repeats the workload; `--seconds` covers the whole
run, set-up included, and no step starts that would likely end past it.
It checks every output against published values and reference digests,
prints a human-readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (medians over the steps of
the run).  Their times are normalized: each step's wall time is scaled
by NOMINAL_REF_S / ref_s, where ref_s is the time of
calibration.run_once() in the same process, before and after the
timed work.
This host's speed drifts by tens of percent over minutes, and the ratio
cancels most of that drift.  The report also prints the raw seconds.

`--trace 1` alternates traced and untraced steps and reports the
per-layer metrics of spans.PER_LAYER; the traced steps' spans are
written under .perfbench/, and their exact counts must agree with each
other and with every earlier traced run of the same source and seed.
`--size smoke` runs the same workloads one loop order smaller, in
seconds, for the benchmark's own tests.  The exit code is nonzero when
any output check fails, and 2 when the checkout holds no gchom sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# name -> (worker kind, loop order at full size, at smoke size).  Full
# sizes are the largest whose step fits several times into one run.
WORKLOADS = {
    "table-cold-g6": ("table-cold", 6, 5),
    "table-warm-odd6": ("table-warm", 6, 5),
    "kneissler-g7": ("kneissler", 7, 6),
}
# the workload times each kind reports, summed into result_s
RESULT_TIMES = {
    "table-cold": ("table_s",),
    "table-warm": ("table_s", "estimate_s"),
    "kneissler": ("bound_s",),
}
# kinds whose set-up is only interpreter start and import, so that every
# step's own start-up is one more set-up sample
IMPORT_ONLY_SETUP = ("table-cold", "kneissler")
SETUPS_PER_RUN = 5
MIN_STEPS = 3
STEP_TIMEOUT_S = 150
CALIBRATION_PASSES = 3
NOMINAL_REF_S = 0.1  # normalized times read as seconds at this reference time
SLOW_RUN_RATIO = 1.25  # after/before calibration ratio that flags a run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gchom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    mem = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/meminfo").splitlines()
                if ln.startswith("MemTotal")), "")
    commit = ""
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
        "ram": mem,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
    }


def calibrate() -> float:
    return statistics.median(calibration.run_once() for _ in range(CALIBRATION_PASSES))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)  # hash-order dependence must fail a check
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def step(kind: str, loops: int, name: str, seed: int, cache: Path,
         trace_file: Path | None) -> dict:
    """Run one worker step to completion; errors are returned, not raised."""
    cmd = [sys.executable, str(WORKER), "--kind", kind, "--loops", str(loops),
           "--step", name, "--seed", str(seed), "--cache", str(cache)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{name} step timed out after {STEP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"errors": []}
    if proc.returncode != 0:
        out["errors"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    text = f"  {name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"
    if len(values) >= 20:  # the highest percentile with at least 10 samples beyond it
        pct = int(100 * (1 - 10 / len(values)))
        text += f"  p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return text


class Run:
    """One benchmark run: set-ups, repeated steps, checks, report."""

    def __init__(self, args):
        self.args = args
        self.kind, full, smoke = WORKLOADS[args.workload]
        self.loops = smoke if args.size == "smoke" else full
        self.work = ROOT / ".perfbench" / f"{args.workload}-{args.size}"
        self.results: list[dict] = []  # step outputs, with their labels below
        self.labels: list[str] = []
        self.fill = self.work / "fill"  # the cache the warm steps read

    def _record(self, label: str, out: dict) -> None:
        self.labels.append(label)
        self.results.append(out)
        for err in out["errors"]:
            print(f"  FAIL {label}: {err.strip()}", file=sys.stderr)

    def _fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setups(self) -> list[dict]:
        count = 1 if self.args.trace else SETUPS_PER_RUN
        for _ in range(count):
            self._record("setup", step(self.kind, self.loops, "setup", self.args.seed,
                                       self._fresh("fill"), None))
        return self.ok_steps("setup")

    def steps(self, deadline: float) -> None:
        k = 0
        longest = 0.0
        while True:
            traced = bool(self.args.trace) and k % 2 == 0
            cache = self._fresh("cold") if self.kind in IMPORT_ONLY_SETUP else self.fill
            trace_file = self.work / f"spans-{k}.json" if traced else None
            started = time.monotonic()
            self._record("traced" if traced else "run",
                         step(self.kind, self.loops, "run", self.args.seed, cache, trace_file))
            k += 1
            longest = max(longest, time.monotonic() - started)
            done = time.monotonic() + longest > deadline
            if done and self.labels.count("run") >= (1 if self.args.trace else MIN_STEPS) \
                    and self.labels.count("traced") >= (2 if self.args.trace else 0):
                return

    def ok_steps(self, label: str) -> list[dict]:
        return [r for lab, r in zip(self.labels, self.results)
                if lab == label and not r["errors"]]

    def result_s(self, out: dict) -> float:
        return sum(out["times"][t] for t in RESULT_TIMES[self.kind])

    def normalized(self, seconds: float, out: dict) -> float:
        return seconds * NOMINAL_REF_S / out["ref_s"]

    def overhead(self, traced: list[dict], runs: list[dict], seconds) -> float:
        """Traced minus untraced median of a normalized time."""
        return (statistics.median(self.normalized(seconds(r), r) for r in traced)
                - statistics.median(self.normalized(seconds(r), r) for r in runs))

    def check_exact(self) -> list[str]:
        """Exact counts must agree across traced steps and earlier traced runs."""
        counts = [r["exact"] for r in self.ok_steps("traced")]
        errors = [f"exact counts differ between traced steps: {c} != {counts[0]}"
                  for c in counts[1:] if c != counts[0]]
        if counts:
            store = ROOT / ".perfbench" / "counts" / (
                f"{self.args.workload}-{self.args.size}-seed{self.args.seed}"
                f"-src{source_digest()}.json")
            if store.exists():
                earlier = json.loads(store.read_text())
                if earlier != counts[0]:
                    errors.append(f"exact counts differ from an earlier traced run: "
                                  f"{counts[0]} != {earlier}")
            else:
                store.parent.mkdir(parents=True, exist_ok=True)
                store.write_text(json.dumps(counts[0], indent=1, sort_keys=True))
        return errors

    def execute(self) -> int:
        deadline = time.monotonic() + self.args.seconds
        env = environment()
        before = calibrate()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        setups = self.setups()
        if len(setups) == len(self.labels):
            self.steps(deadline)
        after = calibrate()
        errors = self.check_exact() if self.args.trace else []
        for err in errors:
            print(f"  FAIL exact counts: {err}", file=sys.stderr)

        attempted = len(self.results)
        failed = sum(1 for r in self.results if r["errors"])
        correct = failed == 0 and not errors
        runs = self.ok_steps("run")
        if self.kind in IMPORT_ONLY_SETUP:
            setups += runs
        slow = after / before > SLOW_RUN_RATIO
        print(f"workload {self.args.workload} (g={self.loops}, {self.args.size}) "
              f"seed {self.args.seed} trace {self.args.trace}")
        print(f"  environment {json.dumps(env)}")
        print(f"  calibration before {before:.4f} s after {after:.4f} s"
              + ("  SLOW RUN: the machine slowed during the run" if slow else ""))
        names = RESULT_TIMES[self.kind]
        for name in names:
            if runs:
                print(describe(name, [r["times"][name] for r in runs], "s"))
        if runs:
            print(describe("ref_s", [r["ref_s"] for r in runs], "s"))
            print(describe("result_s", [self.normalized(self.result_s(r), r) for r in runs],
                           "s (normalized)"))
            print(describe("peak_rss_mb", [r["peak_rss_mb"] for r in runs], "MB"))
        if setups:
            print(describe("setup raw", [r["setup_s"] for r in setups], "s"))
            print(describe("setup_s", [self.normalized(r["setup_s"], r) for r in setups],
                           "s (normalized)"))
        print(f"  fail_ratio   {failed / attempted:.4f} ({failed}/{attempted} steps)")

        metrics = {}
        if self.args.trace:
            traced = self.ok_steps("traced")
            if traced and runs:
                from spans import PER_LAYER

                units = {name: unit for name, unit, _ in PER_LAYER}
                for name in traced[0]["layers"]:
                    value = statistics.median(r["layers"][name] for r in traced)
                    metrics[name] = {"value": float(value), "unit": units[name]}
                for name in names:
                    over = self.overhead(traced, runs, lambda r: r["times"][name])
                    print(f"  tracing overhead on {name}: {over:+.4f} s (normalized)")
                over = self.overhead(traced, runs, self.result_s)
                metrics["trace.overhead_s"] = {"value": over, "unit": "s"}
        elif runs and setups:
            result = statistics.median(self.normalized(self.result_s(r), r) for r in runs)
            setup = statistics.median(self.normalized(r["setup_s"], r) for r in setups)
            metrics = {
                "result_s": {"value": result, "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                                "unit": "MB"},
                "setup_s": {"value": setup, "unit": "s"},
            }
        record = {"workload": self.args.workload, "size": self.args.size,
                  "seed": self.args.seed, "trace": self.args.trace, "loops": self.loops,
                  "environment": env, "calibration_s": {"before": before, "after": after},
                  "steps": [{"label": lab, **r} for lab, r in zip(self.labels, self.results)],
                  "metrics": metrics, "correct": correct}
        results = ROOT / ".perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{self.args.workload}-{self.args.size}-seed{self.args.seed}"
                   f"-trace{self.args.trace}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gchom benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="sets the Wiedemann seed")
    parser.add_argument("--seconds", type=float, default=40,
                        help="length of the whole run, set-up included")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gchom" / "__init__.py").is_file():
        print(f"no gchom sources under {ROOT / 'src'}; run from a gchom checkout",
              file=sys.stderr)
        return 2
    return Run(args).execute()


if __name__ == "__main__":
    sys.exit(main())
