"""Benchmark of bosefluct: run one workload for a fixed time and report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite|qsweep|oracle --seed N \
        --seconds S --trace 0|1

Every pass of a workload runs in a fresh child process (``child.py``), one
after another, until a pass of typical length would end after
``--seconds``; at least one pass always runs. With ``--trace 0`` the run reports the
end-to-end metrics over those passes. With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead. Output gates run outside the
timed region; a failed gate counts in ``failed`` and never stops the run.
The last line of standard output is the JSON result; a run record with
the environment and every sample goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_ONLY_SPAWNS = 2      # extra set-up samples per run, besides one per pass
RUN_DEADLINE_S = 170.0     # every child is stopped before the run passes this
MB = 1024.0                # ru_maxrss is in KiB on Linux
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bosefluct" / "__init__.py").is_file():
        print("error: run from the root of a bosefluct checkout (src/bosefluct missing)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    started = time.monotonic()
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, root, work, started)

    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_ONLY_SPAWNS)]
    passes = []
    clock = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced, gate=not passes))
        elapsed = time.monotonic() - clock
        typical = statistics.median(p["duration_s"] - p.get("gate_s", 0.0) for p in passes)
        done = len(passes) >= (2 if args.trace else 1)
        if done and elapsed + typical > args.seconds:
            break
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    samples = {name: [p[name] for p in untraced] for name in END_TO_END}
    samples["setup_s"] += setups
    if args.trace:
        metrics = layer_metrics(passes)
        kind = "per_layer"
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with BENCHMARK.json {kind}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": git_commit(root), "nproc": os.cpu_count(),
        "environment": passes[0].get("environment"),
        "attempted": attempted, "failed": failed,
        "failures": [p["failures"] for p in passes],
        "samples": samples, "passes": [{k: v for k, v in p.items() if k != "failures"}
                                       for p in passes],
        "metrics": metrics,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  set-up samples {len(samples['setup_s'])}  "
          f"record {work.relative_to(root) / 'record.json'}")
    print(report(samples, attempted, failed) if not args.trace else
          "\n".join(f"{name:<40} {units[name]:<6} {value:.6g}"
                    for name, value in sorted(metrics.items())))
    for n, p in enumerate(passes):
        for item, reasons in enumerate(p["failures"]):
            if reasons:
                print(f"pass {n} item {item}: {'; '.join(reasons)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


class Runner:
    """Starts child processes one at a time and gates what they return."""

    def __init__(self, workload: str, seed: int, root: Path, work: Path, started: float):
        self.workload, self.seed = workload, seed
        self.root, self.work, self.started = root, work, started
        self.count = 0
        self.first = None       # outputs of the first pass, which later passes must repeat
        self.first_gate = {}    # the independent routes computed after the first pass

    def spawn(self, mode: str, gate: bool = False) -> dict:
        self.count += 1
        out = self.work / f"{self.count:03d}-{mode}"
        out.mkdir()
        result = out / "result.json"
        with open(self.work / "child.log", "ab") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
                 "--seed", str(self.seed), "--spawned", repr(spawned), "--work", str(out),
                 "--result", str(result), "--mode", mode, "--gate", str(int(gate))],
                cwd=self.root, stdout=log, stderr=log)
            status, usage = self._wait(proc)
        if status != 0 or not result.is_file():
            raise RuntimeError(f"{mode} child exited with status {status}; "
                               f"see {self.work / 'child.log'}")
        data = json.loads(result.read_text())
        data["duration_s"] = time.monotonic() - spawned
        data["peak_rss_mb"] = usage.ru_maxrss / MB
        data["dir"] = out
        return data

    def _wait(self, proc):
        """Block until ``proc`` ends and return its status and resource usage.

        A timer kills the child at the run deadline; the parent does not
        poll, so it takes no CPU time from the child while it waits.
        """
        timer = threading.Timer(RUN_DEADLINE_S - (time.monotonic() - self.started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def run_pass(self, traced: bool, gate: bool) -> dict:
        data = self.spawn("traced" if traced else "pass", gate)
        outputs = data.pop("outputs")
        if gate:
            self.first_gate = data.pop("gate")
        if self.workload == "suite":
            checks = workloads.reference_checks()
            failures = workloads.gate_suite(outputs["exit_code"], data["dir"] / "tables", checks)
        elif self.workload == "qsweep":
            failures = workloads.gate_qsweep(outputs, self.first_gate, self.first)
        else:
            failures = workloads.gate_oracle(outputs, self.first_gate, self.first)
        if self.first is None:
            self.first = outputs
        shutil.rmtree(data.pop("dir") / "tables", ignore_errors=True)
        data.update(traced=traced, failures=failures, attempted=len(failures),
                    failed=sum(1 for reasons in failures if reasons))
        return data


def layer_metrics(passes) -> dict:
    """Medians of the traced passes' layer metrics, plus tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    out["trace_overhead_s"] = out["trace.wall_s"] - statistics.median(p["wall_s"] for p in plain)
    out["trace.spans"] = statistics.median(p["spans"] for p in traced)
    return out


def report(samples: dict, attempted: int, failed: int) -> str:
    lines = [f"{'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}"]
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        lines.append(f"{name:<12} {END_TO_END[name]:<5} {statistics.median(values):>10.4f} "
                     f"{q1:>10.4f} {q3:>10.4f} {len(values):>3}")
    lines.append(f"{'fail_ratio':<12} {'1':<5} {failed / attempted:>10.4f} "
                 f"{'':>10} {'':>10} {attempted:>3}  ({failed} of {attempted} items failed)")
    return "\n".join(lines)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
