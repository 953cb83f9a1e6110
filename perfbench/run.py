"""lrchain benchmark: seeded workloads through the public API, checked and timed.

    python3 perfbench/run.py --workload verify-L4 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

`--workload all` runs the four workloads in turn and prints one result line
each, tagged with its workload name.  BENCHMARK.json lists three of them;
`disorder-L3` is the unlisted threads=1 control (see workloads.UNLISTED).

Run from the root of a source checkout (the package is imported from
`src/`).  The seed makes the workload's model/config files; each repeat is a
fresh `python3 perfbench/child.py` process that imports lrchain, loads those
files, runs the entry call and writes the CSV/JSON report.  One untimed
set-up process warms the page cache first; timed repeats then continue while
the next one fits into `--seconds`, with at least MIN_REPEATS.

After timing, outside the timed region, the first report is recomputed by
the independent routes in oracle.py, every later report must equal it byte
for byte, and a workload run with threads > 1 must also equal a threads=1
run of the same seed.  A unit (grid point, identity check or realization)
fails when the oracle disagrees or its CSV line differs.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones:

* wall_s      median entry call plus report render/write, seconds;
* setup_s     median import plus config/model load over SETUP_SAMPLES processes;
* cpu_s       median user + sys CPU time of a repeat process;
* peak_rss_mb median peak resident memory of a repeat process;
* pass_frac   1 - failed / attempted units.

With `--trace 1` untraced and traced repeats alternate and the metrics are
the per-layer span aggregates (see spans.py and README.md).  The line before
the results is the machine block.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from machine import machine_block  # noqa: E402
from oracle import check  # noqa: E402
from spans import FUNCTIONS, METHODS  # noqa: E402
from workloads import workloads, write_inputs  # noqa: E402

MIN_REPEATS = 3
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "pass_frac": "1"}
SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS) + ("harness.entry",)


def per_layer_names() -> list:
    names = [f"{span}.{stat}" for span in SPAN_NAMES for stat in ("calls", "self_s", "total_s")]
    return names + ["serialize.render.bytes", "disorder.pool.busy_ratio", "trace.overhead_frac"]


class BenchError(RuntimeError):
    """The program under test could not run a workload."""


def _child(root: str, workload, config: str, out: str, threads: int, mode: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--kind", workload.kind, "--config", config, "--out", out,
        "--threads", str(threads), "--mode", mode,
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name} {mode} repeat exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload.name} {mode} repeat exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _line_failures(reference: str, other: str, units: int) -> set:
    """Units whose CSV lines differ between two reports of the same inputs."""
    ref, got = reference.splitlines()[1:], other.splitlines()[1:]
    per_unit = max(len(ref) // max(units, 1), 1)
    if len(ref) != len(got) or reference.splitlines()[:1] != other.splitlines()[:1]:
        return set(range(units))
    return {i // per_unit for i, (a, b) in enumerate(zip(ref, got)) if a != b}


def measure(root: str, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result object, list of failure messages)."""
    workload = workloads()[name]
    workdir = os.path.join(root, WORK_DIR, f"{name}-{seed}-{os.getpid()}")
    try:
        config = write_inputs(workload, seed, workdir)
        out = os.path.join(workdir, "report")
        runs, csvs, setups = [], [], []
        first_json = None
        # warm-up, untimed: loads the interpreter, numpy, scipy and lrchain into the page cache
        _child(root, workload, config, out, workload.threads, "setup")
        deadline = time.perf_counter() + seconds
        durations = []
        while True:
            mode = "trace" if trace and len(runs) % 2 == 1 else "run"
            start = time.perf_counter()
            result = _child(root, workload, config, out, workload.threads, mode)
            durations.append(time.perf_counter() - start)
            result["mode"] = mode
            runs.append(result)
            setups.append(result["setup_s"])
            csvs.append(_read(out + ".csv"))
            if first_json is None:
                first_json = _read(out + ".json")
            if len(runs) >= MIN_REPEATS and time.perf_counter() + statistics.median(durations) > deadline:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(_child(root, workload, config, out, workload.threads, "setup")["setup_s"])

        # correctness gate, outside the timed region
        units, oracle_failures = check(workload.kind, workdir, csvs[0], first_json)
        messages = [msg for _, msg in oracle_failures]
        bad_everywhere = {i for i, _ in oracle_failures}
        if any(i < 0 for i in bad_everywhere):  # a report-wide defect fails every unit
            bad_everywhere = set(range(units))
        if workload.threads > 1:
            _child(root, workload, config, out, 1, "run")
            single = _line_failures(csvs[0], _read(out + ".csv"), units)
            if single:
                messages.append(f"threads={workload.threads} CSV differs from threads=1 in units {sorted(single)}")
            bad_everywhere |= single
        failed = 0
        for k, text in enumerate(csvs):
            differs = _line_failures(csvs[0], text, units)
            if differs:
                messages.append(f"repeat {k} CSV differs from repeat 0 in units {sorted(differs)}")
            failed += len(bad_everywhere | differs)
        attempted = units * len(runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    if trace:
        metrics = _per_layer(runs, workload.threads)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "pass_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, messages


def _per_layer(runs: list, threads: int) -> dict:
    traced = [r for r in runs if r["mode"] == "trace"]
    plain = [r for r in runs if r["mode"] == "run"]
    out = {}
    for span in SPAN_NAMES:
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            values = [r["spans"].get(span, {}).get(stat, 0) for r in traced]
            out[f"{span}.{stat}"] = {"value": statistics.median(values), "unit": unit}
    rendered = [r["spans"]["counters"].get("serialize.render.bytes", 0) for r in traced]
    out["serialize.render.bytes"] = {"value": statistics.median(rendered), "unit": "B"}
    busy = [
        r["spans"].get("disorder.realization", {}).get("total_s", 0.0) / (threads * r["wall_s"]) for r in traced
    ]
    out["disorder.pool.busy_ratio"] = {"value": statistics.median(busy), "unit": "1"}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1.0, "unit": "1"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lrchain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads()) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lrchain", "__init__.py")):
        print("perfbench: no lrchain source tree at ./src/lrchain; run from a source checkout", file=sys.stderr)
        return 2
    names = list(workloads()) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            result, messages = measure(root, name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for msg in messages:
            print(f"perfbench: FAILED {name}: {msg}", file=sys.stderr)
        lines.append(json.dumps(result if len(names) == 1 else {"workload": name, **result}))
    print(json.dumps({"machine": machine_block(), "workloads": names, "seed": args.seed}))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
