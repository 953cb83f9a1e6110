"""One benchmark repeat, run in a fresh process.

Does what `lrchain <verify|identities|disorder> --config CONFIG --out PREFIX`
does, with timers around its two phases:

* set-up: import the package and load the model/config files;
* wall: the entry call, then rendering and writing PREFIX.csv / PREFIX.json.

Prints one JSON object with the phase times and the process's CPU time and
peak memory.  `--mode setup` stops after set-up; `--mode trace` also wraps
lrchain's layers in spans and adds the per-span aggregates.

    PYTHONPATH=src python3 perfbench/child.py --kind disorder \
        --config work/config.json --out work/report --threads 1 --mode run
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _disorder_entry(cfg, threads: int, prefix: str) -> None:
    # what the `disorder` subcommand does after loading its config
    from lrchain.disorder import monte_carlo_sweep

    start = time.perf_counter()
    report = monte_carlo_sweep(cfg, threads=threads)
    wall_ms = (time.perf_counter() - start) * 1e3
    with open(prefix + ".csv", "w") as fh:
        fh.write(report.to_csv())
    with open(prefix + ".json", "w") as fh:
        fh.write(report.to_json(wall_ms))


def run(kind: str, config: str, out: str, threads: int, mode: str, start: float | None = None) -> dict:
    """Set up and (unless mode == "setup") run one repeat; returns its figures."""
    start = time.perf_counter() if start is None else start
    from lrchain import disorder, harness

    rec = undo = None
    if mode == "trace":
        from spans import SpanRecorder, install

        rec = SpanRecorder()
        undo = install(rec)
    if kind == "disorder":
        cfg = disorder.DisorderConfig.from_json(config)
    else:
        cfg = harness.ExperimentConfig.from_json(config)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if mode != "setup":
        wall_start = time.perf_counter()
        if rec is not None:
            rec.open("harness.entry")
        try:
            if kind == "verify":
                harness.run_verify(cfg, threads=threads)
            elif kind == "identities":
                harness.run_identities(cfg)
            else:
                _disorder_entry(cfg, threads, out)
        finally:
            if rec is not None:
                rec.close()
        result["wall_s"] = time.perf_counter() - wall_start
    if rec is not None:
        from spans import uninstall

        uninstall(undo)
        result["spans"] = rec.snapshot()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=("verify", "identities", "disorder"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="report prefix (disorder; the others read it from the config)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = run(args.kind, args.config, args.out, args.threads, args.mode, start=_START)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
