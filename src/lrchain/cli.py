"""Command-line front end.

Subcommands:

* ``constants``  - derived bound constants per decay rate, as a CSV table;
* ``verify``     - exact-vs-bound sweep over a time grid (config-driven);
* ``identities`` - residuals of the algebraic identities behind the bounds;
* ``disorder``   - Monte Carlo sweep over random heavy-tailed field chains.

Exit codes: 0 on success, 1 when a bound is violated or an identity check
fails, 2 for configuration problems.  With ``--out PREFIX`` each subcommand
writes ``PREFIX.csv`` (canonical, byte-stable) and ``PREFIX.json`` (mirror
with config echo and timings); without it the CSV goes to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .bounds import ConvergenceError
from .disorder import DisorderConfig, monte_carlo_sweep
from .harness import (
    CONSTANTS_CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    constants_rows,
    run_identities,
    run_verify,
    write_report,
)
from .model import ModelFormatError
from .serialize import INTEGER, NUMBER, NUMBERS, read_field, read_json_object, render_csv, render_json

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrchain",
        description="Finite spin-chain commutator bounds: exact dynamics vs analytic constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every subcommand, and those plus the run flags of verify, identities and disorder
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", metavar="PATH", help="JSON configuration file")
    files.add_argument("--out", metavar="PREFIX", help="write PREFIX.csv and PREFIX.json instead of stdout")
    run = argparse.ArgumentParser(add_help=False, parents=[files])
    run.add_argument("--seed", metavar="U64", type=int, help="override the configured seed")
    run.add_argument(
        "--threads", metavar="N", type=int, default=1, help="accepted for compatibility and ignored; runs are serial"
    )

    p_const = sub.add_parser(
        "constants",
        parents=[files],
        help="tabulate derived constants (c_mu, K_mu, C0, v, ...) per decay rate",
    )
    p_const.add_argument("--mu", metavar="LIST", help="comma-separated decay rates (overrides config)")
    p_const.add_argument("--phi-norm", metavar="X", type=float, help="interaction strength (overrides config)")
    p_const.add_argument("--local-dim", metavar="D", type=int, help="on-site dimension (overrides config)")
    p_const.add_argument("--radius", metavar="R", type=int, help="lattice-sum radius (default: adaptive)")

    sub.add_parser("verify", parents=[run], help="sweep a time grid: exact commutator norms vs bounds")
    sub.add_parser("identities", parents=[run], help="replay the algebraic identities and report residuals")
    sub.add_parser("disorder", parents=[run], help="Monte Carlo sweep over random sparse-field chains")
    return parser


def _check_seed(seed) -> int | None:
    if seed is None:
        return None
    if not 0 <= seed < (1 << 64):
        raise ConfigError(f"--seed must fit in 64 bits, got {seed}")
    return int(seed)


def _check_threads(threads: int) -> int:
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    return threads


def _emit(out, csv_text: str | None, summary) -> None:
    """With an output prefix `out`, name the two files written there and print the summary;
    without one, print `csv_text`, and the summary to stderr."""
    if out:
        print(f"wrote {out}.csv and {out}.json")
    else:
        sys.stdout.write(csv_text)
    for line in summary:
        print(line, file=sys.stdout if out else sys.stderr)


def _cmd_constants(args) -> int:
    doc = read_json_object(args.config, ConfigError, ("mu", "phi_norm", "D", "radius")) if args.config else {}
    mus = read_field(doc, "mu", NUMBERS if isinstance(doc.get("mu"), list) else NUMBER, args.config, ConfigError, None)
    phi_norm = read_field(doc, "phi_norm", NUMBER, args.config, ConfigError, None)
    local_dim = read_field(doc, "D", INTEGER, args.config, ConfigError, None)
    radius = read_field(doc, "radius", INTEGER, args.config, ConfigError, None)
    if args.mu is not None:
        try:
            mus = [float(s) for s in args.mu.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"--mu: {exc}") from exc
    if isinstance(mus, float):
        mus = [mus]
    if not mus:
        raise ConfigError("constants needs decay rates: --mu or a config with a 'mu' list")
    phi_norm = args.phi_norm if args.phi_norm is not None else phi_norm
    if phi_norm is None:
        raise ConfigError("constants needs --phi-norm or a config with 'phi_norm'")
    local_dim = args.local_dim if args.local_dim is not None else local_dim
    if local_dim is None:
        raise ConfigError("constants needs --local-dim or a config with 'D'")
    radius = args.radius if args.radius is not None else radius

    try:
        rows = constants_rows(mus, phi_norm, local_dim, radius)
    except (ValueError, ConvergenceError) as exc:
        if not args.config:
            raise
        raise ConfigError(f"{args.config}: {exc}") from exc
    csv_text = render_csv(CONSTANTS_CSV_HEADER, rows)
    if args.out:
        json_doc = {
            "config": {"mu": mus, "phi_norm": phi_norm, "D": local_dim, "radius": radius},
            "header": list(CONSTANTS_CSV_HEADER),
            "rows": [list(r) for r in rows],
        }
        write_report(args.out, csv_text, render_json(json_doc))
    _emit(args.out, csv_text, ())
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this subcommand needs --config pointing at an experiment JSON file")
    cfg = ExperimentConfig.from_json(args.config)
    seed = _check_seed(args.seed)
    if args.out or seed is not None:
        cfg = dataclasses.replace(cfg, out=args.out or cfg.out, seed=seed if seed is not None else cfg.seed)
    return cfg


def _cmd_verify(args) -> int:
    cfg = _experiment_config(args)
    report = run_verify(cfg, threads=_check_threads(args.threads))
    _emit(cfg.out, None if cfg.out else report.to_csv(), report.summary_lines())
    if not report.ok:
        for line in report.diagnostic_dump():
            print(line, file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_identities(args) -> int:
    cfg = _experiment_config(args)
    report = run_identities(cfg)
    _emit(cfg.out, None if cfg.out else report.to_csv(), report.summary_lines())
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_disorder(args) -> int:
    if not args.config:
        raise ConfigError("disorder needs --config pointing at a sweep JSON file")
    try:
        cfg = DisorderConfig.from_json(args.config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seed = _check_seed(args.seed)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    start = time.perf_counter()
    report = monte_carlo_sweep(cfg, threads=_check_threads(args.threads))
    wall_ms = (time.perf_counter() - start) * 1e3
    csv_text = report.to_csv()
    if args.out:
        write_report(args.out, csv_text, report.to_json(wall_ms))
    _emit(args.out, csv_text, report.summary_lines())
    return EXIT_FAILURE if report.violation_count else EXIT_OK


_COMMANDS = {
    "constants": _cmd_constants,
    "verify": _cmd_verify,
    "identities": _cmd_identities,
    "disorder": _cmd_disorder,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
