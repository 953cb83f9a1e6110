"""Experiment orchestration: config files, verification sweeps, identity batches.

Two entry points tie the library together:

* ``run_verify`` sweeps a time grid, computing the exact evolved-commutator
  norm for a pair of observables on a model chain and every requested
  analytic bound, and tabulates values, applicability, and violations.
* ``run_identities`` replays the algebraic identities behind the
  impurity-improved bound (decoupled blocking, commuting split, off-diagonal
  block decomposition, phase conjugation, interpolant endpoint and
  derivative, and the local-commutator approximation inequality) on a
  concrete model and reports measured residuals against fixed thresholds.

Reports are written as CSV (canonical, byte-stable across reruns) plus a
JSON mirror carrying the config echo and wall-clock timings.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundOutcome,
    LRParameters,
    apriori_bound,
    derivative_bound_constant,
    exceeds,
    main_bound,
    main_constant,
    single_impurity_bound,
    uniform_impurity_bound,
)
from .dynamics import (
    DecoupledDynamics,
    commutator_norm_table,
    connected_components,
    projection_commutator_norm,
)
from .geometry import ChainGeometry, SiteSupport, SupportError
from .model import (
    ImpuritySpec,
    NNInteraction,
    build_nn_hamiltonian,
    build_perturbed_hamiltonian,
    decoupled_split,
    impurity_window,
    load_model,
)
from .operators import (
    DenseOperator,
    commutator,
    conditional_expectation,
    epsilon_unitaries,
    operator_norm,
)
from .serialize import (
    INTEGER,
    NUMBER,
    NUMBERS,
    PATH,
    STRING,
    JsonKind,
    check_keys,
    fmt_float,
    fmt_path,
    read_field,
    read_json_object,
    read_matrix,
    record_fields,
    render_csv,
    render_json,
)

IDENTITY_TOL = 1e-9
FD_REL_TOL = 1e-6
RICHARDSON_REL_TOL = 1e-5
EPSILON_MAX_DIM = 256

DEFAULT_BOUNDS = ("apriori", "main")
BOUND_NAMES = JsonKind("a list of bound names", (list,), STRING)


class ConfigError(ValueError):
    """An experiment configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class ObservableSpec:
    """A single-site observable: the site index plus a local matrix."""

    site: int
    matrix: np.ndarray
    label: str

    @classmethod
    def from_json(cls, node, local_dim: int, where: str) -> ObservableSpec:
        check_keys(node, where, ConfigError, ("site", "op"))
        site = read_field(node, "site", INTEGER, where, ConfigError)
        if "op" not in node:
            raise ConfigError(f"{where}: missing 'op' (a named Pauli or an inline matrix)")
        op = node["op"]
        matrix = read_matrix(op, local_dim, fmt_path(where, "op"), ConfigError)
        label = op if isinstance(op, str) else "matrix"
        return cls(site, matrix, label)

    def operator(self) -> DenseOperator:
        return DenseOperator.single_site(self.site, self.matrix)

    @property
    def support(self) -> SiteSupport:
        return SiteSupport.single(self.site)

    def norm(self) -> float:
        return operator_norm(self.matrix)

    def echo(self) -> dict:
        if self.label != "matrix":
            return {"site": self.site, "op": self.label}
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix]
        return {"site": self.site, "op": rows}


# eq=False: the observables hold numpy arrays, so configs compare by identity
@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A verification or identity run: model, decay rate, observables, times.

    Construct directly from a loaded model for programmatic use, or with
    ``from_json`` from a config file whose `model` key names a model file
    (resolved relative to the config's own directory).  Frozen: derive a
    variant with ``dataclasses.replace``, which validates again.
    """

    geom: ChainGeometry
    phi: NNInteraction
    imp: ImpuritySpec
    mu: float
    observable_a: ObservableSpec
    observable_b: ObservableSpec
    t_grid: tuple
    bound_set: tuple = DEFAULT_BOUNDS
    model_path: str | None = None
    out: str | None = None
    seed: int | None = None

    def __post_init__(self):
        geom = self.geom
        if not math.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu}")
        if self.mu <= 0:
            raise ConfigError(f"mu must be positive, got {self.mu}")
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise ConfigError("t_grid must be nonempty")
        if not all(math.isfinite(t) for t in grid):
            raise ConfigError(f"t_grid entries must be finite, got {list(grid)}")
        for name, obs in (("observable_a", self.observable_a), ("observable_b", self.observable_b)):
            try:
                geom.check_site(obs.site)
            except SupportError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
            if obs.matrix.shape != (geom.local_dim, geom.local_dim):
                raise ConfigError(
                    f"{name}: matrix shape {obs.matrix.shape} does not match local dimension {geom.local_dim}"
                )
        seen = []
        for name in self.bound_set:
            if name == "double_commutator":
                raise ConfigError(
                    "the double-commutator bound takes a third observable and a second time, which "
                    "verify records have no field for; use the identities suite or the bounds API"
                )
            if name not in BOUNDS:
                raise ConfigError(f"unknown bound name {name!r}; known: {list(BOUNDS)}")
            if name not in seen:
                seen.append(name)
        if not seen:
            raise ConfigError("bound set must name at least one bound")
        if self.seed is not None and not 0 <= int(self.seed) < 1 << 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "bound_set", tuple(n for n in BOUNDS if n in seen))
        object.__setattr__(self, "seed", None if self.seed is None else int(self.seed))

    @classmethod
    def from_json(cls, path) -> ExperimentConfig:
        path = str(path)
        required = ("model", "mu", "observable_a", "observable_b", "t_grid")
        doc = read_json_object(path, ConfigError, required + ("bounds", "out", "seed"), required)
        base = os.path.dirname(os.path.abspath(path))  # relative paths start here; join keeps absolute ones
        model_path = os.path.join(base, read_field(doc, "model", PATH, path, ConfigError))
        geom, phi, imp = load_model(model_path)
        out = read_field(doc, "out", PATH, path, ConfigError, None)
        fields = dict(
            geom=geom,
            phi=phi,
            imp=imp,
            mu=read_field(doc, "mu", NUMBER, path, ConfigError),
            observable_a=ObservableSpec.from_json(doc["observable_a"], geom.local_dim, fmt_path(path, "observable_a")),
            observable_b=ObservableSpec.from_json(doc["observable_b"], geom.local_dim, fmt_path(path, "observable_b")),
            t_grid=read_field(doc, "t_grid", NUMBERS, path, ConfigError),
            bound_set=tuple(read_field(doc, "bounds", BOUND_NAMES, path, ConfigError, DEFAULT_BOUNDS)),
            model_path=model_path,
            out=None if out is None else os.path.join(base, out),
            seed=read_field(doc, "seed", INTEGER, path, ConfigError, None),
        )
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def echo(self) -> dict:
        return {
            "model": self.model_path,
            "chain": {
                "half_length": self.geom.half_length,
                "local_dim": self.geom.local_dim,
                "impurity_sites": [int(x) for x in self.imp.sites],
                "couplings": {str(x): float(self.imp.coupling(x)) for x in self.imp.sites},
                "interaction_strength": self.phi.strength,
            },
            "mu": self.mu,
            "observable_a": self.observable_a.echo(),
            "observable_b": self.observable_b.echo(),
            "t_grid": list(self.t_grid),
            "bounds": list(self.bound_set),
            "out": self.out,
            "seed": self.seed,
        }

    def parameters(self) -> LRParameters:
        return LRParameters.compute(self.mu, self.phi.strength)


# ---------------------------------------------------------------------------
# verification sweep

@dataclass(frozen=True)
class ExperimentRecord:
    """One grid point: exact commutator norm against every requested bound."""

    t: float
    distance: int
    window_size: int
    exact_norm: float
    bounds: dict  # bound name -> BoundOutcome, in the order of `BOUNDS`
    wall_time_ms: float  # evaluating the bounds at this grid point

    def violations(self) -> list:
        return [
            f"t = {fmt_float(self.t)}: exact norm {fmt_float(self.exact_norm)} exceeds "
            f"{name} bound {fmt_float(outcome.value)}"
            for name, outcome in self.bounds.items()
            if outcome.applicable and exceeds(self.exact_norm, outcome.value)
        ]


def _apriori(params, local_dim, support_a, support_b, imp, t, scale) -> BoundOutcome:
    return BoundOutcome(apriori_bound(params, t, support_a.distance(support_b), scale), True)


def _best_single_impurity(params, local_dim, support_a, support_b, imp, t, scale) -> BoundOutcome:
    if imp.is_empty():
        return BoundOutcome.not_applicable("model has no impurities")
    window = impurity_window(support_a, support_b, imp)
    if not window:
        return BoundOutcome.not_applicable(
            f"no impurity site in the window [{support_a.hi + 3}, {support_b.lo - 3}]"
        )
    outcomes = [
        single_impurity_bound(params, local_dim, support_a, support_b, imp, site, t, scale)
        for site in window
    ]
    applicable = [o for o in outcomes if o.applicable]
    if not applicable:
        return outcomes[0]
    return min(applicable, key=lambda o: o.value)


# bound name -> evaluator (params, local_dim, support_a, support_b, imp, t, scale), in CSV column order.
# The lambdas look main_bound and uniform_impurity_bound up when called, so a timing wrapper set on
# this module's attributes (perfbench/spans.py) sees those calls too.
BOUNDS = {
    "apriori": _apriori,
    "main": lambda *args: main_bound(*args),
    "corollary": lambda *args: uniform_impurity_bound(*args),
    "single_impurity": _best_single_impurity,
}


def _evaluate_bounds(cfg: ExperimentConfig, params: LRParameters, t: float, scale: float) -> dict:
    sa, sb = cfg.observable_a.support, cfg.observable_b.support
    return {name: BOUNDS[name](params, cfg.geom.local_dim, sa, sb, cfg.imp, t, scale) for name in cfg.bound_set}


@dataclass(frozen=True)
class VerifyReport:
    """Everything a verification sweep produced, ready to serialize."""

    config: dict
    parameters: LRParameters
    bound_set: tuple
    records: tuple
    spectral_blocks: tuple  # sizes of the connected components of H != 0
    reconstruction_residual: float  # ||U diag(w) U^dag - H||_F / ||H||_F of the eigendecomposition
    exact_norms_ms: float  # wall time of the exact norms of the whole grid

    @property
    def improvement_points(self) -> tuple:
        return find_improvement_points(self.records)

    @property
    def violations(self) -> tuple:
        """One message per applicable bound that a record's exact norm exceeds."""
        return tuple(msg for r in self.records for msg in r.violations())

    @property
    def ok(self) -> bool:
        return not self.violations

    def csv_header(self) -> tuple:
        cols = ["t", "dAB", "N", "exact_norm"]
        for name in self.bound_set:
            cols.append(name)
            if name != "apriori":
                cols.append(f"{name}_applicable")
        return tuple(cols)

    def to_csv(self) -> str:
        rows = []
        for r in self.records:
            row = [r.t, r.distance, r.window_size, r.exact_norm]
            for name, outcome in r.bounds.items():
                row.append(outcome.value)
                if name != "apriori":
                    row.append(outcome.applicable)
            rows.append(row)
        return render_csv(self.csv_header(), rows)

    def to_json_doc(self) -> dict:
        p = self.parameters
        return {
            "config": self.config,
            "derived_parameters": {
                **p.echo(),
                "main_constant": main_constant(p, int(self.config["chain"]["local_dim"])),
                "derivative_bound_constant": derivative_bound_constant(p),
            },
            "spectral_blocks": list(self.spectral_blocks),
            "reconstruction_residual": self.reconstruction_residual,
            "records": [
                {
                    "t": r.t,
                    "dAB": r.distance,
                    "N": r.window_size,
                    "exact_norm": r.exact_norm,
                    "bounds": {name: record_fields(outcome) for name, outcome in r.bounds.items()},
                }
                for r in self.records
            ],
            "timings_ms": [r.wall_time_ms for r in self.records],
            "exact_norms_ms": self.exact_norms_ms,
            "improvement_points": [
                {"t": t, "main": m, "apriori": a} for t, m, a in self.improvement_points
            ],
            "violations": list(self.violations),
        }

    def to_json(self) -> str:
        return render_json(self.to_json_doc())

    def diagnostic_dump(self) -> list:
        lines = [f"VIOLATION: {msg}" for msg in self.violations]
        for r in self.records:
            if not r.violations():
                continue
            lines.append(
                f"  record t = {fmt_float(r.t)}: dAB = {r.distance}, N = {r.window_size}, "
                f"exact = {fmt_float(r.exact_norm)}"
            )
            for name, outcome in r.bounds.items():
                val = "n/a" if outcome.value is None else fmt_float(outcome.value)
                lines.append(f"    {name}: value = {val}, applicable = {outcome.applicable}, reason = {outcome.reason}")
        return lines

    def summary_lines(self) -> list:
        lines = [
            f"records: {len(self.records)}",
            f"violations: {len(self.violations)}",
            f"improvement points (main < apriori): {len(self.improvement_points)}",
        ]
        if self.improvement_points:
            t, m, a = self.improvement_points[0]
            lines.append(
                f"  first at t = {fmt_float(t)}: main {fmt_float(m)} < apriori {fmt_float(a)}"
            )
        return lines


def find_improvement_points(records) -> tuple:
    """Grid points where the impurity-improved bound strictly beats the a-priori one."""
    out = []
    for r in records:
        apriori, main = r.bounds.get("apriori"), r.bounds.get("main")
        if apriori is None or main is None:
            continue
        if main.applicable and main.window and apriori.applicable and main.value < apriori.value:
            out.append((r.t, main.value, apriori.value))
    return tuple(out)


def run_verify(cfg: ExperimentConfig, threads: int = 1, write: bool = True) -> VerifyReport:
    """Sweep the time grid, compare exact norms with all requested bounds.

    The exact norms of the whole grid come from one `commutator_norm_table`
    call, timed as `exact_norms_ms`; the bounds are then evaluated serially,
    in grid order, each grid point timed on its own.  `threads` is accepted
    and ignored.  When the config carries an output prefix and `write` is
    true, the CSV and its JSON mirror are written to `<prefix>.csv` /
    `<prefix>.json`.
    """
    params = cfg.parameters()
    h = build_perturbed_hamiltonian(cfg.phi, cfg.imp, cfg.geom)
    a = cfg.observable_a.operator()
    b = cfg.observable_b.operator()
    scale = cfg.observable_a.norm() * cfg.observable_b.norm()
    sa, sb = cfg.observable_a.support, cfg.observable_b.support
    d = sa.distance(sb)
    window = impurity_window(sa, sb, cfg.imp)
    start = time.perf_counter()
    exact, residuals = commutator_norm_table(h, [np.zeros(cfg.geom.total_dim)], a, b, cfg.geom, cfg.t_grid)
    exact_norms_ms = (time.perf_counter() - start) * 1e3

    def one(t: float, exact_norm: float) -> ExperimentRecord:
        start = time.perf_counter()
        outcomes = _evaluate_bounds(cfg, params, t, scale)
        wall = (time.perf_counter() - start) * 1e3
        return ExperimentRecord(t, d, len(window), float(exact_norm), outcomes, wall)

    report = VerifyReport(
        config=cfg.echo(),
        parameters=params,
        bound_set=cfg.bound_set,
        records=tuple(one(t, x) for t, x in zip(cfg.t_grid, exact[0])),
        spectral_blocks=tuple(len(idx) for idx in connected_components(h.matrix != 0)),
        reconstruction_residual=float(residuals[0]),
        exact_norms_ms=exact_norms_ms,
    )
    if write and cfg.out is not None:
        write_report(cfg.out, report.to_csv(), report.to_json())
    return report


def write_report(prefix: str, csv_text: str, json_text: str) -> tuple:
    """Write `<prefix>.csv` and `<prefix>.json`, creating parent directories; returns the two paths."""
    prefix = str(prefix)
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    with open(csv_path, "w") as fh:
        fh.write(csv_text)
    with open(json_path, "w") as fh:
        fh.write(json_text)
    return csv_path, json_path


# ---------------------------------------------------------------------------
# identity batch

@dataclass(frozen=True)
class IdentityCheck:
    """One replayed identity: measured residual against a fixed threshold."""

    name: str
    residual: float | None
    threshold: float
    status: str  # "pass", "fail", "skipped", or "error"
    detail: str = ""

    @classmethod
    def measured(cls, name: str, residual: float, threshold: float, detail: str = "") -> IdentityCheck:
        status = "pass" if residual <= threshold else "fail"
        return cls(name, float(residual), threshold, status, detail)


@dataclass(frozen=True)
class IdentitiesReport:
    config: dict
    site: int
    t: float
    checks: tuple
    wall_time_ms: float

    @property
    def ok(self) -> bool:
        return all(c.status in ("pass", "skipped") for c in self.checks)

    def to_csv(self) -> str:
        return render_csv(
            ("check", "residual", "threshold", "status"),
            ((c.name, c.residual, c.threshold, c.status) for c in self.checks),
        )

    def to_json_doc(self) -> dict:
        return {
            "config": self.config,
            "decoupling_site": self.site,
            "t": self.t,
            "checks": [record_fields(c) for c in self.checks],
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return render_json(self.to_json_doc())

    def summary_lines(self) -> list:
        lines = []
        for c in self.checks:
            res = "-" if c.residual is None else fmt_float(c.residual)
            line = f"{c.status.upper():7s} {c.name}: residual {res} (threshold {fmt_float(c.threshold)})"
            if c.detail:
                line += f" [{c.detail}]"
            lines.append(line)
        lines.append(f"identity batch: {'ok' if self.ok else 'FAILED'}")
        return lines


def pick_decoupling_site(cfg: ExperimentConfig) -> int:
    """First impurity site usable for the decoupling comparison.

    The site must lie strictly between the observables (one-site buffer on
    the left) and at least two sites from either chain end so both touching
    bonds plus a neighbour exist.
    """
    lo = max(cfg.observable_a.support.hi + 2, -cfg.geom.half_length + 2)
    hi = min(cfg.observable_b.support.lo - 1, cfg.geom.half_length - 2)
    for site in cfg.imp.sites:
        if lo <= site <= hi:
            return site
    raise ConfigError(
        f"identity batch needs an impurity site in [{lo}, {hi}] "
        f"(strictly between the observables, away from the chain ends); "
        f"model has impurities at {list(cfg.imp.sites)}"
    )


def run_identities(cfg: ExperimentConfig) -> IdentitiesReport:
    """Replay the identity suite behind the impurity-improved bound.

    Geometry problems (no usable impurity site, overlapping supports) are
    reported as per-check errors, not raised, so one bad identity never
    hides the rest.  Exit-code policy is the caller's: `ok` is true iff
    every check passed or was skipped.  When the config carries an output
    prefix, the CSV and its JSON mirror are written there.
    """
    start = time.perf_counter()
    checks = []
    t = max((abs(t) for t in cfg.t_grid), default=0.0)
    geom, phi, imp = cfg.geom, cfg.phi, cfg.imp
    a = cfg.observable_a.operator()
    b = cfg.observable_b.operator()
    site = pick_decoupling_site(cfg)  # ConfigError propagates: nothing below can run without it
    dd = DecoupledDynamics(phi, imp, site, geom)

    def guarded(name: str, threshold: float, fn, skip: str = "") -> None:
        if skip:  # the reason the check cannot run here
            checks.append(IdentityCheck(name, None, threshold, "skipped", skip))
            return
        try:
            residual, detail = fn()
        except (SupportError, ValueError) as exc:
            checks.append(IdentityCheck(name, None, threshold, "error", str(exc)))
            return
        checks.append(IdentityCheck.measured(name, residual, threshold, detail))

    def check_blocking():
        res = dd.blocking_residual(a, b, (0.5 * t, t))
        return res, f"observables on opposite sides of site {site}, decoupled evolution"

    def check_split():
        left, right = decoupled_split(phi, imp, site, geom)
        r1 = operator_norm((left + right - dd.bare).matrix)
        r2 = operator_norm(commutator(left, right).matrix)
        return max(r1, r2), "left + right reassembly and [left, right] = 0"

    def check_blocks():
        diff = (build_nn_hamiltonian(phi, geom) - dd.bare).matrix
        acc = np.zeros_like(diff)
        for block in dd.blocks.values():
            acc += block.matrix
        return operator_norm(acc - diff), "off-diagonal blocks sum to the decoupling defect"

    def check_phase():
        res = 0.0
        for (j, k), block in dd.blocks.items():
            for s in (0.3 * t, 0.7 * t, t):
                lhs = dd.decoupled.evolve(block, s)
                rhs = dd.phase(j, k, s) * dd.reduced.evolve(block, s)
                res = max(res, operator_norm((lhs - rhs).matrix))
        return res, "decoupled evolution = phase * reduced evolution on each block"

    def check_endpoint():
        res = max(operator_norm(f) for f in dd.interpolant(a, b, t, t).values())
        return res, "interpolant vanishes at s = t"

    # (step, FD residual, Richardson residual) from one analytic derivative and the step-h and step-h/2
    # central differences per block pair.  An error is not cached: each check raises it and is marked "error".
    @functools.cache
    def derivative_residuals():
        s = 0.4 * t
        step = dd.fd_step()
        fd_worst = richardson_worst = 0.0
        analytics = dd.interpolant_derivative(a, b, s, t)
        fds = dd.interpolant_derivative_fd(a, b, s, t, step=step), dd.interpolant_derivative_fd(a, b, s, t, step=0.5 * step)
        for pair, analytic in analytics.items():
            fd1, fd2 = (fd[pair] for fd in fds)
            denom = max(operator_norm(analytic.matrix), 1e-300)
            fd_worst = max(fd_worst, operator_norm((analytic - fd1).matrix) / denom)
            extrap = (4.0 * fd2.matrix - fd1.matrix) / 3.0
            richardson_worst = max(richardson_worst, operator_norm(analytic.matrix - extrap) / denom)
        return step, fd_worst, richardson_worst

    def check_derivative():
        step, worst, _ = derivative_residuals()
        return worst, f"central difference, frequency-scaled step {fmt_float(step)}, s = 0.4 t"

    def check_derivative_richardson():
        return derivative_residuals()[2], "step-halved extrapolation cancels the quadratic truncation term"

    def check_projection():
        """||(id - E_keep)(tau_t(A))|| against its bound, the largest ||[tau_t(A), U]|| over the Weyl unitaries U outside keep.

        keep is A's support widened by one site on each side, within the
        chain.  The bound is `lrchain.dynamics.projection_commutator_norm`,
        which picks its route from A alone; the detail counts the U.
        """
        evolved = dd.full.evolve(a, t)
        keep = SiteSupport(
            max(a.support.lo - 1, -geom.half_length),
            min(a.support.hi + 1, geom.half_length),
        )
        projected = conditional_expectation(evolved, keep, geom)
        lhs = operator_norm((evolved - projected).matrix)
        rhs = projection_commutator_norm(dd.full, a, t, keep)
        return max(lhs - rhs, 0.0), (
            f"||(id - E)(evolved A)|| = {fmt_float(lhs)} vs eps * norm = "
            f"{fmt_float(rhs)} on keep = {keep}; {len(epsilon_unitaries(keep, geom))} unitaries"
        )

    guarded("decoupled_blocking", IDENTITY_TOL, check_blocking)
    guarded("commuting_split", IDENTITY_TOL, check_split)
    guarded("offdiagonal_decomposition", IDENTITY_TOL, check_blocks)
    guarded("phase_conjugation", IDENTITY_TOL, check_phase)
    guarded("interpolant_endpoint", IDENTITY_TOL, check_endpoint)
    derivative_skip = "" if t > 0 else "needs t > 0"
    guarded("interpolant_derivative_fd", FD_REL_TOL, check_derivative, derivative_skip)
    guarded("interpolant_derivative_richardson", RICHARDSON_REL_TOL, check_derivative_richardson, derivative_skip)
    projection_skip = ""
    if geom.total_dim > EPSILON_MAX_DIM:
        projection_skip = f"unitary-set enumeration too large for total dimension {geom.total_dim} > {EPSILON_MAX_DIM}"
    guarded("local_projection_inequality", IDENTITY_TOL, check_projection, projection_skip)

    wall = (time.perf_counter() - start) * 1e3
    report = IdentitiesReport(config=cfg.echo(), site=site, t=t, checks=tuple(checks), wall_time_ms=wall)
    if cfg.out is not None:
        write_report(cfg.out, report.to_csv(), report.to_json())
    return report


# ---------------------------------------------------------------------------
# constants table

CONSTANTS_CSV_HEADER = ("mu", "phi_norm", "D", "c_mu", "K_mu", "C0", "v", "C_thm31", "C_mu_lem44", "series_radius")


def constants_rows(mus, phi_norm: float, local_dim: int, radius: int | None = None) -> list:
    """One row of derived constants per decay rate, in the fixed CSV column order."""
    rows = []
    for mu in mus:
        p = LRParameters.compute(float(mu), float(phi_norm), radius)
        rows.append(
            (
                p.mu,
                p.phi_norm,
                int(local_dim),
                p.c_mu,
                p.K_mu,
                p.C0,
                p.v,
                main_constant(p, int(local_dim)),
                derivative_bound_constant(p),
                p.series_radius,
            )
        )
    return rows
