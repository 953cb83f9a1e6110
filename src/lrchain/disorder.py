"""Monte Carlo experiment: random heavy-tailed fields on a Heisenberg chain.

The chain is the spin-1/2 isotropic exchange model with an on-site z-field
on a uniformly spaced sublattice, field strengths drawn independently from
the heavy-tailed density a / r^(1+a) on [1, inf).  For each realization the
sweep evaluates a large-deviation event (enough sites carry a field above a
threshold) and, on chains small enough for exact diagonalization, checks the
event-conditional commutator bound

    e^{v|t|} * e^{-2 mu L} * e^{-(2L+1)^(1-b) ln(2L+1)}

against the exact edge-to-edge commutator norm.

Reproducibility contract: realization r derives its own child seed from the
sweep seed by a SplitMix64 mix, and draws through a counter-based generator
keyed on that child, so reports are byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .bounds import LRParameters, exceeds, main_constant
from .dynamics import commutator_norm_table
from .geometry import ChainGeometry
from .model import NNInteraction, build_nn_hamiltonian
from .operators import PAULI, DenseOperator, embed_local
from .serialize import (
    INTEGER, NUMBER, NUMBERS, fmt_float, read_field, read_json_object, record_fields, render_csv, render_json
)

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Child seed for stream `index`: one SplitMix64 step from seed + index."""
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_heavy_tail(a: float, u) -> np.ndarray | float:
    """Inverse-CDF transform of uniform u in [0, 1): r = (1 - u)^(-1/a).

    The result follows the density a / r^(1+a) on [1, inf): all moments of
    order >= a diverge, so running maxima grow without bound.
    """
    if a <= 0:
        raise ValueError(f"tail exponent must be positive, got {a}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("uniform input must lie in [0, 1)")
    out = (1.0 - u_arr) ** (-1.0 / a)
    return float(out) if np.isscalar(u) else out


def heisenberg_bond(j_coupling: float) -> np.ndarray:
    """-J (sx sx + sy sy + sz sz) on two sites; spectrum {-J (x3), 3J}, norm 3|J|."""
    out = np.zeros((4, 4), dtype=complex)
    for name in ("sx", "sy", "sz"):
        out -= j_coupling * np.kron(PAULI[name], PAULI[name])
    return out


@dataclass(frozen=True)
class DisorderConfig:
    """Parameters of one Monte Carlo sweep."""

    mu: float
    J: float
    a: float
    b: float
    L: int
    n_realizations: int
    seed: int
    t_grid: tuple
    L_exact: int = 3
    epsilon: float | None = None

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.J <= 0:
            raise ValueError(f"exchange J must be positive, got {self.J}")
        if not 0.0 < self.a < 0.5:
            raise ValueError(f"tail exponent a must lie in (0, 1/2), got {self.a}")
        if not self.a < self.b < 1.0:
            raise ValueError(f"event exponent b must lie in (a, 1), got {self.b}")
        if self.L < 1:
            raise ValueError(f"chain half-length L must be >= 1, got {self.L}")
        if self.n_realizations < 0:
            raise ValueError(f"n_realizations must be nonnegative, got {self.n_realizations}")
        if not 0 <= int(self.seed) <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise ValueError("t_grid must be nonempty")
        if any(t < 0 for t in grid):
            raise ValueError("t_grid entries must be nonnegative")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError(f"epsilon override must be positive, got {self.epsilon}")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def spacing(self) -> int:
        """Sublattice spacing ceil(max(1/mu, 2)) carrying the random fields."""
        return int(ceil(max(1.0 / self.mu, 2.0)))

    def field_sites(self) -> tuple:
        """Sublattice sites inside the chain [-L, L]."""
        s = self.spacing
        lo = -(self.L // s) * s
        return tuple(x for x in range(lo, self.L + 1, s) if -self.L <= x)

    def event_sites(self) -> tuple:
        """Sublattice sites inside the widened window [-L-3, L+3] counted by the event."""
        s = self.spacing
        hi = self.L + 3
        lo = -((self.L + 3) // s) * s
        return tuple(x for x in range(lo, hi + 1, s))

    def echo(self) -> dict:
        """Every field, then the sublattice the sweep derives from them; sequences as lists."""
        doc = {**record_fields(self), "t_grid": list(self.t_grid), "spacing": self.spacing}
        return {**doc, "field_sites": list(self.field_sites()), "event_sites": list(self.event_sites())}

    @classmethod
    def from_json(cls, path) -> DisorderConfig:
        path = str(path)
        required = {
            "mu": NUMBER, "J": NUMBER, "a": NUMBER, "b": NUMBER,
            "L": INTEGER, "n_realizations": INTEGER, "seed": INTEGER, "t_grid": NUMBERS,
        }
        doc = read_json_object(path, ValueError, (*required, "L_exact", "epsilon"), required)
        fields = {key: read_field(doc, key, kind, path, ValueError) for key, kind in required.items()}
        fields["L_exact"] = read_field(doc, "L_exact", INTEGER, path, ValueError, cls.L_exact)
        fields["epsilon"] = read_field(doc, "epsilon", NUMBER, path, ValueError, cls.epsilon)
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _field_strengths(cfg: DisorderConfig, couplings) -> dict:
    """Field strength at each chain sublattice site, checked against the sampler's support."""
    sites = cfg.field_sites()
    missing = [x for x in sites if x not in couplings]
    if missing:
        raise ValueError(f"missing couplings for field sites {missing}")
    lams = {}
    for x in sites:
        lam = float(couplings[x])
        if lam < 1.0:
            raise ValueError(f"field strength at site {x} is {lam}; the heavy-tail support starts at 1")
        lams[x] = lam
    return lams


class SparseFieldChain:
    """The exchange chain of one sweep, built once; a realization adds only its field diagonal.

    Holds the embedded exchange Hamiltonian, the diagonal of sz embedded at
    each field site, and the full-chain sz observables at the two chain
    edges.  `field(couplings)` is the diagonal sum_x lam_x sz_x, summed in
    site order from zero: embedded sz is exactly +-1, so exchange +
    diag(field) equals, entry for entry, `build_perturbed_hamiltonian` of
    the exchange chain with `ImpuritySpec.uniform(field_sites, sz, strengths)`.
    Building it costs dense chain matrices, so only chains within exact
    reach should build it.
    """

    def __init__(self, cfg: DisorderConfig):
        self.cfg = cfg
        self.geom = ChainGeometry(cfg.L, 2)
        phi = NNInteraction(self.geom, uniform_bond=heisenberg_bond(cfg.J))
        self.exchange = build_nn_hamiltonian(phi, self.geom)
        self.field_diagonals = {x: self._sz(x).matrix.diagonal().real.copy() for x in cfg.field_sites()}
        self.edge_observables = (self._sz(-cfg.L), self._sz(cfg.L))

    def _sz(self, site: int) -> DenseOperator:
        return embed_local(DenseOperator.single_site(site, PAULI["sz"]), self.geom.full_support, self.geom)

    def field(self, couplings) -> np.ndarray:
        """This realization's field diagonal sum_x lam_x sz_x; couplings are checked as by the model."""
        field = np.zeros(self.geom.total_dim)
        for x, lam in _field_strengths(self.cfg, couplings).items():
            field += lam * self.field_diagonals[x]
        return field


def lr_parameters(cfg: DisorderConfig) -> LRParameters:
    # the exchange bond has spectrum {-J, -J, -J, 3J}, hence norm exactly 3J
    return LRParameters.compute(cfg.mu, 3.0 * cfg.J)


def default_epsilon(cfg: DisorderConfig, params: LRParameters | None = None) -> float:
    """Threshold scale C (1 + v t_max) (2L + 1) tied to the bound constants."""
    params = params if params is not None else lr_parameters(cfg)
    t_max = max(cfg.t_grid)
    return float(main_constant(params, 2) * (1.0 + params.v * t_max) * (2 * cfg.L + 1))


def large_deviation_indicator(couplings, cfg: DisorderConfig, epsilon: float) -> bool:
    """True iff at least (2L+1)^(1-b) widened-window sites carry a field >= epsilon (2L+1)."""
    sites = cfg.event_sites()
    missing = [x for x in sites if x not in couplings]
    if missing:
        raise ValueError(f"missing couplings for event-window sites {missing}")
    threshold = epsilon * (2 * cfg.L + 1)
    count = sum(1 for x in sites if float(couplings[x]) >= threshold)
    return count >= (2 * cfg.L + 1) ** (1.0 - cfg.b)


def _bound_curve(cfg: DisorderConfig, params: LRParameters):
    n_sites = 2 * cfg.L + 1
    decay = float(np.exp(-2.0 * params.mu * cfg.L) * np.exp(-(n_sites ** (1.0 - cfg.b)) * log(n_sites)))
    with np.errstate(over="ignore"):
        return {t: float(np.exp(params.v * t) * decay) for t in cfg.t_grid}


def sample_couplings(cfg: DisorderConfig, realization: int) -> tuple:
    """(child_seed, couplings) for one realization; sites drawn in sorted order."""
    child = splitmix64(cfg.seed, realization)
    rng = np.random.Generator(np.random.Philox(key=child))
    sites = cfg.event_sites()
    draws = sample_heavy_tail(cfg.a, rng.random(len(sites)))
    return child, dict(zip(sites, draws))


@dataclass(frozen=True)
class SweepRow:
    realization: int
    seed_child: int
    t: float
    event: bool
    exact_norm: float | None
    bound: float
    applicable: bool
    violated: bool


SWEEP_CSV_HEADER = ("realization", "seed_child", "t", "event", "exact_norm", "bound", "applicable", "violated")

SUBSTITUTION_NOTE = (
    "The probability lower bound for the large-deviation event is asymptotic in the chain "
    "length with an unspecified constant and is not reproducible at this scale; this report "
    "substitutes the empirical event frequency with a Wilson 95% interval, together with the "
    "conditional bound check on realizations where the event occurred."
)


def wilson_interval(successes: int, n: int) -> tuple:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if n <= 0:
        return (0.0, 1.0)
    z = 1.959963984540054  # two-sided 95% quantile of the standard normal
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, float(center - half)), min(1.0, float(center + half)))


@dataclass(frozen=True)
class SweepReport:
    config: dict
    parameters: LRParameters
    epsilon: float
    epsilon_source: str
    rows: tuple
    max_reconstruction_residual: float | None  # None when no realization was diagonalized
    note: str = SUBSTITUTION_NOTE

    @property
    def n_realizations(self) -> int:
        return int(self.config["n_realizations"])

    @property
    def event_count(self) -> int:
        """Realizations on which the event occurred; each has one row per time."""
        return len({r.realization for r in self.rows if r.event})

    @property
    def applicable_count(self) -> int:
        return sum(r.applicable for r in self.rows)

    @property
    def violation_count(self) -> int:
        return sum(r.violated for r in self.rows)

    @property
    def event_frequency(self) -> float:
        n = self.n_realizations
        return self.event_count / n if n else 0.0

    def wilson_95(self) -> tuple:
        return wilson_interval(self.event_count, self.n_realizations)

    def to_csv(self) -> str:
        return render_csv(SWEEP_CSV_HEADER, ([getattr(r, name) for name in SWEEP_CSV_HEADER] for r in self.rows))

    def to_json_doc(self, wall_time_ms: float | None = None) -> dict:
        lo, hi = self.wilson_95()
        doc = {
            "config": self.config,
            "derived_parameters": self.parameters.echo(),
            "epsilon": self.epsilon,
            "epsilon_source": self.epsilon_source,
            "event_threshold": self.epsilon * (2 * int(self.config["L"]) + 1),
            "n_realizations": self.n_realizations,
            "event_count": self.event_count,
            "event_frequency": self.event_frequency,
            "wilson_95": [lo, hi],
            "applicable_row_count": self.applicable_count,
            "violation_count": self.violation_count,
            "max_reconstruction_residual": self.max_reconstruction_residual,
            "note": self.note,
            "rows": [record_fields(r) for r in self.rows],
        }
        if wall_time_ms is not None:
            doc["wall_time_ms"] = wall_time_ms
        return doc

    def to_json(self, wall_time_ms: float | None = None) -> str:
        return render_json(self.to_json_doc(wall_time_ms))

    def summary_lines(self) -> list:
        lo, hi = self.wilson_95()
        return [
            f"realizations: {self.n_realizations}",
            f"event frequency: {fmt_float(self.event_frequency)} "
            f"(count {self.event_count}, Wilson 95% [{fmt_float(lo)}, {fmt_float(hi)}])",
            f"conditional-bound rows checked: {self.applicable_count}, violations: {self.violation_count}",
            f"note: {self.note}",
        ]


def _run_realization(cfg, epsilon, bounds_by_t, separation_ok, realization, child, couplings, exact):
    """The rows of one realization; `exact` holds its exact norms along t_grid, or is None."""
    event = large_deviation_indicator(couplings, cfg, epsilon)
    rows = []
    for j, t in enumerate(cfg.t_grid):
        norm = None if exact is None else float(exact[j])
        bound = bounds_by_t[t]
        applicable = bool(event and norm is not None and separation_ok)
        violated = bool(applicable and exceeds(norm, bound))
        rows.append(SweepRow(realization, child, t, event, norm, bound, applicable, violated))
    return rows


def monte_carlo_sweep(cfg: DisorderConfig, threads: int = 1) -> SweepReport:
    """Run the full disorder experiment; deterministic for a fixed seed.

    One row per (realization, t).  `applicable` marks rows where the
    conditional bound is actually checkable: the event occurred, the chain
    is small enough for exact dynamics (L <= L_exact), and the supports are
    separated by at least 7 sites (2L >= 7) as the underlying improved bound
    requires.  On such chains the exchange Hamiltonian, the field-site sz
    diagonals and the edge observables are built once per sweep
    (`SparseFieldChain`), and the exact norms of all realizations come from
    one `commutator_norm_table` call: each S^z sector of the exchange chain
    is gathered once, and chunks of realizations share one batched
    eigendecomposition, rotation and norm per sector, with no per-realization
    Hamiltonian or eigenvector matrix.  Each 2^n-long field diagonal is
    formed when its chunk reads it, so the sweep keeps one chunk of them at
    a time; only the couplings and the rows grow with `n_realizations`.
    Longer chains build no chain matrix at all.  `threads` is accepted and
    ignored: the batched LAPACK calls are the only parallel work.
    """
    params = lr_parameters(cfg)
    if cfg.epsilon is not None:
        epsilon, source = cfg.epsilon, "config override"
    else:
        epsilon = default_epsilon(cfg, params)
        source = "default: main_constant * (1 + v * max(t_grid)) * (2L + 1)"
    bounds_by_t = _bound_curve(cfg, params)
    separation_ok = 2 * cfg.L >= 7
    draws = [sample_couplings(cfg, r) for r in range(cfg.n_realizations)]
    exact, residuals = [None] * len(draws), None
    if cfg.L <= cfg.L_exact:
        chain = SparseFieldChain(cfg)
        fields = (chain.field(couplings) for _, couplings in draws)
        exact, residuals = commutator_norm_table(chain.exchange, fields, *chain.edge_observables, chain.geom, cfg.t_grid)
    rows = []
    for r, ((child, couplings), norms) in enumerate(zip(draws, exact)):
        rows.extend(_run_realization(cfg, epsilon, bounds_by_t, separation_ok, r, child, couplings, norms))
    return SweepReport(
        config=cfg.echo(),
        parameters=params,
        epsilon=epsilon,
        epsilon_source=source,
        rows=tuple(rows),
        max_reconstruction_residual=float(residuals.max()) if residuals is not None and residuals.size else None,
    )
