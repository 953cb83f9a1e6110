"""Analytic commutator-bound constants and bound evaluators.

Two weighted lattice sums feed every constant:

* ``c_mu``: sum over integer x of exp(-mu |x|) / (1 + |x|)^2, the mass of the
  exponential-polynomial decay weight;
* ``K_mu``: the largest, over site pairs, of the convolution of that weight
  with itself divided by the weight of the pair, a measure of how the weight
  fattens under one convolution.

From them: the a-priori commutator-bound prefactor C0 = 10 c_mu / K_mu and
the velocity v = 8 e^mu K_mu ||Phi||.  On top sit the impurity-improved
bounds, whose prefactor shrinks like 1/(|coupling| * gap) per impurity
sitting in the buffer window between the two observables.

Bound evaluators are normalized to unit-norm observables; pass the product
of the actual norms through ``scale``.  Evaluators whose hypotheses involve
geometry return a ``BoundOutcome`` carrying an applicability flag and reason
instead of raising, so sweep harnesses can tabulate applicability.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .geometry import SiteSupport, site_distance
from .model import ImpuritySpec, impurity_window, min_spacing

TAIL_REL_TOL = 1e-12
MAX_SERIES_RADIUS = 1 << 14
# an exact norm violates a bound only if it exceeds the bound by more than this
VIOLATION_TOL = 1e-9


def exceeds(exact: float, bound: float) -> bool:
    """Whether an exact norm violates a bound: it is above it by more than `VIOLATION_TOL`."""
    return exact > bound + VIOLATION_TOL


class ConvergenceError(RuntimeError):
    """A lattice-sum scan did not resolve its maximizer inside the scan range."""


def compute_c_mu(mu: float, radius: int):
    """Partial sum of exp(-mu |x|) / (1+|x|)^2 over |x| <= radius.

    Returns (value, tail_bound); tail_bound certifies the omitted |x| > radius
    mass via a geometric majorant, so value <= exact <= value + tail_bound.
    """
    if mu <= 0:
        raise ValueError(f"decay rate mu must be positive, got {mu}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    x = np.arange(1, radius + 1, dtype=float)
    value = 1.0 + 2.0 * float(np.sum(np.exp(-mu * x) / (1.0 + x) ** 2))
    tail = 2.0 * np.exp(-mu * (radius + 1)) / ((radius + 2) ** 2 * (1.0 - np.exp(-mu)))
    return value, float(tail)


def _k_mu_profile(mu: float, separations: np.ndarray, z_radius: int) -> np.ndarray:
    """The K_mu inner sum for each separation n, z truncated at |z| <= z_radius."""
    z = np.arange(-z_radius, z_radius + 1, dtype=float)[None, :]
    n = separations.astype(float)[:, None]
    exponent = np.abs(z) + np.abs(n - z) - n
    weight = (1.0 + n) ** 2 / ((1.0 + np.abs(z)) ** 2 * (1.0 + np.abs(n - z)) ** 2)
    return np.sum(np.exp(-mu * exponent) * weight, axis=1)


def compute_K_mu(mu: float, radius: int) -> float:
    """Supremum over site separation of the convolution ratio.

    By translation invariance the sup reduces to a scan over the separation
    n = 0..radius with the inner z-sum truncated at |z| <= 3 * radius.  The
    observed maximizer must be strictly interior to the scan range; a
    maximizer at the edge means the scan was too short.
    """
    if mu <= 0:
        raise ValueError(f"decay rate mu must be positive, got {mu}")
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    seps = np.arange(0, radius + 1)
    # the whole (radius + 1) x (6 radius + 1) grid grows like 1/mu^2 (300 MB at
    # mu = 0.05), so it is summed in blocks of rows of at most 2^17 doubles each;
    # each row sums on its own, and the default radius 128 is one block
    rows = max(1, (1 << 17) // (6 * radius + 1))
    profile = np.concatenate([_k_mu_profile(mu, seps[i : i + rows], 3 * radius) for i in range(0, radius + 1, rows)])
    best = int(np.argmax(profile))
    if best == radius:
        raise ConvergenceError(
            f"K_mu maximizer sits at the scan edge (separation {best} of {radius}); raise the radius"
        )
    return float(profile[best])


@dataclass(frozen=True)
class LRParameters:
    """Decay rate, interaction strength, and everything derived from them."""

    mu: float
    phi_norm: float
    c_mu: float
    K_mu: float
    C0: float
    v: float
    series_radius: int
    tail_bound: float

    @classmethod
    def compute(cls, mu: float, phi_norm: float, radius: int | None = None) -> LRParameters:
        if mu <= 0:
            raise ValueError(f"decay rate mu must be positive, got {mu}")
        if phi_norm < 0:
            raise ValueError(f"interaction strength must be nonnegative, got {phi_norm}")
        r = radius if radius is not None else max(128, int(np.ceil(64.0 / mu)))
        while True:
            c_val, tail = compute_c_mu(mu, r)
            try:
                k_val = compute_K_mu(mu, r)
            except ConvergenceError:
                k_val = None
            if k_val is not None and tail <= TAIL_REL_TOL * c_val:
                break
            if radius is not None or r >= MAX_SERIES_RADIUS:
                raise ConvergenceError(
                    f"lattice sums did not converge at radius {r} for mu = {mu}"
                )
            r *= 2
        c0 = 10.0 * c_val / k_val
        if c0 < 1.0:
            raise ValueError(f"derived prefactor C0 = {c0} < 1 violates the bound's standing assumption")
        v = 8.0 * float(np.exp(mu)) * k_val * phi_norm
        return cls(mu, float(phi_norm), c_val, k_val, c0, v, r, tail)

    def echo(self) -> dict:
        """The derived constants as the reports' `derived_parameters` block lists them."""
        return {
            "mu": self.mu,
            "phi_norm": self.phi_norm,
            "c_mu": self.c_mu,
            "K_mu": self.K_mu,
            "C0": self.C0,
            "v": self.v,
            "series_radius": self.series_radius,
        }


def apriori_bound(params: LRParameters, t: float, distance: float, scale: float = 1.0) -> float:
    """Impurity-free commutator bound C0 (e^{v|t|} - 1) e^{-mu d} for unit-norm observables."""
    if distance < 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    with np.errstate(over="ignore"):
        return float(params.C0 * np.expm1(params.v * abs(t)) * np.exp(-params.mu * distance) * scale)


def decay_profile(n: int, mu: float, distance: float) -> float:
    """(mu d)^n e^{-mu d}: the spatial factor after exploiting n impurities."""
    if n < 1:
        raise ValueError(f"profile order must be >= 1, got {n}")
    if distance < 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    with np.errstate(over="ignore"):
        return float((mu * distance) ** n * np.exp(-mu * distance))


def growth_profile(n: int, v: float, t: float) -> float:
    """v|t| (1 + v|t|)^{n-1} e^{v|t|}: the time factor after exploiting n impurities."""
    if n < 1:
        raise ValueError(f"profile order must be >= 1, got {n}")
    w = v * abs(t)
    with np.errstate(over="ignore"):
        return float(w * (1.0 + w) ** (n - 1) * np.exp(w))


def main_constant(params: LRParameters, local_dim: int) -> float:
    """Per-impurity prefactor of the improved bound."""
    if local_dim < 2:
        raise ValueError(f"local dimension must be >= 2, got {local_dim}")
    return float(
        444.0
        * params.C0 ** 2
        * np.exp(5.0 * params.mu)
        / (params.mu * (1.0 - np.exp(-params.mu)))
        * params.phi_norm
        * comb(local_dim, 2) ** 2
    )


def derivative_bound_constant(params: LRParameters) -> float:
    """Constant bounding the interpolant's s-derivative per unit interaction strength."""
    return float(
        218.0 * params.C0 ** 2 * np.exp(5.0 * params.mu) / (params.mu * (1.0 - np.exp(-params.mu)))
    )


@dataclass(frozen=True)
class BoundOutcome:
    """Result of a bound evaluator whose hypotheses may fail on a given geometry."""

    value: float | None
    applicable: bool
    reason: str | None = None
    window: tuple = ()
    prefactor_product: float = 1.0

    def __post_init__(self):
        # impurity sites may be numpy integers, which the JSON record cannot hold
        object.__setattr__(self, "window", tuple(int(x) for x in self.window))

    @classmethod
    def not_applicable(cls, reason: str) -> BoundOutcome:
        return cls(None, False, reason)


def _hypothesis_failure(params: LRParameters, support_a: SiteSupport, support_b: SiteSupport, imp: ImpuritySpec):
    if not support_a.hi + 3 < support_b.lo - 3:
        return (
            f"supports too close: need max S_A + 3 < min S_B - 3, "
            f"got {support_a.hi + 3} and {support_b.lo - 3}"
        )
    if not imp.is_empty():
        spacing = min_spacing(imp)
        needed = max(1.0 / params.mu, 2.0)
        if not spacing > needed:
            return f"impurity spacing {spacing} must exceed max(1/mu, 2) = {needed}"
    return None


def _window_or_outcome(
    params: LRParameters, support_a: SiteSupport, support_b: SiteSupport, imp: ImpuritySpec, t: float, scale: float
) -> tuple:
    """The impurity window of `main_bound` and `uniform_impurity_bound` as (None, window), or (outcome, ()).

    The outcome settles the bound before any impurity factor: not applicable
    when a hypothesis fails, and the a-priori fallback when the window is empty.
    """
    failure = _hypothesis_failure(params, support_a, support_b, imp)
    if failure is not None:
        return BoundOutcome.not_applicable(failure), ()
    window = impurity_window(support_a, support_b, imp)
    if window:
        return None, window
    fallback = apriori_bound(params, t, support_a.distance(support_b), scale)
    return BoundOutcome(fallback, True, "no impurities in the window; a-priori bound used as fallback"), ()


def main_bound(
    params: LRParameters,
    local_dim: int,
    support_a: SiteSupport,
    support_b: SiteSupport,
    imp: ImpuritySpec,
    t: float,
    scale: float = 1.0,
) -> BoundOutcome:
    """Impurity-improved commutator bound for unit-norm observables.

    One factor main_constant / (|coupling| * gap) per impurity in the window
    [max S_A + 3, min S_B - 3], times the time and space profiles of the
    window size.  An empty window falls back to the a-priori bound.
    """
    outcome, window = _window_or_outcome(params, support_a, support_b, imp, t, scale)
    if outcome is not None:
        return outcome
    n = len(window)
    d = support_a.distance(support_b)
    product = imp.coupling_gap_product(window)
    c = main_constant(params, local_dim)
    with np.errstate(over="ignore"):
        value = float(
            c ** n / product * growth_profile(n, params.v, t) * decay_profile(n, params.mu, d) * scale
        )
    return BoundOutcome(value, True, None, window, product)


def uniform_impurity_bound(
    params: LRParameters,
    local_dim: int,
    support_a: SiteSupport,
    support_b: SiteSupport,
    imp: ImpuritySpec,
    t: float,
    scale: float = 1.0,
) -> BoundOutcome:
    """Closed-form variant for a translation-invariant impurity family.

    Not applicable unless every impurity carries the same on-site matrix and
    the same coupling; the per-impurity factor then collapses to
    (K mu d (1 + v|t|) / coupling)^N with K = main_constant / gap.  Always at
    least as large as `main_bound` on the same geometry.
    """
    if imp.is_empty():
        return BoundOutcome.not_applicable("uniform impurity bound needs at least one impurity")
    if not imp.is_uniform():
        return BoundOutcome.not_applicable(
            "uniform impurity bound needs identical on-site matrices and couplings at every site"
        )
    outcome, window = _window_or_outcome(params, support_a, support_b, imp, t, scale)
    if outcome is not None:
        return outcome
    n = len(window)
    d = support_a.distance(support_b)
    gap = imp.impurities[0].gap
    lam = abs(imp.coupling(imp.sites[0]))
    k = main_constant(params, local_dim) / gap
    w = params.v * abs(t)
    with np.errstate(over="ignore"):
        value = float(
            (k * params.mu * d * (1.0 + w) / lam) ** n * np.exp(w) * np.exp(-params.mu * d) * scale
        )
    return BoundOutcome(value, True, None, window, (lam * gap) ** n)


def single_impurity_bound(
    params: LRParameters,
    local_dim: int,
    support_a: SiteSupport,
    support_b: SiteSupport,
    imp: ImpuritySpec,
    t: float,
    scale: float = 1.0,
) -> BoundOutcome:
    """Sharper one-impurity bound, smallest over the impurities in the buffer window.

    At `site` the spatial factor is mu * min(d(site - 3, S_B), d(site + 3, S_A))
    rather than mu * d(S_A, S_B); the best site is the window, the leftmost on a
    tie.  Not applicable, in this order: no impurities, none in the window, or
    a hypothesis of `main_bound` fails.
    """
    if imp.is_empty():
        return BoundOutcome.not_applicable("model has no impurities")
    window = impurity_window(support_a, support_b, imp)
    if not window:
        return BoundOutcome.not_applicable(
            f"no impurity site in the window [{support_a.hi + 3}, {support_b.lo - 3}]"
        )
    failure = _hypothesis_failure(params, support_a, support_b, imp)
    if failure is not None:
        return BoundOutcome.not_applicable(failure)
    d = support_a.distance(support_b)
    c = main_constant(params, local_dim)
    outcomes = []
    for site in window:
        reach = min(site_distance(site - 3, support_b), site_distance(site + 3, support_a))
        product = abs(imp.coupling(site)) * imp.at(site).gap
        with np.errstate(over="ignore"):
            value = float(
                c / product
                * growth_profile(1, params.v, t)
                * params.mu
                * reach
                * np.exp(-params.mu * d)
                * scale
            )
        outcomes.append(BoundOutcome(value, True, None, (site,), product))
    return min(outcomes, key=lambda o: o.value)


def _check_ordered(support_a: SiteSupport, support_w: SiteSupport, support_b: SiteSupport) -> None:
    if not (support_a.hi < support_w.lo - 1 and support_w.hi < support_b.lo):
        raise ValueError(
            f"supports must be ordered with gaps: max S_A < min S_W - 1 <= max S_W < min S_B, "
            f"got {support_a}, {support_w}, {support_b}"
        )


def window_decay_sum(decay, mu: float, support_a: SiteSupport, support_w: SiteSupport, support_b: SiteSupport) -> float:
    """Three-support decay combination entering the double-commutator bound.

    decay is the spatial profile f of the assumed two-observable bound.  The
    value is f(d(S_A,S_B)) + f(d(S_A,S_W) - 1) e^{-mu d(S_W,S_B)} plus a layer
    sum marching from the middle support toward the right one.
    """
    _check_ordered(support_a, support_w, support_b)
    d_ab = support_a.distance(support_b)
    d_aw = support_a.distance(support_w)
    d_wb = support_w.distance(support_b)
    depth = d_wb + support_w.diam + 1
    total = decay(d_ab) + decay(d_aw - 1) * float(np.exp(-mu * d_wb))
    for m in range(1, depth + 1):
        total += decay(d_aw + m - 2) * float(np.exp(-mu * (depth - m)))
    return float(total)


def double_commutator_bound(
    params: LRParameters,
    support_a: SiteSupport,
    support_w: SiteSupport,
    support_b: SiteSupport,
    s: float,
    t: float,
    norms=(1.0, 1.0, 1.0),
    variant: str = "apriori",
    prefactor: float | None = None,
    growth=None,
    decay=None,
) -> float:
    """Bound on ||[[W, evolved A], evolved B]|| for W between the observables.

    variant="general" turns any assumed two-observable bound
    ||[tau_t(A), B]|| <= prefactor * growth(t) * decay(d) ||A|| ||B|| into a
    double-commutator bound via `window_decay_sum`.  variant="apriori"
    specializes to the a-priori exponential bound, collapsing the decay sum
    into d(min S_W - 1, S_B) e^{-mu d(S_A, S_B)} at the price of
    e^{mu (diam S_W + 2)}.
    """
    _check_ordered(support_a, support_w, support_b)
    norm_a, norm_b, norm_w = (float(x) for x in norms)
    mu, v, c0 = params.mu, params.v, params.C0
    with np.errstate(over="ignore"):
        if variant == "general":
            if prefactor is None or growth is None or decay is None:
                raise ValueError("general variant needs prefactor, growth, and decay of the assumed bound")
            lead = 24.0 * c0 * np.exp(mu) / (1.0 - np.exp(-mu)) * prefactor
            return float(
                lead
                * norm_a * norm_b * norm_w
                * growth(t)
                * np.exp(v * abs(s))
                * window_decay_sum(decay, mu, support_a, support_w, support_b)
            )
        if variant == "apriori":
            lead = 72.0 * c0 ** 2 * np.exp(mu * (support_w.diam + 2)) / (1.0 - np.exp(-mu))
            reach = site_distance(support_w.lo - 1, support_b)
            return float(
                lead
                * norm_a * norm_b * norm_w
                * np.exp(v * (abs(t) + abs(s)))
                * reach
                * np.exp(-mu * support_a.distance(support_b))
            )
    raise ValueError(f"unknown variant {variant!r}; use 'general' or 'apriori'")

