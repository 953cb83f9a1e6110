"""Acceptance gate: every sign-off criterion, measured at its stated tolerance.

Each test appends one PASS/FAIL line to the terminal summary (see conftest)
and then asserts, so a red criterion is a red test; its assertion message
carries the measured evidence.  Two criteria are shaped by what can be
measured at all: 1b compares against a cancellation-free central
difference at a step scaled to each instance's spectral spread, and 3
looks for the improvement at a coupling past the crossover that the
explicit constants allow, and for its absence at coupling 50.

Shared instance family ("the suite instances"): half-length L in {3, 4},
qubit sites, random Hermitian bonds of unit norm (fixed seed per L), one
diagonal impurity at site 0 with spectral gap 2 and coupling in {1, 5, 50},
observables sz at the chain ends, times {0.25, 0.5, 1, 2}.
"""

import json
import time

import numpy as np
from scipy import integrate, stats

import pytest

from conftest import acceptance_lines
from lrchain.bounds import (
    LRParameters,
    apriori_bound,
    decay_profile,
    double_commutator_bound,
    growth_profile,
    main_bound,
    main_constant,
)
from lrchain.disorder import (
    DisorderConfig,
    heisenberg_bond,
    monte_carlo_sweep,
    sample_heavy_tail,
)
from lrchain.dynamics import DecoupledDynamics, EvolutionContext, commutator_norm_table
from lrchain.geometry import ChainGeometry, SiteSupport, site_distance
from lrchain.harness import ExperimentConfig, ObservableSpec, run_verify
from lrchain.model import (
    ImpuritySpec,
    NNInteraction,
    build_decoupled_hamiltonian,
    build_nn_hamiltonian,
    build_perturbed_hamiltonian,
    decoupled_split,
)
from lrchain.operators import (
    PAULI,
    DenseOperator,
    commutator,
    conditional_expectation,
    embed_local,
    local_commutator_epsilon,
    operator_norm,
)
from util import c_mu_bruteforce, heavy_tail_cdf, k_mu_bruteforce, random_complex, random_hermitian

MU = 1.0
SUITE_T = (0.25, 0.5, 1.0, 2.0)
SUITE_COUPLINGS = (1.0, 5.0, 50.0)
SUITE_HALF_LENGTHS = (3, 4)
GAP_MATRIX = np.diag([1.0, -1.0])  # eigenvalues +-1, spectral gap 2

_instances: dict = {}


def suite_instance(half_length: int, coupling: float):
    """Deterministic cached instance; bonds depend on L only, not the coupling."""
    key = (half_length, coupling)
    if key not in _instances:
        geom = ChainGeometry(half_length, 2)
        rng = np.random.default_rng(11 + half_length)
        bonds = {x: random_hermitian(rng, 4, norm=1.0) for x in range(-half_length, half_length)}
        phi = NNInteraction(geom, bonds=bonds)
        imp = ImpuritySpec.uniform([0], GAP_MATRIX, coupling)
        dd = DecoupledDynamics(phi, imp, 0, geom)
        a = DenseOperator.single_site(-half_length, PAULI["sz"])
        b = DenseOperator.single_site(half_length, PAULI["sz"])
        _instances[key] = (geom, phi, imp, dd, a, b)
    return _instances[key]


def record(tag: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} — criterion {tag}: {detail}"
    acceptance_lines.append(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1a: the five dynamical identities behind the improved bound


def test_criterion_1a_proof_identities():
    """Residuals <= 1e-9 on every suite instance, every grid time.

    Identities: (i) decoupled evolution keeps opposite-side observables
    commuting; (ii) the decoupled generator splits into commuting halves;
    (iii) the off-diagonal transition blocks sum to the decoupling defect;
    (iv) the removed on-site coupling acts on each block as a pure phase;
    (v) the interpolating double commutator vanishes at s = t.
    """
    tol = 1e-9
    worst, worst_at = 0.0, ""
    t_max = max(SUITE_T)
    for half_length in SUITE_HALF_LENGTHS:
        for coupling in SUITE_COUPLINGS:
            geom, phi, imp, dd, a, b = suite_instance(half_length, coupling)
            residuals = {}
            residuals["opposite-side blocking"] = dd.blocking_residual(a, b, SUITE_T)
            left, right = decoupled_split(phi, imp, 0, geom)
            total = build_decoupled_hamiltonian(phi, imp, 0, geom)
            residuals["commuting split"] = max(
                operator_norm(left + right - total),
                operator_norm(commutator(left, right)),
            )
            defect = (build_nn_hamiltonian(phi, geom) - total).matrix
            acc = sum(block.matrix for block in dd.blocks.values())
            residuals["block decomposition"] = operator_norm(
                DenseOperator(geom.full_support, acc - defect)
            )
            phase_res = 0.0
            for (j, k), block in dd.blocks.items():
                for s in (0.3 * t_max, 0.7 * t_max, t_max):
                    lhs = dd.decoupled.evolve(block, s)
                    rhs = dd.phase(j, k, s) * dd.reduced.evolve(block, s)
                    phase_res = max(phase_res, operator_norm(lhs - rhs))
            residuals["phase conjugation"] = phase_res
            residuals["interpolant endpoint"] = max(
                operator_norm(dd.interpolant(a, b, j, k, t, t))
                for j, k in dd.blocks
                for t in SUITE_T
            )
            for name, res in residuals.items():
                if res > worst:
                    worst, worst_at = res, f"{name} at L={half_length}, coupling={coupling:g}"
    ok = worst <= tol
    line = record(
        "1a",
        ok,
        "blocking/split/block-sum/phase/endpoint identity residuals <= 1e-9 on all "
        f"instances (L in {{3,4}}, coupling in {{1,5,50}}, t in {{0.25,0.5,1,2}}); "
        f"worst {worst:.2e} ({worst_at})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1b: analytic interpolant derivative vs central finite difference


def test_criterion_1b_derivative_vs_finite_difference():
    """Relative operator-norm error <= 1e-6 at s in {0.1, 0.3}, t = 0.5.

    The central difference runs at each instance's frequency-scaled step
    `DecoupledDynamics.fd_step()`: 1e-4 divided by the largest spectral
    spread w of the three evolution contexts (w ~ 8 to 110 here), so the
    (w*h)^2 / 6 truncation of the difference quotient sits far below the
    tolerance at every coupling.  The difference itself is formed without
    cancellation (see `interpolant_derivative_fd`), so it resolves the
    light-cone-suppressed derivative norms (~2e-6) of the larger chain.
    """
    tol, t = 1e-6, 0.5
    rows = []
    for half_length in SUITE_HALF_LENGTHS:
        for coupling in SUITE_COUPLINGS:
            geom, phi, imp, dd, a, b = suite_instance(half_length, coupling)
            step = dd.fd_step()
            for s in (0.1, 0.3):
                rel = absdiff = 0.0
                scale = np.inf
                for j, k in dd.blocks:
                    analytic = dd.interpolant_derivative(a, b, j, k, s, t)
                    fd = dd.interpolant_derivative_fd(a, b, j, k, s, t, step=step)
                    norm = operator_norm(analytic)
                    rel = max(rel, operator_norm(analytic - fd) / norm)
                    absdiff = max(absdiff, operator_norm(analytic - fd))
                    scale = min(scale, norm)
                rows.append((half_length, coupling, s, step, rel, absdiff, scale))
    worst = max(r[4] for r in rows)
    steps = [r[3] for r in rows]
    n_over = sum(1 for r in rows if r[4] > tol)
    ok = worst <= tol
    line = record(
        "1b",
        ok,
        f"analytic vs central-difference derivative (step 1e-4/spectral spread = "
        f"{min(steps):.2e} to {max(steps):.2e}, s in {{0.1,0.3}}, t=0.5): relative error "
        f"<= 1e-6 on {len(rows) - n_over} of {len(rows)} slices, worst {worst:.2e}",
    )
    table = "\n".join(
        f"  L={L} coupling={lam:>4g} s={s}: step {h:.2e}  rel error {rel:.3e}"
        f"{' > tol' if rel > tol else '      '}  abs diff {absdiff:.2e}  derivative norm {scale:.2e}"
        for (L, lam, s, h, rel, absdiff, scale) in rows
    )
    assert ok, f"{line}\n{table}"


# ---------------------------------------------------------------------------
# criterion 2: exact commutator norms never exceed the bounds


def test_criterion_2_exact_below_bounds():
    """Exact norm <= impurity-free bound everywhere; <= improved bound where it applies."""
    tol = 1e-9
    apriori_checked = main_checked = 0
    violations = []
    for half_length in SUITE_HALF_LENGTHS:
        for coupling in SUITE_COUPLINGS:
            geom, phi, imp, dd, a, b = suite_instance(half_length, coupling)
            params = LRParameters.compute(MU, phi.strength)
            sup_a = SiteSupport.single(-half_length)
            sup_b = SiteSupport.single(half_length)
            zero = np.zeros(geom.total_dim)
            exact_row = commutator_norm_table(dd.full.hamiltonian, [zero], a, b, geom, SUITE_T)[0][0]
            for t, exact in zip(SUITE_T, exact_row):
                ap = apriori_bound(params, t, sup_a.distance(sup_b))
                apriori_checked += 1
                if exact > ap + tol:
                    violations.append(
                        f"impurity-free: L={half_length} coupling={coupling:g} t={t}: {exact} > {ap}"
                    )
                outcome = main_bound(params, 2, sup_a, sup_b, imp, t)
                if outcome.applicable:
                    main_checked += 1
                    if exact > outcome.value + tol:
                        violations.append(
                            f"improved: L={half_length} coupling={coupling:g} t={t}: "
                            f"{exact} > {outcome.value}"
                        )
    ok = not violations and main_checked > 0
    line = record(
        "2",
        ok,
        f"exact commutator norms: 0 violations of the impurity-free bound on "
        f"{apriori_checked} grid points and 0 of the impurity-improved bound on the "
        f"{main_checked} points where its hypotheses hold (support separation 8 at L=4; "
        f"L=3 separation 6 < 7 is out of hypothesis)",
    )
    assert ok, line + "\n" + "\n".join(violations)


# ---------------------------------------------------------------------------
# criterion 3: the harness finds the improvement past the crossover coupling


def test_criterion_3_improvement_found_by_harness():
    """L=4 Heisenberg chain (J=1, mu=1), gap-2 impurity at 0, 41 grid times.

    With the explicit constants the ratio improved/impurity-free equals

        [C/(coupling*gap)] * v*t*e^(v*t) * mu*d*e^(-mu*d) / [C0*(e^(v*t)-1)*e^(-mu*d)],

    which is at least C*mu*d/(C0*coupling*gap) for every t, since
    v*t*e^(v*t) >= e^(v*t)-1.  That floor crosses 1 near coupling 4.3e6.  So
    at coupling 1e8 the verification harness must report at least one grid
    time where the impurity-improved bound beats the impurity-free one, and
    at coupling 50 it must report none, with every measured ratio at or above
    the floor (~8.5e4).
    """
    geom = ChainGeometry(4, 2)
    phi = NNInteraction(geom, bonds={x: heisenberg_bond(1.0) for x in range(-4, 4)})
    obs_a = ObservableSpec(-4, np.array(PAULI["sz"]), "sz")
    obs_b = ObservableSpec(4, np.array(PAULI["sz"]), "sz")
    grid = tuple(sorted(set(SUITE_T) | {float(x) for x in np.linspace(0.05, 2.0, 40)}))
    gap, d = 2.0, 8

    runs = {}
    for coupling in (1.0e8, 50.0):
        imp = ImpuritySpec.uniform([0], GAP_MATRIX, coupling)
        cfg = ExperimentConfig(geom, phi, imp, MU, obs_a, obs_b, grid, bound_set=("apriori", "main"))
        report = run_verify(cfg)
        params = cfg.parameters()
        floor = main_constant(params, 2) * MU * d / (params.C0 * coupling * gap)
        ratios = [
            rec.bounds["main"].value / rec.bounds["apriori"].value
            for rec in report.records
            if rec.bounds["main"].applicable and np.isfinite(rec.bounds["apriori"].value)
        ]
        runs[coupling] = (report, floor, ratios)

    big_report, big_floor, big_ratios = runs[1.0e8]
    report, floor, ratios = runs[50.0]
    points = [t for t, _, _ in big_report.improvement_points]
    ok = (
        len(points) >= 1
        and len(report.improvement_points) == 0
        and len(ratios) == len(grid)
        and min(ratios) >= floor
    )
    line = record(
        "3",
        ok,
        f"over {len(grid)} grid times the harness reports {len(points)} improvement points "
        f"(improved < impurity-free) at coupling 1e8"
        + (f", first at t={points[0]:g}" if points else "")
        + f", and {len(report.improvement_points)} at coupling 50, where the smallest "
        f"improved/impurity-free ratio {min(ratios):.3e} is >= the analytic floor "
        f"C*mu*d/(C0*coupling*gap) = {floor:.3e} on {len(ratios)} of {len(grid)} times",
    )
    assert ok, (
        f"{line}\n"
        f"coupling 1e8: improvement points at t = {points}; smallest ratio "
        f"{min(big_ratios):.4e}, floor {big_floor:.4e}; {len(big_report.violations)} violations\n"
        f"coupling 50: {len(report.improvement_points)} improvement points; smallest ratio "
        f"{min(ratios):.4e}, floor {floor:.4e}; applicable on {len(ratios)} of {len(grid)} times"
    )


# ---------------------------------------------------------------------------
# criterion 4: constants against independent brute force


def test_criterion_4_constants():
    """Lattice sums match brute force to 1e-10; C0 >= 1; the double-commutator
    constant 72*C0^2*e^(6*mu)/(1-e^(-mu)) is reproduced by the bound evaluator
    at window diameter 4 to 1e-12 relative."""
    worst_c = worst_k = worst_extract = 0.0
    c0_ok = True
    for mu in (0.5, 1.0, 2.0):
        params = LRParameters.compute(mu, 1.0)
        worst_c = max(worst_c, abs(params.c_mu - c_mu_bruteforce(mu, 200)))
        worst_k = max(worst_k, abs(params.K_mu - k_mu_bruteforce(mu, 300, 900)))
        c0_ok = c0_ok and params.C0 >= 1.0
        sup_a, sup_w, sup_b = SiteSupport(-10, -10), SiteSupport(-2, 2), SiteSupport(4, 10)
        got = double_commutator_bound(params, sup_a, sup_w, sup_b, s=0.0, t=0.0, variant="apriori")
        reach = site_distance(sup_w.lo - 1, sup_b)
        extracted = got / (reach * np.exp(-mu * sup_a.distance(sup_b)))
        closed = 72.0 * params.C0**2 * np.exp(6.0 * mu) / (1.0 - np.exp(-mu))
        worst_extract = max(worst_extract, abs(extracted - closed) / closed)
    ok = worst_c <= 1e-10 and worst_k <= 1e-10 and c0_ok and worst_extract <= 1e-12
    line = record(
        "4",
        ok,
        f"at mu in {{0.5,1,2}}: lattice sums match brute force (radius 200 / scan 300) "
        f"to {max(worst_c, worst_k):.1e} <= 1e-10; C0 >= 1 at each mu; double-commutator "
        f"constant matches its closed form to {worst_extract:.1e} <= 1e-12 relative",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: double-commutator bound and local-projection inequality


def test_criterion_5_double_commutator_and_projection():
    """Exact double commutators below the bound on random L=4 instances with a
    two-bond middle operator; projection inequality on 100 random operators."""
    tol = 1e-9
    violations = []
    checked = 0
    for seed, coupling in ((101, 1.0), (102, 5.0), (103, 50.0)):
        geom = ChainGeometry(4, 2)
        rng = np.random.default_rng(seed)
        bonds = {x: random_hermitian(rng, 4, norm=1.0) for x in range(-4, 4)}
        phi = NNInteraction(geom, bonds=bonds)
        imp = ImpuritySpec.uniform([0], GAP_MATRIX, coupling)
        ctx = EvolutionContext(build_perturbed_hamiltonian(phi, imp, geom), geom)
        params = LRParameters.compute(MU, phi.strength)
        w_local = DenseOperator(SiteSupport(-1, 1), random_hermitian(rng, 8, norm=2.0))
        w = embed_local(w_local, geom.full_support, geom)
        a = DenseOperator.single_site(-4, PAULI["sz"])
        b = DenseOperator.single_site(4, PAULI["sz"])
        for t, s in ((0.25, 0.1), (0.5, 0.3), (1.0, 0.5)):
            exact = operator_norm(commutator(commutator(w, ctx.evolve(a, t)), ctx.evolve(b, s)))
            bound = double_commutator_bound(
                params,
                SiteSupport.single(-4),
                SiteSupport(-1, 1),
                SiteSupport.single(4),
                s,
                t,
                norms=(1.0, 1.0, 2.0),
                variant="apriori",
            )
            checked += 1
            if exact > bound + tol:
                violations.append(f"seed {seed} t={t} s={s}: {exact} > {bound}")

    projection_checked = 0
    projection_violations = []
    cases = (
        (ChainGeometry(3, 2), SiteSupport(-1, 1), 60, 201),  # total dim 128
        (ChainGeometry(2, 3), SiteSupport(-1, 1), 40, 202),  # total dim 243
    )
    for geom, keep, n_ops, seed in cases:
        rng = np.random.default_rng(seed)
        for _ in range(n_ops):
            op = DenseOperator(geom.full_support, random_complex(rng, geom.total_dim))
            eps = local_commutator_epsilon(op, keep, geom)
            lhs = operator_norm(op - conditional_expectation(op, keep, geom))
            projection_checked += 1
            if lhs > eps * operator_norm(op) + tol:
                projection_violations.append(f"dim {geom.total_dim}: {lhs} > {eps * operator_norm(op)}")
    ok = not violations and not projection_violations and projection_checked == 100
    line = record(
        "5",
        ok,
        f"exact double commutators below the bound on {checked}/{checked} random two-bond "
        f"middle-operator instances; projection inequality "
        f"norm(op - projected) <= eps*norm(op) + 1e-9 on {projection_checked}/100 random "
        f"operators (chain dims 128 and 243)",
    )
    assert ok, line + "\n" + "\n".join(violations + projection_violations)


# ---------------------------------------------------------------------------
# criterion 6: decay/growth profile properties and the growth recursion


def test_criterion_6_profile_functions():
    """Decay profile nonincreasing past its peak; growth profiles nested; the
    integral recursion between consecutive growth profiles holds to 1e-8."""
    bad = []
    for mu in (0.5, 1.0, 2.0):
        for n in range(1, 7):
            grid = np.linspace(n / mu, n / mu + 50.0 / mu, 400)
            vals = np.array([decay_profile(n, mu, d) for d in grid])
            if not np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-12) + 1e-300):
                bad.append(f"decay profile n={n} mu={mu} not nonincreasing")

    params = LRParameters.compute(MU, 1.0)
    v = params.v
    ts = np.linspace(0.0, 5.0 / v, 50)
    for n in range(1, 6):
        lo = np.array([growth_profile(n, v, t) for t in ts])
        hi = np.array([growth_profile(n + 1, v, t) for t in ts])
        if not np.all(lo <= hi * (1.0 + 1e-12) + 1e-300):
            bad.append(f"growth profile ordering fails at n={n}")

    # closed-form base: the first profile is v*t*e^(v*t)
    for t in (0.1 / v, 1.0 / v, 5.0 / v):
        base = growth_profile(1, v, t)
        if abs(base - v * t * np.exp(v * t)) > 1e-12 * base:
            bad.append(f"growth profile base form fails at t={t}")

    # recursion: previous profile plus its convolution against e^(v s) stays
    # below the next profile (the inductive step holds from the second level;
    # the first level is the closed form checked above)
    worst_slack = -np.inf
    for n in range(2, 6):
        for t in np.linspace(0.0, 5.0 / v, 9)[1:]:
            conv, _ = integrate.quad(
                lambda s, tt=t, nn=n: growth_profile(nn - 1, v, tt - s) * np.exp(v * s),
                0.0,
                t,
                limit=200,
            )
            lhs = growth_profile(n - 1, v, t) + v * conv
            slack = lhs - growth_profile(n, v, t)
            worst_slack = max(worst_slack, slack)
            if slack > 1e-8:
                bad.append(f"growth recursion fails at n={n}, v*t={v * t:.3f}: excess {slack:.2e}")
    ok = not bad
    line = record(
        "6",
        ok,
        f"decay profiles nonincreasing past the peak (n <= 6, 400-point grids); growth "
        f"profiles nested; integral recursion holds on (n <= 5, t <= 5/v) with worst "
        f"excess {worst_slack:.2e} <= 1e-8",
    )
    assert ok, line + "\n" + "\n".join(bad)


# ---------------------------------------------------------------------------
# criterion 7: disorder pipeline (sampler, determinism, conditional bound)


@pytest.fixture(scope="module")
def disorder_sweep():
    cfg = DisorderConfig(
        mu=1.0, J=1.0, a=0.25, b=0.5, L=3, n_realizations=1000, seed=20260826, t_grid=(0.5,)
    )
    start = time.perf_counter()
    report = monte_carlo_sweep(cfg, threads=1)
    elapsed = time.perf_counter() - start
    return cfg, report, elapsed


def test_criterion_7_disorder_pipeline(disorder_sweep):
    cfg, report, elapsed = disorder_sweep
    rng = np.random.default_rng(424242)
    samples = sample_heavy_tail(0.25, rng.random(100_000))
    ks = stats.kstest(samples, lambda r: heavy_tail_cdf(0.25, r)).statistic

    rerun = monte_carlo_sweep(cfg, threads=1)
    threaded = monte_carlo_sweep(cfg, threads=4)
    identical = report.to_csv() == rerun.to_csv() == threaded.to_csv()

    ok = ks <= 0.01 and identical and report.violation_count == 0 and elapsed < 600.0
    line = record(
        "7",
        ok,
        f"heavy-tail sampler KS distance {ks:.5f} <= 0.01 at 1e5 draws; 1000-realization "
        f"sweep (L=3, t=0.5) byte-identical across a rerun and a 4-thread run; "
        f"{report.violation_count} conditional-bound violations among "
        f"{report.applicable_count} applicable rows (the separation hypothesis needs "
        f"half-length >= 3.5, so every L=3 row is out of hypothesis and the conditional "
        f"check is vacuous — {report.event_count} large-field events observed); "
        f"sweep took {elapsed:.1f}s < 600s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: the probability-bound substitution is documented in run output


def test_criterion_8_substitution_documented(disorder_sweep):
    """The asymptotic probability lower bound for the large-field event is not
    desk-reproducible; the run output must say so and report the empirical
    frequency with a Wilson interval instead."""
    _, report, _ = disorder_sweep
    doc = report.to_json_doc(wall_time_ms=1.0)
    serialized = json.dumps(doc)
    summary = "\n".join(report.summary_lines())
    lo, hi = report.wilson_95()
    ok = (
        "not reproducible" in report.note
        and "Wilson" in report.note
        and report.note in serialized
        and "Wilson" in summary
        # fp slack: at zero events the interval's lower edge is ~7e-18, not 0.0
        and 0.0 <= lo <= report.event_frequency + 1e-12
        and report.event_frequency <= hi <= 1.0
    )
    line = record(
        "8",
        ok,
        f"sweep output documents the substitution: empirical event frequency "
        f"{report.event_count}/{report.n_realizations} with Wilson 95% interval "
        f"[{lo:.4f}, {hi:.4f}] replaces the asymptotic probability lower bound, in both "
        f"the JSON report note and the text summary",
    )
    assert ok, line
