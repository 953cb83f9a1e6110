import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import comb

from lrchain.bounds import (
    BoundOutcome,
    ConvergenceError,
    LRParameters,
    apriori_bound,
    compute_K_mu,
    compute_c_mu,
    decay_profile,
    derivative_bound_constant,
    double_commutator_bound,
    growth_profile,
    main_bound,
    main_constant,
    single_impurity_bound,
    uniform_impurity_bound,
    window_decay_sum,
)
from lrchain.disorder import heisenberg_bond
from lrchain.geometry import ChainGeometry, SiteSupport, site_distance
from lrchain.harness import ExperimentConfig, ExperimentRecord, ObservableSpec, run_verify
from lrchain.model import ImpuritySpec, NNInteraction
from lrchain.operators import PAULI

MUS = (0.5, 1.0, 2.0)


def params_for(mu, phi_norm=3.0):
    return LRParameters.compute(mu, phi_norm)


class TestLatticeSums:
    @pytest.mark.parametrize("mu", MUS)
    def test_c_mu_against_direct_loop(self, mu):
        from util import c_mu_bruteforce

        value, tail = compute_c_mu(mu, 200)
        brute = c_mu_bruteforce(mu, 200)
        assert abs(value - brute) <= 1e-10

    @pytest.mark.parametrize("mu", MUS)
    def test_c_mu_tail_certifies_truncation(self, mu):
        from util import c_mu_bruteforce

        value, tail = compute_c_mu(mu, 50)
        longer = c_mu_bruteforce(mu, 4000)
        assert value <= longer + 1e-15
        assert longer <= value + tail

    def test_c_mu_domain(self):
        with pytest.raises(ValueError):
            compute_c_mu(0.0, 10)
        with pytest.raises(ValueError):
            compute_c_mu(1.0, -1)

    @pytest.mark.parametrize("mu", MUS)
    def test_k_mu_against_double_loop(self, mu):
        from util import k_mu_bruteforce

        got = compute_K_mu(mu, 300)
        brute = k_mu_bruteforce(mu, scan=300, z_radius=900)
        assert abs(got - brute) <= 1e-10

    def test_k_mu_exceeds_large_separation_limit(self):
        # the separation profile tends to pi^2 / 3 at large separation; the
        # supremum is attained at an interior peak strictly above that limit
        for mu in MUS:
            k = compute_K_mu(mu, 300)
            assert np.pi**2 / 3 < k < 4.0

    def test_k_mu_edge_maximizer_is_an_error(self):
        with pytest.raises(ConvergenceError, match="edge"):
            compute_K_mu(0.05, 4)

    def test_k_mu_domain(self):
        with pytest.raises(ValueError):
            compute_K_mu(-1.0, 10)
        with pytest.raises(ValueError):
            compute_K_mu(1.0, 0)


class TestLRParameters:
    @pytest.mark.parametrize("mu", MUS)
    def test_derived_quantities(self, mu):
        p = params_for(mu)
        assert abs(p.C0 - 10.0 * p.c_mu / p.K_mu) <= 1e-12 * p.C0
        assert abs(p.v - 8.0 * np.exp(mu) * p.K_mu * p.phi_norm) <= 1e-10 * p.v
        assert p.C0 >= 1.0
        assert p.tail_bound <= 1e-12 * p.c_mu

    def test_zero_interaction_gives_zero_velocity(self):
        p = LRParameters.compute(1.0, 0.0)
        assert p.v == 0.0

    def test_fixed_radius_too_small_fails(self):
        with pytest.raises(ConvergenceError):
            LRParameters.compute(0.05, 1.0, radius=4)

    def test_automatic_radius_grows_until_converged(self):
        p = LRParameters.compute(0.05, 1.0)
        assert p.series_radius > 128

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            LRParameters.compute(0.0, 1.0)
        with pytest.raises(ValueError):
            LRParameters.compute(1.0, -2.0)


class TestAprioriBound:
    def test_formula(self):
        p = params_for(1.0)
        for t, d, scale in [(0.25, 8, 1.0), (1.0, 3, 2.5), (-0.5, 0, 4.0)]:
            want = p.C0 * np.expm1(p.v * abs(t)) * np.exp(-p.mu * d) * scale
            assert abs(apriori_bound(p, t, d, scale) - want) <= 1e-12 * max(want, 1.0)

    def test_zero_time_and_even_in_time(self):
        p = params_for(1.0)
        assert apriori_bound(p, 0.0, 5) == 0.0
        assert apriori_bound(p, -0.3, 5) == apriori_bound(p, 0.3, 5)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            apriori_bound(params_for(1.0), 0.5, -1)


class TestProfiles:
    def test_formulas(self):
        for n in range(1, 5):
            assert abs(decay_profile(n, 0.7, 4.0) - (0.7 * 4.0) ** n * np.exp(-2.8)) <= 1e-14
            w = 1.3 * 0.9
            want = w * (1 + w) ** (n - 1) * np.exp(w)
            assert abs(growth_profile(n, 1.3, 0.9) - want) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            decay_profile(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            decay_profile(1, 1.0, -1.0)
        with pytest.raises(ValueError):
            growth_profile(0, 1.0, 1.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_decay_nonincreasing_past_peak(self, n):
        for mu in MUS:
            d = np.linspace(n / mu, n / mu + 50.0 / mu, 400)
            vals = np.array([decay_profile(n, mu, x) for x in d])
            assert np.all(np.diff(vals) <= 1e-15)

    def test_growth_monotone_in_order(self):
        v = 2.0
        for t in (0.1, 1.0, 4.0):
            for n in range(1, 6):
                assert growth_profile(n, v, t) <= growth_profile(n + 1, v, t)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_growth_closes_the_iteration_inequality(self, n):
        # the inductive step: previous order plus the memory integral stays
        # below the next order, with slack
        v = 2.0
        for t in np.linspace(0.0, 5.0 / v, 9):
            integral = quad(
                lambda s: growth_profile(n - 1, v, t - s) * np.exp(v * s), 0.0, t, limit=100
            )[0]
            lhs = growth_profile(n - 1, v, t) + v * integral
            assert lhs <= growth_profile(n, v, t) + 1e-8


class TestConstants:
    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("local_dim", [2, 3])
    def test_main_constant_closed_form(self, mu, local_dim):
        p = params_for(mu)
        want = (
            444.0
            * p.C0**2
            * np.exp(5.0 * mu)
            / (mu * (1.0 - np.exp(-mu)))
            * p.phi_norm
            * comb(local_dim, 2) ** 2
        )
        got = main_constant(p, local_dim)
        assert abs(got - want) <= 1e-12 * want

    def test_main_constant_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            main_constant(params_for(1.0), 1)

    @pytest.mark.parametrize("mu", MUS)
    def test_derivative_constant_closed_form(self, mu):
        p = params_for(mu)
        want = 218.0 * p.C0**2 * np.exp(5.0 * mu) / (mu * (1.0 - np.exp(-mu)))
        assert abs(derivative_bound_constant(p) - want) <= 1e-12 * want


def window_instance(sites=(0,), coupling=50.0, gap_matrix=None):
    m = gap_matrix if gap_matrix is not None else np.diag([1.0, -1.0])
    return ImpuritySpec.uniform(list(sites), m, coupling)


SA, SB = SiteSupport(-4, -4), SiteSupport(4, 4)


class TestMainBound:
    def test_empty_window_falls_back_to_apriori(self):
        p = params_for(1.0)
        out = main_bound(p, 2, SA, SB, ImpuritySpec.empty(), 0.5)
        assert out.applicable
        assert out.window == ()
        assert abs(out.value - apriori_bound(p, 0.5, 8)) <= 1e-12 * out.value
        assert "fallback" in out.reason

    def test_value_formula(self):
        p = params_for(1.0)
        sa, sb = SiteSupport(-8, -8), SiteSupport(8, 8)
        imp = window_instance(sites=(-3, 3), coupling=50.0)
        out = main_bound(p, 2, sa, sb, imp, 0.25, scale=4.0)
        assert out.applicable and out.window == (-3, 3)
        c = main_constant(p, 2)
        product = (50.0 * 2.0) ** 2
        want = c**2 / product * growth_profile(2, p.v, 0.25) * decay_profile(2, 1.0, 16) * 4.0
        assert abs(out.value - want) <= 1e-10 * want
        assert abs(out.prefactor_product - product) <= 1e-9

    def test_too_close_supports_not_applicable(self):
        p = params_for(1.0)
        out = main_bound(p, 2, SiteSupport(-3, -3), SiteSupport(3, 3), window_instance(), 0.5)
        assert not out.applicable
        assert "too close" in out.reason
        assert out.value is None

    def test_spacing_hypothesis(self):
        p = params_for(1.0)  # needs spacing > max(1/mu, 2) = 2
        tight = window_instance(sites=(-2, 0, 2))
        out = main_bound(p, 2, SA, SB, tight, 0.5)
        assert not out.applicable and "spacing" in out.reason
        loose = window_instance(sites=(-3, 0, 3))
        assert main_bound(p, 2, SA, SB, loose, 0.5).applicable

    def test_spacing_threshold_depends_on_mu(self):
        p = params_for(0.25)  # max(1/mu, 2) = 4: spacing 3 now fails
        out = main_bound(p, 2, SA, SB, window_instance(sites=(-3, 0, 3)), 0.5)
        assert not out.applicable and "spacing" in out.reason

    def test_crossover_at_strong_coupling(self):
        # with a strong enough impurity the improved bound beats the a-priori
        # one even inside the light cone
        p = params_for(1.0)
        imp = window_instance(coupling=1e8)
        t = 1.0 / p.v
        out = main_bound(p, 2, SA, SB, imp, t)
        ap = apriori_bound(p, t, 8)
        assert out.applicable and out.window == (0,)
        assert out.value < ap

    def test_weak_coupling_is_worse_than_apriori_here(self):
        # documents why a coupling of 50 shows no improvement at this geometry
        p = params_for(1.0)
        out = main_bound(p, 2, SA, SB, window_instance(coupling=50.0), 0.25)
        assert out.value > apriori_bound(p, 0.25, 8)


class TestUniformBound:
    def test_dominates_main_bound(self):
        p = params_for(1.0)
        for n_sites, t in [((0,), 0.3), ((-3, 0, 3), 0.7), ((-3, 3), 2.0)]:
            imp = window_instance(sites=n_sites, coupling=40.0)
            u = uniform_impurity_bound(p, 2, SA, SB, imp, t)
            m = main_bound(p, 2, SA, SB, imp, t)
            assert u.applicable and m.applicable
            assert u.value >= m.value * (1.0 - 1e-12)

    def test_value_formula(self):
        p = params_for(1.0)
        imp = window_instance(sites=(0,), coupling=40.0)
        out = uniform_impurity_bound(p, 2, SA, SB, imp, 0.5)
        k = main_constant(p, 2) / 2.0
        w = p.v * 0.5
        want = (k * 1.0 * 8 * (1 + w) / 40.0) * np.exp(w) * np.exp(-8.0)
        assert abs(out.value - want) <= 1e-10 * want

    def test_requires_uniform_family(self):
        p = params_for(1.0)
        empty = uniform_impurity_bound(p, 2, SA, SB, ImpuritySpec.empty(), 0.5)
        assert empty == BoundOutcome.not_applicable("uniform impurity bound needs at least one impurity")
        mixed = ImpuritySpec.uniform([-3, 3], np.diag([1.0, -1.0]), {-3: 1.0, 3: 2.0})
        out = uniform_impurity_bound(p, 2, SA, SB, mixed, 0.5)
        assert out == BoundOutcome.not_applicable(
            "uniform impurity bound needs identical on-site matrices and couplings at every site"
        )

    def test_hypothesis_failure_propagates(self):
        p = params_for(1.0)
        out = uniform_impurity_bound(
            p, 2, SiteSupport(-2, -2), SiteSupport(2, 2), window_instance(), 0.5
        )
        assert not out.applicable


class TestSingleImpurityBound:
    def test_value_formula_and_dominated_by_main(self):
        p = params_for(1.0)
        imp = window_instance(sites=(1,), coupling=30.0)
        out = single_impurity_bound(p, 2, SA, SB, imp, 1, 0.5)
        # reach: min(d(site - 3, S_B), d(site + 3, S_A)) = min(d(-2,4), d(4,-4)) = min(6, 8)
        reach = min(site_distance(-2, SB), site_distance(4, SA))
        assert reach == 6
        c = main_constant(p, 2)
        want = c / 60.0 * growth_profile(1, p.v, 0.5) * 1.0 * reach * np.exp(-8.0)
        assert abs(out.value - want) <= 1e-10 * want
        m = main_bound(p, 2, SA, SB, imp, 0.5)
        assert out.value <= m.value * (1.0 + 1e-12)

    def test_centered_site_reach(self):
        p = params_for(1.0)
        imp = window_instance(sites=(0,), coupling=30.0)
        out = single_impurity_bound(p, 2, SA, SB, imp, 0, 0.5)
        assert out.applicable
        assert out.window == (0,)

    def test_site_outside_window_not_applicable(self):
        p = params_for(1.0)
        imp = window_instance(sites=(3,), coupling=30.0)  # window is [-1, 1]
        out = single_impurity_bound(p, 2, SA, SB, imp, 3, 0.5)
        assert not out.applicable and "outside the window" in out.reason


class TestWindowDecaySum:
    def test_matches_direct_recomputation(self):
        p = params_for(1.0)
        sa, sw, sb = SiteSupport(-10, -10), SiteSupport(-2, 2), SiteSupport(6, 12)

        def decay(d):
            return np.exp(-p.mu * d)

        got = window_decay_sum(decay, p.mu, sa, sw, sb)
        d_ab, d_aw, d_wb = sa.distance(sb), sa.distance(sw), sw.distance(sb)
        depth = d_wb + sw.diam + 1
        want = decay(d_ab) + decay(d_aw - 1) * np.exp(-p.mu * d_wb)
        for m in range(1, depth + 1):
            want += decay(d_aw + m - 2) * np.exp(-p.mu * (depth - m))
        assert abs(got - want) <= 1e-12 * want

    def test_rejects_unordered_supports(self):
        def decay(d):
            return np.exp(-d)

        with pytest.raises(ValueError, match="ordered"):
            window_decay_sum(decay, 1.0, SiteSupport(-1, 0), SiteSupport(0, 2), SiteSupport(5, 6))
        with pytest.raises(ValueError, match="ordered"):
            window_decay_sum(decay, 1.0, SiteSupport(-5, -4), SiteSupport(-2, 2), SiteSupport(2, 3))


class TestDoubleCommutatorBound:
    def test_apriori_variant_formula(self):
        p = params_for(1.0)
        sa, sw, sb = SiteSupport(-10, -10), SiteSupport(-2, 2), SiteSupport(4, 10)
        got = double_commutator_bound(p, sa, sw, sb, s=0.2, t=0.5, norms=(2.0, 3.0, 0.5))
        lead = 72.0 * p.C0**2 * np.exp(p.mu * (sw.diam + 2)) / (1.0 - np.exp(-p.mu))
        want = lead * 3.0 * np.exp(p.v * 0.7) * site_distance(-3, sb) * np.exp(-p.mu * 14)
        assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("mu", MUS)
    def test_constant_extraction_at_window_diameter_four(self, mu):
        # evaluating at diam S_W = 4 and dividing out the geometry factors
        # recovers 72 C0^2 e^{6 mu} / (1 - e^{-mu}) exactly
        p = params_for(mu)
        sa, sw, sb = SiteSupport(-10, -10), SiteSupport(-2, 2), SiteSupport(4, 10)
        got = double_commutator_bound(p, sa, sw, sb, s=0.0, t=0.0)
        reach = site_distance(sw.lo - 1, sb)
        recovered = got / (reach * np.exp(-mu * sa.distance(sb)))
        want = 72.0 * p.C0**2 * np.exp(6.0 * mu) / (1.0 - np.exp(-mu))
        assert abs(recovered - want) <= 1e-12 * want

    def test_general_variant_formula(self):
        p = params_for(1.0)
        sa, sw, sb = SiteSupport(-8, -8), SiteSupport(-1, 1), SiteSupport(4, 8)

        def growth(t):
            return np.expm1(p.v * abs(t))

        def decay(d):
            return np.exp(-p.mu * d)

        got = double_commutator_bound(
            p, sa, sw, sb, s=0.3, t=0.6,
            variant="general", prefactor=p.C0, growth=growth, decay=decay,
        )
        lead = 24.0 * p.C0 * np.exp(p.mu) / (1.0 - np.exp(-p.mu)) * p.C0
        want = lead * growth(0.6) * np.exp(p.v * 0.3) * window_decay_sum(decay, p.mu, sa, sw, sb)
        assert abs(got - want) <= 1e-10 * want

    def test_general_variant_needs_assumed_bound(self):
        p = params_for(1.0)
        sa, sw, sb = SiteSupport(-8, -8), SiteSupport(-1, 1), SiteSupport(4, 8)
        with pytest.raises(ValueError, match="general variant"):
            double_commutator_bound(p, sa, sw, sb, s=0.1, t=0.1, variant="general")

    def test_unknown_variant(self):
        p = params_for(1.0)
        sa, sw, sb = SiteSupport(-8, -8), SiteSupport(-1, 1), SiteSupport(4, 8)
        with pytest.raises(ValueError, match="unknown variant"):
            double_commutator_bound(p, sa, sw, sb, s=0.1, t=0.1, variant="sharp")

    def test_rejects_unordered_supports(self):
        p = params_for(1.0)
        with pytest.raises(ValueError, match="ordered"):
            double_commutator_bound(
                p, SiteSupport(-1, 0), SiteSupport(0, 1), SiteSupport(4, 5), s=0.1, t=0.1
            )


class TestBoundReport:
    # a verify record carries each bound next to the exact norm it is checked against

    @staticmethod
    def record(exact, *bounds):
        return ExperimentRecord(0.5, 8, 0, exact, bounds, 0.0)

    def test_report_fields(self):
        geom = ChainGeometry(4, 2)
        phi = NNInteraction(geom, uniform_bond=heisenberg_bond(1.0))
        imp = window_instance(sites=(0,), coupling=50.0)
        sz = np.array(PAULI["sz"])
        cfg = ExperimentConfig(
            geom, phi, imp, 1.0, ObservableSpec(-4, sz, "sz"), ObservableSpec(4, sz, "sz"), (0.5,)
        )
        rep = run_verify(cfg).records[0]
        p = cfg.parameters()
        assert rep.t == 0.5 and rep.distance == 8 and rep.window_size == 1
        assert rep.bound("main").prefactor_product == 100.0
        assert rep.bound("apriori").value == apriori_bound(p, 0.5, 8)
        assert rep.bound("main").value == main_bound(p, 2, SA, SB, imp, 0.5).value

    def test_violation_messages(self):
        good = self.record(1.0, ("apriori", BoundOutcome(2.0, True)), ("main", BoundOutcome(1.5, True)))
        assert good.violations() == []
        bad = self.record(1.0, ("apriori", BoundOutcome(0.5, True)), ("main", BoundOutcome(0.25, True)))
        msgs = bad.violations()
        assert len(msgs) == 2
        assert "apriori" in msgs[0] and "main" in msgs[1]

    def test_no_exact_no_violations(self):
        # a vanishing exact norm meets a zero bound, and an inapplicable bound is never compared
        rep = self.record(
            0.0, ("apriori", BoundOutcome(0.0, True)), ("main", BoundOutcome.not_applicable("x"))
        )
        assert rep.violations() == []
