import dataclasses
import json
import re
from math import ceil, log

import numpy as np
import pytest
from scipy.stats import kstest

from lrchain import disorder, dynamics
from lrchain.bounds import main_constant
from lrchain.disorder import (
    SUBSTITUTION_NOTE,
    SWEEP_CSV_HEADER,
    DisorderConfig,
    SparseFieldChain,
    SweepReport,
    SweepRow,
    default_epsilon,
    heisenberg_bond,
    large_deviation_indicator,
    lr_parameters,
    monte_carlo_sweep,
    sample_couplings,
    sample_heavy_tail,
    splitmix64,
    wilson_interval,
)
from lrchain.dynamics import RECONSTRUCTION_TOL, EvolutionContext, commutator_norm_table, connected_components
from lrchain.model import build_perturbed_hamiltonian
from lrchain.operators import PAULI, DenseOperator, commutator, embed_local, operator_norm
from util import assert_json_object_errors, chain_hamiltonian_oracle, ed_floor, heavy_tail_cdf, heisenberg_sparse_field_model


def sz_edge_pair(cfg):
    return DenseOperator.single_site(-cfg.L, PAULI["sz"]), DenseOperator.single_site(cfg.L, PAULI["sz"])


def dense_commutator_norms(h, a, b, geom, times) -> list:
    """|| [ exp(itH) A exp(-itH), B ] || at each time, by evolving A in the computational basis."""
    ctx = EvolutionContext(h, geom)
    b_full = embed_local(b, geom.full_support, geom)
    return [operator_norm(commutator(ctx.evolve(a, t), b_full)) for t in times]


def config(**overrides):
    base = dict(
        mu=1.0, J=1.0, a=0.25, b=0.5, L=3, n_realizations=4, seed=7, t_grid=(0.5,)
    )
    base.update(overrides)
    return DisorderConfig(**base)


def closed_form_bound(cfg, t):
    """e^{v t} * e^{-2 mu L} * e^{-(2L+1)^(1-b) ln(2L+1)}: growth times the half-length factor."""
    p = lr_parameters(cfg)
    n = 2 * cfg.L + 1
    return np.exp(p.v * t) * (np.exp(-2.0 * cfg.mu * cfg.L) * np.exp(-(n ** (1.0 - cfg.b)) * log(n)))


class TestSplitMix64:
    def test_reference_first_output(self):
        # the canonical SplitMix64 sequence for state 0 starts with this word
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF

    def test_streams_are_disjoint_and_deterministic(self):
        seen = {splitmix64(42, i) for i in range(1000)}
        assert len(seen) == 1000
        assert splitmix64(42, 17) == splitmix64(42, 17)
        assert splitmix64(42, 17) != splitmix64(43, 17)

    def test_output_fits_64_bits(self):
        for i in range(50):
            v = splitmix64((1 << 64) - 1, i)
            assert 0 <= v < (1 << 64)

    def test_consecutive_indices_follow_one_stream(self):
        # index i is the (i+1)-th output of the plain generator seeded at `seed`
        golden = 0x9E3779B97F4A7C15
        assert splitmix64(0, 1) == splitmix64(golden, 0)
        assert splitmix64(5, 3) == splitmix64((5 + 2 * golden) % (1 << 64), 1)


class TestHeavyTailSampler:
    def test_inverse_cdf_round_trip(self):
        a = 0.25
        for u in (0.0, 0.1, 0.5, 0.9, 0.9999):
            r = sample_heavy_tail(a, u)
            assert r >= 1.0
            assert abs(heavy_tail_cdf(a, r) - u) <= 1e-12

    def test_vectorized(self):
        u = np.linspace(0.0, 0.99, 50)
        r = sample_heavy_tail(0.3, u)
        assert isinstance(r, np.ndarray)
        assert np.all(np.diff(r) > 0)  # the transform is strictly increasing

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_heavy_tail(0.0, 0.5)
        with pytest.raises(ValueError):
            sample_heavy_tail(0.25, 1.0)
        with pytest.raises(ValueError):
            sample_heavy_tail(0.25, -0.1)

    def test_kolmogorov_smirnov_at_target_exponent(self):
        a = 0.25
        rng = np.random.Generator(np.random.Philox(key=splitmix64(12345, 0)))
        samples = sample_heavy_tail(a, rng.random(100_000))
        result = kstest(samples, lambda r: heavy_tail_cdf(a, r))
        assert result.statistic <= 0.01

    def test_running_maximum_grows(self):
        # heavy tails: the largest of n draws grows roughly like n^(1/a)
        rng = np.random.Generator(np.random.Philox(key=1))
        small = sample_heavy_tail(0.25, rng.random(100)).max()
        large = sample_heavy_tail(0.25, rng.random(100_000)).max()
        assert large > small


class TestHeisenbergBond:
    @pytest.mark.parametrize("j", [1.0, 0.5, 2.5])
    def test_spectrum_and_norm(self, j):
        m = heisenberg_bond(j)
        assert np.max(np.abs(m - m.conj().T)) == 0.0
        evals = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(evals, [-j, -j, -j, 3 * j])
        assert abs(operator_norm(m) - 3 * j) <= 1e-12

    def test_lr_parameters_use_exact_norm(self):
        cfg = config(J=2.0)
        p = lr_parameters(cfg)
        assert p.phi_norm == 6.0
        assert p.mu == cfg.mu


class TestDisorderConfig:
    def test_spacing(self):
        assert config(mu=1.0).spacing == 2
        assert config(mu=0.25).spacing == 4
        assert config(mu=0.3).spacing == ceil(1.0 / 0.3)
        assert config(mu=10.0).spacing == 2

    def test_field_and_event_sites(self):
        cfg = config(mu=1.0, L=3)  # spacing 2
        assert cfg.field_sites() == (-2, 0, 2)
        assert cfg.event_sites() == (-6, -4, -2, 0, 2, 4, 6)
        wide = config(mu=0.25, L=5)  # spacing 4
        assert wide.field_sites() == (-4, 0, 4)
        assert wide.event_sites() == (-8, -4, 0, 4, 8)

    def test_sites_match_sublattice_oracle(self):
        for cfg in (config(mu=1.0, L=4), config(mu=0.4, L=6), config(mu=2.0, L=3)):
            s = cfg.spacing
            want_field = tuple(x for x in range(-cfg.L, cfg.L + 1) if x % s == 0)
            want_event = tuple(x for x in range(-cfg.L - 3, cfg.L + 4) if x % s == 0)
            assert cfg.field_sites() == want_field
            assert cfg.event_sites() == want_event

    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            config(mu=0.0)
        with pytest.raises(ValueError, match="J"):
            config(J=-1.0)
        with pytest.raises(ValueError, match="tail exponent"):
            config(a=0.5)
        with pytest.raises(ValueError, match="event exponent"):
            config(b=0.2)  # must exceed a = 0.25
        with pytest.raises(ValueError, match="half-length"):
            config(L=0)
        with pytest.raises(ValueError, match="n_realizations"):
            config(n_realizations=-1)
        with pytest.raises(ValueError, match="seed"):
            config(seed=1 << 64)
        with pytest.raises(ValueError, match="t_grid"):
            config(t_grid=())
        with pytest.raises(ValueError, match="nonnegative"):
            config(t_grid=(-0.5,))
        with pytest.raises(ValueError, match="epsilon"):
            config(epsilon=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["mu", "J", "epsilon", "t_grid"])
    def test_rejects_non_finite_numbers(self, field, value):
        # nan passes every `<= 0` test and inf sweeps to nan bounds, so each field is checked by name
        given = (value,) if field == "t_grid" else value
        with pytest.raises(ValueError, match=f"{field}( entries)? must be finite"):
            config(**{field: given})
        with pytest.raises(ValueError, match=f"{field}( entries)? must be finite"):
            dataclasses.replace(config(), **{field: given})

    def test_from_json(self, tmp_path):
        doc = {
            "mu": 1.0, "J": 1.0, "a": 0.25, "b": 0.5, "L": 3,
            "n_realizations": 10, "seed": 99, "t_grid": [0.25, 0.5],
        }
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(doc))
        cfg = DisorderConfig.from_json(p)
        assert cfg.L == 3 and cfg.t_grid == (0.25, 0.5) and cfg.epsilon is None
        assert cfg.L_exact == 3

    def test_from_json_errors(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mu": 1.0}))
        with pytest.raises(ValueError, match="missing required keys"):
            DisorderConfig.from_json(p)
        p.write_text(json.dumps({
            "mu": 1.0, "J": 1.0, "a": 0.25, "b": 0.5, "L": 3,
            "n_realizations": 1, "seed": 0, "t_grid": [0.5], "extra": 1,
        }))
        with pytest.raises(ValueError, match="unknown keys"):
            DisorderConfig.from_json(p)
        good = {
            "mu": 1.0, "J": 1.0, "a": 0.25, "b": 0.5, "L": 3,
            "n_realizations": 1, "seed": 0, "t_grid": [0.5],
        }
        # integer fields must be JSON integers, and every field carries its JSON path
        for key, value, kind in [
            ("L", 3.9, "an integer"),
            ("L", "3", "an integer"),
            ("seed", 1.7, "an integer"),
            ("n_realizations", True, "an integer"),
            ("L_exact", 4.9, "an integer"),
            ("mu", "1", "a number"),
            ("mu", float("nan"), "a number"),
            ("epsilon", float("inf"), "a number"),
            ("t_grid", "0.5", "a list of numbers"),
        ]:
            p.write_text(json.dumps({**good, key: value}))
            with pytest.raises(ValueError, match=re.escape(f"{p}.{key}: expected {kind}, got {value!r}")):
                DisorderConfig.from_json(p)
        p.write_text(json.dumps({**good, "t_grid": [0.5, None]}))
        with pytest.raises(ValueError, match=re.escape(f"{p}.t_grid[1]: expected a number")):
            DisorderConfig.from_json(p)
        p.write_text("[]")
        with pytest.raises(ValueError, match="top-level"):
            DisorderConfig.from_json(p)
        p.write_text("{nope")
        with pytest.raises(ValueError, match="bad.json:1"):
            DisorderConfig.from_json(p)
        with pytest.raises(ValueError, match="missing.json"):
            DisorderConfig.from_json(tmp_path / "missing.json")
        assert_json_object_errors(DisorderConfig.from_json, tmp_path, ValueError)


class TestRealizationModel:
    def test_hamiltonian_matches_embedding_oracle(self):
        cfg = config(L=1, mu=1.0, J=1.5)  # field sites: {0}
        couplings = {x: 2.0 for x in cfg.event_sites()}
        chain = SparseFieldChain(cfg)
        h = chain.exchange.matrix + np.diag(chain.field(couplings))
        bonds = {-1: heisenberg_bond(1.5), 0: heisenberg_bond(1.5)}
        fields = {0: 2.0 * PAULI["sz"]}
        want = chain_hamiltonian_oracle(bonds, fields, 1, 2)
        assert np.allclose(h, want)

    def test_fields_only_on_sublattice(self):
        cfg = config(L=3)
        couplings = {x: 1.5 for x in cfg.event_sites()}
        geom, phi, imp = heisenberg_sparse_field_model(cfg, couplings)
        assert imp.sites == cfg.field_sites()
        assert imp.coupling(0) == 1.5

    def test_rejects_subunit_strengths(self):
        cfg = config(L=3)
        couplings = {x: 1.5 for x in cfg.event_sites()}
        couplings[0] = 0.5
        with pytest.raises(ValueError, match="support starts at 1"):
            heisenberg_sparse_field_model(cfg, couplings)

    def test_rejects_missing_sites(self):
        cfg = config(L=3)
        couplings = {x: 1.5 for x in cfg.event_sites() if x != 2}
        with pytest.raises(ValueError, match="missing couplings"):
            heisenberg_sparse_field_model(cfg, couplings)

    def test_chain_builder_validates_like_the_model(self):
        cfg = config(L=3)
        chain = SparseFieldChain(cfg)
        couplings = {x: 1.5 for x in cfg.event_sites()}
        subunit = {**couplings, 0: 0.5}
        missing = {x: lam for x, lam in couplings.items() if x != 2}
        for bad, pattern in ((subunit, "support starts at 1"), (missing, "missing couplings")):
            with pytest.raises(ValueError, match=pattern) as want:
                heisenberg_sparse_field_model(cfg, bad)
            with pytest.raises(ValueError, match=pattern) as got:
                chain.field(bad)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("half_length", [3, 4])
    def test_sweep_hamiltonians_equal_generic_build(self, half_length, monkeypatch):
        # the sweep adds each realization's field diagonal to one exchange
        # build; embedded sz is exactly +-1, so every entry must agree exactly.
        # It hands the exchange chain and the diagonals to the stacked table,
        # which eigendecomposes each S^z sector of a chunk of realizations
        # as one stack: every member must be the generic build on that sector.
        cfg = config(L=half_length, L_exact=half_length, n_realizations=10)
        tables, stacks = [], []
        table = disorder.commutator_norm_table
        spectral = dynamics.hermitian_spectral

        def recording_table(h0, diagonals, *args):
            diagonals = list(diagonals)
            tables.append((h0.matrix, np.array(diagonals)))
            return table(h0, diagonals, *args)

        def recording_spectral(m, *args):
            stacks.append(np.array(m))
            return spectral(m, *args)

        monkeypatch.setattr(disorder, "commutator_norm_table", recording_table)
        monkeypatch.setattr(dynamics, "hermitian_spectral", recording_spectral)
        monte_carlo_sweep(cfg)
        assert len(tables) == 1
        exchange, diagonals = tables[0]
        assert diagonals.shape == (cfg.n_realizations, 2 ** (2 * half_length + 1))
        chain = SparseFieldChain(cfg)
        assert np.array_equal(exchange, chain.exchange.matrix)
        generic = []
        for r, d in enumerate(diagonals):
            h = exchange + np.diag(d)
            _, couplings = sample_couplings(cfg, r)
            geom, phi, imp = heisenberg_sparse_field_model(cfg, couplings)
            generic.append(build_perturbed_hamiltonian(phi, imp, geom).matrix)
            assert np.array_equal(h, generic[r]), r
            assert np.array_equal(d, chain.field(couplings)), r
        sectors = connected_components(exchange != 0)
        assert len(sectors) == 2 * half_length + 2
        pending = iter(stacks)
        first = 0
        while first < cfg.n_realizations:
            for idx in sectors:
                stack = next(pending)
                assert stack.shape[1:] == (len(idx), len(idx))
                for i, member in enumerate(stack):
                    assert np.array_equal(member, generic[first + i][np.ix_(idx, idx)]), (first + i, idx)
            first += len(stack)
        assert first == cfg.n_realizations
        assert next(pending, None) is None


class TestLargeDeviationEvent:
    def test_threshold_and_count(self):
        cfg = config(L=1, b=0.5)  # event sites {-4,-2,0,2,4}, need >= 3^0.5 ~ 1.73 -> 2 hits
        sites = cfg.event_sites()
        eps = 1.0  # threshold eps * (2L+1) = 3
        base = {x: 1.0 for x in sites}
        assert not large_deviation_indicator(base, cfg, eps)
        one_hit = {**base, 0: 3.0}
        assert not large_deviation_indicator(one_hit, cfg, eps)
        two_hits = {**base, 0: 3.0, 4: 5.0}
        assert large_deviation_indicator(two_hits, cfg, eps)

    def test_boundary_value_counts(self):
        cfg = config(L=1, b=0.5)
        sites = cfg.event_sites()
        exactly_at = {x: 3.0 for x in sites}  # all sites exactly at threshold
        assert large_deviation_indicator(exactly_at, cfg, 1.0)

    def test_sites_outside_chain_count(self):
        # the event window reaches 3 sites past each chain end
        cfg = config(L=1, b=0.5)
        outside_only = {x: 1.0 for x in cfg.event_sites()}
        outside_only[-4] = 10.0
        outside_only[4] = 10.0
        assert large_deviation_indicator(outside_only, cfg, 1.0)

    def test_missing_site_is_an_error(self):
        cfg = config(L=1)
        couplings = {x: 2.0 for x in cfg.event_sites() if x != -4}
        with pytest.raises(ValueError, match="missing couplings"):
            large_deviation_indicator(couplings, cfg, 1.0)


def sweep_bounds(cfg):
    """{t: bound} from a sweep's rows; L_exact = 0 skips the exact dynamics."""
    rows = monte_carlo_sweep(dataclasses.replace(cfg, L_exact=0)).rows
    return {row.t: row.bound for row in rows}


class TestDisorderBound:
    def test_formula(self):
        cfg = config(L=3, b=0.5, t_grid=(0.0, 0.5, 2.0))
        p = lr_parameters(cfg)
        n = 2 * cfg.L + 1
        got = sweep_bounds(cfg)
        for t in (0.0, 0.5, 2.0):
            want = np.exp(p.v * t) * np.exp(-2.0 * cfg.mu * cfg.L) * np.exp(-(n ** 0.5) * log(n))
            assert abs(got[t] - want) <= 1e-12 * max(want, 1e-300)

    def test_half_length_zero_degenerates(self):
        # at half-length 0 the bound is e^{v|t|}; at any half-length the
        # extra factor does not depend on t, so bound(t) = e^{v t} bound(0)
        cfg = config(t_grid=(0.0, 0.7))
        p = lr_parameters(cfg)
        got = sweep_bounds(cfg)
        assert abs(got[0.7] / got[0.0] - np.exp(p.v * 0.7)) <= 1e-9 * np.exp(p.v * 0.7)

    def test_scale_and_domain(self):
        # the rows bound unit-norm edge observables, the same for every realization
        cfg = config(n_realizations=3, L_exact=0)
        rows = monte_carlo_sweep(cfg).rows
        assert {row.bound for row in rows} == {closed_form_bound(cfg, 0.5)}
        with pytest.raises(ValueError):
            config(L=-1)
        with pytest.raises(ValueError):
            config(t_grid=(-0.5,))

    def test_default_epsilon_formula(self):
        cfg = config(t_grid=(0.25, 0.5))
        p = lr_parameters(cfg)
        want = main_constant(p, 2) * (1.0 + p.v * 0.5) * (2 * cfg.L + 1)
        assert abs(default_epsilon(cfg) - want) <= 1e-9 * want


class TestSampling:
    def test_deterministic_and_complete(self):
        cfg = config()
        child1, draw1 = sample_couplings(cfg, 3)
        child2, draw2 = sample_couplings(cfg, 3)
        assert child1 == child2 == splitmix64(cfg.seed, 3)
        assert draw1.keys() == draw2.keys() == set(cfg.event_sites())
        assert all(draw1[x] == draw2[x] for x in draw1)
        assert all(v >= 1.0 for v in draw1.values())

    def test_realizations_differ(self):
        cfg = config()
        _, a = sample_couplings(cfg, 0)
        _, b = sample_couplings(cfg, 1)
        assert any(a[x] != b[x] for x in a)


class TestWilsonInterval:
    def test_degenerate_inputs(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 50)
        assert lo <= 1e-15 and lo < hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert 0.9 < lo < hi and hi >= 1.0 - 1e-15

    def test_contains_point_estimate_and_shrinks(self):
        for k, n in [(5, 10), (1, 100), (73, 100)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_closed_form_example(self):
        z = 1.959963984540054
        k, n = 5, 10
        p = k / n
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = wilson_interval(k, n)
        assert abs(lo - (center - half)) <= 1e-12
        assert abs(hi - (center + half)) <= 1e-12


class TestMonteCarloSweep:
    def test_byte_identical_across_runs_and_threads(self):
        cfg = config(L=3, n_realizations=6, t_grid=(0.25, 0.5))
        first = monte_carlo_sweep(cfg, threads=1)
        second = monte_carlo_sweep(cfg, threads=1)
        threaded = monte_carlo_sweep(cfg, threads=4)
        assert first.to_csv() == second.to_csv() == threaded.to_csv()
        assert first.to_json() == threaded.to_json()

    def test_rows_shape_and_bounds(self):
        cfg = config(L=3, n_realizations=3, t_grid=(0.0, 0.5))
        rep = monte_carlo_sweep(cfg)
        assert len(rep.rows) == 6
        for row in rep.rows:
            assert row.bound == closed_form_bound(cfg, row.t)
            assert row.exact_norm is not None  # L <= L_exact so dynamics ran
            assert 0.0 <= row.exact_norm <= 2.0 + 1e-9
            # separation 2L = 6 < 7: conditional check never applicable here
            assert not row.applicable and not row.violated

    def test_counts_consistent(self):
        cfg = config(L=3, n_realizations=5, epsilon=1e-12)
        rep = monte_carlo_sweep(cfg)
        events = {r.realization for r in rep.rows if r.event}
        assert rep.event_count == len(events)
        assert rep.applicable_count == sum(1 for r in rep.rows if r.applicable)
        assert rep.violation_count == sum(1 for r in rep.rows if r.violated)
        assert rep.event_frequency == rep.event_count / cfg.n_realizations

    def test_hand_built_report_counts_its_rows(self):
        # realization 0 has the event at both times, one row checked and violated; realization 1 has no event
        rows = (
            SweepRow(0, 11, 0.25, True, 0.5, 0.1, True, True),
            SweepRow(0, 11, 0.5, True, 0.05, 0.1, True, False),
            SweepRow(1, 12, 0.25, False, 0.5, 0.1, False, False),
            SweepRow(1, 12, 0.5, False, 0.5, 0.1, False, False),
        )
        cfg = config(n_realizations=2, t_grid=(0.25, 0.5))
        rep = SweepReport(cfg.echo(), lr_parameters(cfg), 1.0, "test", rows, None)
        assert not {"event_count", "applicable_count", "violation_count"} & {
            f.name for f in dataclasses.fields(SweepReport)
        }
        assert (rep.event_count, rep.applicable_count, rep.violation_count) == (1, 2, 1)
        assert rep.event_frequency == 0.5
        doc = rep.to_json_doc()
        assert (doc["event_count"], doc["applicable_row_count"], doc["violation_count"]) == (1, 2, 1)
        assert "violations: 1" in rep.summary_lines()[2]

    def test_tiny_epsilon_forces_event(self):
        # every draw is >= 1, so a threshold below 1 makes the event certain
        cfg = config(L=3, n_realizations=4, epsilon=1e-3)
        rep = monte_carlo_sweep(cfg)
        assert rep.event_count == 4
        assert rep.epsilon_source == "config override"

    def test_applicable_path_at_separating_length(self):
        cfg = config(L=4, L_exact=4, n_realizations=2, epsilon=1e-3, t_grid=(0.05,))
        rep = monte_carlo_sweep(cfg)
        assert rep.applicable_count == 2
        assert rep.violation_count == 0
        for row in rep.rows:
            assert row.applicable and not row.violated
            assert row.exact_norm <= row.bound + 1e-9

    def test_exact_norm_against_independent_evolution(self):
        cfg = config(L=3, n_realizations=1, t_grid=(0.5,))
        rep = monte_carlo_sweep(cfg)
        _, couplings = sample_couplings(cfg, 0)
        geom, phi, imp = heisenberg_sparse_field_model(cfg, couplings)
        h = build_perturbed_hamiltonian(phi, imp, geom)
        a, b = sz_edge_pair(cfg)
        (want,) = dense_commutator_norms(h, a, b, geom, (0.5,))
        assert abs(rep.rows[0].exact_norm - want) <= ed_floor(operator_norm(h), geom.total_dim, 0.5) + 1e-9 * want

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(seed=5, n_realizations=40),
            dict(seed=6, n_realizations=40),  # realization 37 has ||H|| = 4.1e13
            dict(seed=7, n_realizations=40),
            dict(seed=5, n_realizations=6, L=4, L_exact=4),
        ],
    )
    def test_exact_norms_equal_evolution_context(self, overrides):
        # the stacked sweep gives each realization the bits of a table of
        # its generic-built Hamiltonian alone, a stack of one, and every
        # norm agrees with evolving A through EvolutionContext to the
        # dense-ED floor 4 eps dim (||H|| |t| + 1) ||A|| ||B|| + 1e-9 relative
        cfg = config(t_grid=(0.0, 0.25, 0.5), **overrides)
        rep = monte_carlo_sweep(cfg)
        a, b = sz_edge_pair(cfg)
        residuals = []
        for r in range(cfg.n_realizations):
            _, couplings = sample_couplings(cfg, r)
            geom, phi, imp = heisenberg_sparse_field_model(cfg, couplings)
            h = build_perturbed_hamiltonian(phi, imp, geom)
            alone, residual = commutator_norm_table(h, [np.zeros(geom.total_dim)], a, b, geom, cfg.t_grid)
            residuals.append(residual[0])
            dense = dense_commutator_norms(h, a, b, geom, cfg.t_grid)
            for j, (t, want) in enumerate(zip(cfg.t_grid, dense)):
                row = rep.rows[r * len(cfg.t_grid) + j]
                assert (row.realization, row.t) == (r, t)
                assert row.exact_norm == alone[0, j], (r, t)
                assert abs(row.exact_norm - want) <= ed_floor(operator_norm(h), geom.total_dim, t) + 1e-9 * want, (r, t)
        assert rep.max_reconstruction_residual == max(residuals)

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_chunk_boundaries(self, per_chunk, monkeypatch):
        # 7 realizations leave a short last chunk at 2 and 3 per chunk;
        # the chunking may change no byte of the report
        cfg = config(n_realizations=7, t_grid=(0.25, 0.5))
        want = monte_carlo_sweep(cfg)
        largest = max(len(idx) for idx in connected_components(SparseFieldChain(cfg).exchange.matrix != 0))
        sizes = []
        spectral = dynamics.hermitian_spectral

        def recording_spectral(m, *args):
            sizes.append(len(m))
            return spectral(m, *args)

        # the chain is real, so its stacks take 8 bytes per entry
        monkeypatch.setattr(dynamics, "_STACK_CHUNK_BYTES", per_chunk * 8 * largest * largest)
        monkeypatch.setattr(dynamics, "hermitian_spectral", recording_spectral)
        got = monte_carlo_sweep(cfg)
        chunks = [min(per_chunk, 7 - start) for start in range(0, 7, per_chunk)]
        sectors = 2 * cfg.L + 2
        assert sizes == [size for size in chunks for _ in range(sectors)]
        assert got.to_csv() == want.to_csv()
        assert got.to_json() == want.to_json()

    def test_large_chain_skips_exact_dynamics(self, monkeypatch):
        # one dense L=6 chain matrix would take 1 GB: nothing may build it
        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built beyond L_exact")

        monkeypatch.setattr(disorder, "SparseFieldChain", refuse)
        monkeypatch.setattr(disorder, "build_nn_hamiltonian", refuse)
        cfg = config(L=6, n_realizations=2, t_grid=(0.5,))
        rep = monte_carlo_sweep(cfg)
        for row in rep.rows:
            assert row.exact_norm is None
            assert not row.applicable

    def test_report_serialization(self):
        cfg = config(L=3, n_realizations=2)
        rep = monte_carlo_sweep(cfg)
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0] == ",".join(SWEEP_CSV_HEADER)
        doc = rep.to_json_doc(wall_time_ms=12.5)
        assert doc["note"] == SUBSTITUTION_NOTE
        assert doc["wall_time_ms"] == 12.5
        assert doc["n_realizations"] == 2
        assert len(doc["rows"]) == len(rep.rows)
        names = [f.name for f in dataclasses.fields(SweepRow)]
        assert [list(row) for row in doc["rows"]] == [names] * len(rep.rows)
        assert doc["config"] == {
            "mu": 1.0, "J": 1.0, "a": 0.25, "b": 0.5, "L": 3, "n_realizations": 2, "seed": 7, "t_grid": [0.5],
            "L_exact": 3, "epsilon": None, "spacing": 2, "field_sites": [-2, 0, 2],
            "event_sites": [-6, -4, -2, 0, 2, 4, 6],
        }
        lo, hi = rep.wilson_95()
        assert doc["wilson_95"] == [lo, hi]
        json.loads(rep.to_json())  # emitted text is valid JSON
        # the largest residual over the diagonalized realizations; none
        # are diagonalized beyond L_exact, and the CSV has no residual column
        assert doc["max_reconstruction_residual"] == rep.max_reconstruction_residual
        assert 0.0 <= doc["max_reconstruction_residual"] <= RECONSTRUCTION_TOL
        skipped = monte_carlo_sweep(dataclasses.replace(cfg, L_exact=0))
        assert skipped.to_json_doc()["max_reconstruction_residual"] is None
        assert "residual" not in csv_text

    def test_summary_documents_substitution(self):
        cfg = config(L=3, n_realizations=2)
        rep = monte_carlo_sweep(cfg)
        text = "\n".join(rep.summary_lines())
        assert "Wilson" in text
        assert "not reproducible" in text

    def test_zero_realizations(self):
        cfg = config(n_realizations=0)
        rep = monte_carlo_sweep(cfg)
        assert rep.rows == ()
        assert rep.event_frequency == 0.0
