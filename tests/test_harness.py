import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re

import numpy as np
import pytest

import lrchain
from lrchain import dynamics
from lrchain.bounds import BoundOutcome, LRParameters
from lrchain.cli import _cmd_constants, build_parser
from lrchain.cli import main as cli_main
from lrchain.dynamics import (
    RECONSTRUCTION_TOL,
    DecoupledDynamics,
    EvolutionContext,
    projection_commutator_norm,
    split_commutator_norms,
    two_sides,
)
from lrchain.geometry import ChainGeometry, SiteSupport
from lrchain.harness import (
    CONSTANTS_CSV_HEADER,
    DEFAULT_BOUNDS,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    IdentitiesReport,
    IdentityCheck,
    ObservableSpec,
    VerifyReport,
    constants_rows,
    find_improvement_points,
    pick_decoupling_site,
    run_identities,
    run_verify,
    write_report,
)
from lrchain.disorder import heisenberg_bond
from lrchain.model import ImpuritySpec, NNInteraction, build_decoupled_hamiltonian, build_perturbed_hamiltonian
from lrchain.operators import (
    PAULI,
    DenseOperator,
    commutator,
    commutator_norms,
    embed_local,
    epsilon_unitaries,
    operator_norm,
)
from lrchain.serialize import render_csv
from util import assert_json_object_errors, ed_floor, random_hermitian


def make_config(
    rng,
    half_length=3,
    coupling=5.0,
    impurity_sites=(0,),
    t_grid=(0.25, 0.5),
    bound_set=DEFAULT_BOUNDS,
    bond_norm=1.0,
    out=None,
    zero_bonds=False,
):
    geom = ChainGeometry(half_length, 2)
    if zero_bonds:
        phi = NNInteraction(geom)
    else:
        bonds = {
            x: random_hermitian(rng, 4, norm=bond_norm)
            for x in range(-half_length, half_length)
        }
        phi = NNInteraction(geom, bonds=bonds)
    imp = (
        ImpuritySpec.uniform(list(impurity_sites), np.diag([1.0, -1.0]), coupling)
        if impurity_sites
        else ImpuritySpec()
    )
    obs_a = ObservableSpec(-half_length, np.array(PAULI["sz"]), "sz")
    obs_b = ObservableSpec(half_length, np.array(PAULI["sz"]), "sz")
    return ExperimentConfig(geom, phi, imp, 1.0, obs_a, obs_b, t_grid, bound_set=bound_set, out=out)


def spy_projection_kernels(monkeypatch) -> list:
    """The list that records, in call order, each projection-check kernel `lrchain.dynamics` calls."""
    routes = []
    for name in ("split_commutator_norms", "commutator_norms"):
        spy = lambda *args, name=name, route=getattr(dynamics, name): routes.append(name) or route(*args)
        monkeypatch.setattr(dynamics, name, spy)
    return routes


def per_block_derivative(dd, a, b, pair, s, t) -> np.ndarray:
    """The analytic interpolant derivative of block `pair`, with every factor evolved for this block alone."""
    full = dd.geom.full_support
    x = dd.reduced.evolve(dd.blocks[pair], s)
    y = dd.decoupled.evolve(dd.full.evolve(a, t - s), s)
    b_full = embed_local(b, full, dd.geom)
    moved = dd.reduced.evolve(commutator(dd.bare, dd.blocks[pair]), s)
    out = 1j * commutator(commutator(moved, y), b_full).matrix
    defect = DenseOperator(full, sum(block.matrix for block in dd.blocks.values()))
    inner = commutator(dd.decoupled.evolve(defect, s), y)
    out -= 1j * commutator(commutator(x, inner), b_full).matrix
    return out


def per_block_derivative_fd(dd, a, b, pair, s, t, step) -> np.ndarray:
    """The central difference of block `pair`'s interpolant at `step`, with every factor evolved for this block alone."""

    def cos_weight(w):
        return np.cos(step * w)

    def sin_weight(w):
        return 2j * np.sin(step * w)

    x_diff = dd.reduced.evolve(dd.blocks[pair], s, sin_weight).matrix
    x_mean = dd.reduced.evolve(dd.blocks[pair], s, cos_weight).matrix
    z_cos = dd.full.evolve(a, t - s, cos_weight)
    z_sin = dd.full.evolve(a, t - s, sin_weight)
    y_diff = dd.decoupled.evolve(z_cos, s, sin_weight).matrix
    y_diff -= dd.decoupled.evolve(z_sin, s, cos_weight).matrix
    y_mean = dd.decoupled.evolve(z_cos, s, cos_weight).matrix
    y_mean -= 0.25 * dd.decoupled.evolve(z_sin, s, sin_weight).matrix
    inner = x_diff @ y_mean - y_mean @ x_diff + x_mean @ y_diff - y_diff @ x_mean
    b_full = embed_local(b, dd.geom.full_support, dd.geom).matrix
    return (inner @ b_full - b_full @ inner) / (2.0 * step)


class TestObservableSpec:
    def test_from_json_named(self):
        spec = ObservableSpec.from_json({"site": -2, "op": "sy"}, 2, "cfg.observable_a")
        assert spec.site == -2 and spec.label == "sy"
        assert np.allclose(spec.matrix, PAULI["sy"])
        assert spec.support == SiteSupport(-2, -2)
        assert abs(spec.norm() - 1.0) <= 1e-14
        assert spec.echo() == {"site": -2, "op": "sy"}

    def test_from_json_inline_matrix(self):
        node = {"site": 0, "op": [[1, 0], [0, -1]]}
        spec = ObservableSpec.from_json(node, 2, "cfg")
        assert spec.label == "matrix"
        assert np.allclose(spec.matrix, np.diag([1.0, -1.0]))
        echo = spec.echo()
        assert echo["op"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]

    def test_from_json_errors(self):
        with pytest.raises(ConfigError, match="expected an object"):
            ObservableSpec.from_json("sz", 2, "w")
        with pytest.raises(ConfigError, match="unknown keys"):
            ObservableSpec.from_json({"site": 0, "op": "sz", "x": 1}, 2, "w")
        with pytest.raises(ConfigError, match="'site'"):
            ObservableSpec.from_json({"op": "sz"}, 2, "w")
        with pytest.raises(ConfigError, match="missing 'op'"):
            ObservableSpec.from_json({"site": 0}, 2, "w")
        with pytest.raises(ConfigError, match="unknown named matrix"):
            ObservableSpec.from_json({"site": 0, "op": "nope"}, 2, "w")

    def test_operator(self):
        spec = ObservableSpec(1, np.array(PAULI["sx"]), "sx")
        op = spec.operator()
        assert op.support == SiteSupport(1, 1)
        assert np.allclose(op.matrix, PAULI["sx"])


class TestExperimentConfig:
    def test_validation(self, rng):
        with pytest.raises(ConfigError, match="mu"):
            make_config(rng).__class__(
                ChainGeometry(2, 2),
                NNInteraction(ChainGeometry(2, 2)),
                ImpuritySpec(),
                0.0,
                ObservableSpec(-2, np.array(PAULI["sz"]), "sz"),
                ObservableSpec(2, np.array(PAULI["sz"]), "sz"),
                (0.5,),
            )
        with pytest.raises(ConfigError, match="t_grid"):
            make_config(rng, t_grid=())
        with pytest.raises(ConfigError, match="finite"):
            make_config(rng, t_grid=(float("inf"),))

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_mu(self, rng, mu):
        # mu = nan passes `mu <= 0`, and mu = inf gives nan a-priori bounds that no violation test catches
        with pytest.raises(ConfigError, match="mu must be finite"):
            dataclasses.replace(make_config(rng), mu=mu)

    def test_observable_site_must_be_on_chain(self, rng):
        geom = ChainGeometry(2, 2)
        with pytest.raises(ConfigError, match="observable_b"):
            ExperimentConfig(
                geom,
                NNInteraction(geom),
                ImpuritySpec(),
                1.0,
                ObservableSpec(-2, np.array(PAULI["sz"]), "sz"),
                ObservableSpec(5, np.array(PAULI["sz"]), "sz"),
                (0.5,),
            )

    def test_matrix_dimension_checked(self, rng):
        geom = ChainGeometry(2, 3)
        with pytest.raises(ConfigError, match="local dimension"):
            ExperimentConfig(
                geom,
                NNInteraction(geom),
                ImpuritySpec(),
                1.0,
                ObservableSpec(-2, np.array(PAULI["sz"]), "sz"),
                ObservableSpec(2, np.array(PAULI["sz"]), "sz"),
                (0.5,),
            )

    def test_double_commutator_rejected_with_guidance(self, rng):
        with pytest.raises(ConfigError, match="third observable"):
            make_config(rng, bound_set=("apriori", "double_commutator"))

    def test_unknown_bound_rejected(self, rng):
        with pytest.raises(ConfigError, match="unknown bound name"):
            make_config(rng, bound_set=("apriori", "sharp"))
        with pytest.raises(ConfigError, match="at least one"):
            make_config(rng, bound_set=())

    def test_bound_set_canonical_order(self, rng):
        cfg = make_config(rng, bound_set=("single_impurity", "main", "apriori", "main"))
        assert cfg.bound_set == ("apriori", "main", "single_impurity")

    def test_parameters(self, rng):
        cfg = make_config(rng)
        p = cfg.parameters()
        q = LRParameters.compute(1.0, cfg.phi.strength)
        assert p == q

    def write_model(self, tmp_path):
        heis = -(
            np.kron(PAULI["sx"], PAULI["sx"])
            + np.kron(PAULI["sy"], PAULI["sy"])
            + np.kron(PAULI["sz"], PAULI["sz"])
        ).real
        doc = {
            "L": 4,
            "D": 2,
            "bond_matrix": [[float(v) for v in row] for row in heis],
            "impurities": [{"site": 0, "coupling": 50.0, "hermitian": "sz"}],
        }
        (tmp_path / "model.json").write_text(json.dumps(doc))
        return "model.json"

    def test_from_json_round_trip(self, tmp_path):
        model_ref = self.write_model(tmp_path)
        doc = {
            "model": model_ref,  # relative to the config file's directory
            "mu": 1.0,
            "observable_a": {"site": -4, "op": "sz"},
            "observable_b": {"site": 4, "op": "sz"},
            "t_grid": [0.25, 0.5],
            "bounds": ["main", "apriori"],
            "out": "results/run",
            "seed": 11,
        }
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_json(cfg_path)
        assert cfg.geom.half_length == 4
        assert cfg.imp.sites == (0,) and cfg.imp.coupling(0) == 50.0
        assert cfg.bound_set == ("apriori", "main")
        assert cfg.t_grid == (0.25, 0.5)
        assert cfg.seed == 11
        assert os.path.isabs(cfg.out) and cfg.out.endswith(os.path.join("results", "run"))
        assert os.path.isabs(cfg.model_path)
        echo = cfg.echo()
        assert echo["chain"]["impurity_sites"] == [0]
        assert echo["observable_a"] == {"site": -4, "op": "sz"}

    def test_from_json_errors(self, tmp_path):
        model_ref = self.write_model(tmp_path)
        base = {
            "model": model_ref,
            "mu": 1.0,
            "observable_a": {"site": -4, "op": "sz"},
            "observable_b": {"site": 4, "op": "sz"},
            "t_grid": [0.5],
        }
        cases = [
            ({k: v for k, v in base.items() if k != "mu"}, "missing required keys"),
            ({**base, "extra": 1}, "unknown keys"),
            ({**base, "mu": "one"}, r"mu: expected a number"),
            ({**base, "t_grid": 0.5}, "expected a list"),
            ({**base, "t_grid": [0.5, "x"]}, r"t_grid\[1\]"),
            ({**base, "bounds": "main"}, "list of bound names"),
            ({**base, "model": 7}, "file path"),
            ({**base, "seed": 1.5}, "seed"),
            ({**base, "out": 3}, "out"),
            ({**base, "seed": True}, r"seed: expected an integer"),
            ({**base, "bounds": ["main", 3]}, r"bounds\[1\]: expected a string"),
            ({**base, "observable_a": {"site": 1.0, "op": "sz"}}, r"observable_a\.site: expected an integer"),
            ({**base, "seed": -5}, r"cfg\.json: seed must fit in 64 bits, got -5"),
            ({**base, "seed": 2**64}, r"cfg\.json: seed must fit in 64 bits, got 18446744073709551616"),
            ({**base, "mu": -1}, r"cfg\.json: mu must be positive, got -1\.0"),
        ]
        p = tmp_path / "cfg.json"
        for doc, pattern in cases:
            p.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=pattern):
                ExperimentConfig.from_json(p)
        p.write_text("[]")
        with pytest.raises(ConfigError, match="top-level"):
            ExperimentConfig.from_json(p)
        with pytest.raises(ConfigError, match="gone.json"):
            ExperimentConfig.from_json(tmp_path / "gone.json")
        assert_json_object_errors(ExperimentConfig.from_json, tmp_path, ConfigError)


class TestRunVerify:
    def test_zero_time_point(self, rng):
        cfg = make_config(rng, t_grid=(0.0,))
        report = run_verify(cfg)
        rec = report.records[0]
        assert rec.exact_norm == 0.0
        assert rec.bounds["apriori"].value == 0.0
        assert report.ok

    def test_spectral_blocks_reported(self, rng):
        # random bonds give one block; without bonds the sz impurity leaves H
        # diagonal, one block per basis state, and every norm is exactly 0
        cfg = make_config(rng, t_grid=(0.5,))
        dim = cfg.geom.total_dim
        assert run_verify(cfg).spectral_blocks == (dim,)
        diagonal = run_verify(make_config(rng, t_grid=(0.5,), zero_bonds=True))
        assert diagonal.spectral_blocks == (1,) * dim
        assert diagonal.records[0].exact_norm == 0.0

    def test_numpy_integer_impurity_site(self, rng):
        # a site given as a numpy integer is stored as an int, so the run
        # matches the one with a plain int site byte for byte
        cfg = make_config(rng, t_grid=(0.1, 0.5))
        np_site = dataclasses.replace(cfg, imp=ImpuritySpec.uniform([np.int64(0)], np.diag([1.0, -1.0]), 5.0))
        assert type(np_site.imp.sites[0]) is int
        assert run_verify(np_site).to_csv() == run_verify(cfg).to_csv()

    def test_sector_joining_pair(self):
        # sx at both edges joins every S^z sector of a Heisenberg chain with
        # an sz impurity, so the exact norms come from one group over the
        # whole chain; they agree with evolving A densely to the dense-ED
        # floor 4 eps dim (||H|| |t| + 1) ||A|| ||B|| + 1e-9 relative, and
        # spectral_blocks still lists the sectors of H
        half_length = 3
        geom = ChainGeometry(half_length, 2)
        phi = NNInteraction(geom, uniform_bond=heisenberg_bond(1.0))
        imp = ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), 5.0)
        sx = np.array(PAULI["sx"])
        obs_a, obs_b = ObservableSpec(-half_length, sx, "sx"), ObservableSpec(half_length, sx, "sx")
        t_grid = (0.0, 0.3, 1.2, 2.5)
        report = run_verify(ExperimentConfig(geom, phi, imp, 1.0, obs_a, obs_b, t_grid))
        n = geom.n_sites
        assert report.spectral_blocks == tuple(math.comb(n, k) for k in range(n + 1))
        assert 0.0 <= report.reconstruction_residual <= RECONSTRUCTION_TOL
        h = build_perturbed_hamiltonian(phi, imp, geom)
        ctx = EvolutionContext(h, geom)
        b_full = embed_local(obs_b.operator(), geom.full_support, geom)
        dim, h_norm = geom.total_dim, operator_norm(h)
        for rec in report.records:
            want = operator_norm(commutator(ctx.evolve(obs_a.operator(), rec.t), b_full))
            assert abs(rec.exact_norm - want) <= ed_floor(h_norm, dim, rec.t) + 1e-9 * want, (rec.t, rec.exact_norm, want)
        assert report.records[0].exact_norm == 0.0 and report.records[-1].exact_norm > 1e-3

    def test_no_violations_on_honest_instance(self, rng):
        # L = 4 puts the observables 8 sites apart, satisfying the improved
        # bound's separation hypothesis (>= 7)
        cfg = make_config(rng, half_length=4, t_grid=(0.1, 0.5, 1.0))
        report = run_verify(cfg)
        assert report.ok
        assert len(report.records) == 3
        for rec in report.records:
            assert rec.exact_norm <= rec.bounds["apriori"].value + 1e-9
            main = rec.bounds["main"]
            assert main.applicable
            assert main.window == (0,)
            assert rec.exact_norm <= main.value + 1e-9

    def test_close_supports_leave_main_inapplicable(self, rng):
        # at L = 3 the edge observables sit only 6 apart: apriori still holds,
        # the improved bound reports why it cannot be applied
        cfg = make_config(rng, half_length=3, t_grid=(0.5,))
        report = run_verify(cfg)
        assert report.ok
        main = report.records[0].bounds["main"]
        assert not main.applicable and "too close" in main.reason

    def test_rerun_and_threads_are_byte_identical(self, rng):
        cfg = make_config(rng, t_grid=(0.1, 0.3, 0.7))
        first = run_verify(cfg)
        second = run_verify(cfg)
        threaded = run_verify(cfg, threads=3)
        assert first.to_csv() == second.to_csv() == threaded.to_csv()
        # the JSON mirror carries wall-clock timings; everything else matches
        docs = [r.to_json_doc() for r in (first, second, threaded)]
        for doc in docs:
            doc.pop("timings_ms")
            assert doc.pop("exact_norms_ms") >= 0.0
        assert docs[0] == docs[1] == docs[2]

    def test_csv_header_tracks_bound_set(self, rng):
        cfg = make_config(rng, bound_set=("apriori", "main", "single_impurity"))
        report = run_verify(cfg)
        assert report.csv_header() == (
            "t", "dAB", "N", "exact_norm",
            "apriori", "main", "main_applicable",
            "single_impurity", "single_impurity_applicable",
        )
        assert report.to_csv().splitlines()[0] == ",".join(report.csv_header())

    def test_writes_files_with_out_prefix(self, rng, tmp_path):
        cfg = make_config(rng, t_grid=(0.25,), out=str(tmp_path / "sub" / "run"))
        report = run_verify(cfg)
        csv_path = tmp_path / "sub" / "run.csv"
        json_path = tmp_path / "sub" / "run.json"
        assert csv_path.read_text() == report.to_csv()
        doc = json.loads(json_path.read_text())
        assert doc["config"]["mu"] == 1.0
        assert "main_constant" in doc["derived_parameters"]
        assert len(doc["records"]) == 1
        assert doc["records"][0]["bounds"]["apriori"]["applicable"] is True
        assert sum(doc["spectral_blocks"]) == cfg.geom.total_dim
        # the residual of the one eigendecomposition the sweep made
        ctx = EvolutionContext(build_perturbed_hamiltonian(cfg.phi, cfg.imp, cfg.geom), cfg.geom)
        assert doc["reconstruction_residual"] == report.reconstruction_residual == ctx.reconstruction_residual
        assert 0.0 <= doc["reconstruction_residual"] <= RECONSTRUCTION_TOL

    def test_json_doc_reasons_surface(self, rng):
        # too-close observables make the improved bound inapplicable, with the reason recorded
        cfg = dataclasses.replace(
            make_config(rng, half_length=3, impurity_sites=(0,)),
            observable_a=ObservableSpec(-1, np.array(PAULI["sz"]), "sz"),
            observable_b=ObservableSpec(1, np.array(PAULI["sz"]), "sz"),
        )
        report = run_verify(cfg)
        main = report.records[0].bounds["main"]
        assert not main.applicable
        assert "too close" in main.reason
        doc = report.to_json_doc()
        assert "too close" in doc["records"][0]["bounds"]["main"]["reason"]

    def test_json_reasons_of_unmet_impurity_hypotheses(self, rng):
        # L = 4 separates the edge observables enough for the improved bounds,
        # so each reason below comes from the impurity family alone
        all_bounds = ("apriori", "main", "corollary", "single_impurity")
        sz = np.array(PAULI["sz"])
        fallback = "no impurities in the window; a-priori bound used as fallback"
        cases = [
            (
                ImpuritySpec(),
                {
                    "main": fallback,
                    "corollary": "uniform impurity bound needs at least one impurity",
                    "single_impurity": "model has no impurities",
                },
            ),
            (
                ImpuritySpec.uniform([0, 3], sz, {0: 5.0, 3: 7.0}),
                {"corollary": "uniform impurity bound needs identical on-site matrices and couplings at every site"},
            ),
            (
                ImpuritySpec.uniform([-3, 3], sz, 5.0),
                {"main": fallback, "corollary": fallback, "single_impurity": "no impurity site in the window [-1, 1]"},
            ),
        ]
        cfg = make_config(rng, half_length=4, t_grid=(0.5,), bound_set=all_bounds)
        for imp, want in cases:
            doc = json.loads(run_verify(dataclasses.replace(cfg, imp=imp)).to_json())
            bounds = doc["records"][0]["bounds"]
            assert {name: bounds[name]["reason"] for name in want} == want
            for name in want:
                assert bounds[name]["applicable"] is (want[name] == fallback)

    def test_totals_are_not_stored(self, rng):
        report = run_verify(make_config(rng, t_grid=(0.5,)))
        assert not {"violations", "improvement_points"} & {f.name for f in dataclasses.fields(VerifyReport)}
        assert report.violations == () and report.improvement_points == ()

    def test_numpy_integer_window_serializes(self, rng):
        clean = run_verify(make_config(rng, t_grid=(0.5,)))
        outcome = BoundOutcome(1.0, True, None, (np.int64(0),), 2.0)
        record = ExperimentRecord(0.5, 6, 1, 0.1, {"apriori": BoundOutcome(3.0, True), "main": outcome}, 0.1)
        report = dataclasses.replace(clean, bound_set=("apriori", "main"), records=(record,))
        main = json.loads(report.to_json())["records"][0]["bounds"]["main"]
        assert main == {"value": 1.0, "applicable": True, "reason": None, "window": [0], "prefactor_product": 2.0}


class TestImprovementPoints:
    def fabricated(self, main_value, apriori_value, window=(0,), applicable=True):
        bounds = {
            "apriori": BoundOutcome(apriori_value, True),
            "main": (
                BoundOutcome(main_value, applicable, None, window, 100.0)
                if applicable
                else BoundOutcome.not_applicable("hypothesis fails")
            ),
        }
        return ExperimentRecord(0.5, 8, len(window), 1e-8, bounds, 1.0)

    def test_detects_strict_improvement(self):
        recs = [self.fabricated(1e-3, 1.0), self.fabricated(2.0, 1.0)]
        points = find_improvement_points(recs)
        assert points == ((0.5, 1e-3, 1.0),)

    def test_ignores_fallback_and_inapplicable(self):
        no_window = self.fabricated(1e-3, 1.0, window=())
        inapplicable = self.fabricated(1e-3, 1.0, applicable=False)
        assert find_improvement_points([no_window, inapplicable]) == ()

    def test_report_flags_fabricated_violation(self, rng):
        cfg = make_config(rng, t_grid=(0.5,))
        clean = run_verify(cfg)
        bad_record = ExperimentRecord(
            0.5, 6, 1, exact_norm=10.0,
            bounds={"apriori": BoundOutcome(1.0, True)}, wall_time_ms=0.1,
        )
        msgs = bad_record.violations()
        assert len(msgs) == 1 and "exceeds" in msgs[0]
        report = VerifyReport(
            config=clean.config,
            parameters=clean.parameters,
            bound_set=("apriori",),
            records=(bad_record,),
            spectral_blocks=clean.spectral_blocks,
            reconstruction_residual=clean.reconstruction_residual,
            exact_norms_ms=clean.exact_norms_ms,
        )
        assert not report.ok
        assert report.violations == tuple(msgs) and report.improvement_points == ()
        dump = report.diagnostic_dump()
        assert any(line.startswith("VIOLATION:") for line in dump)
        assert any("apriori" in line for line in dump)


class TestRunIdentities:
    def test_all_pass_on_clean_instance(self, rng):
        cfg = make_config(rng, half_length=3, coupling=5.0, t_grid=(0.25, 0.5))
        report = run_identities(cfg)
        assert report.site == 0
        assert report.t == 0.5
        names = [c.name for c in report.checks]
        assert names == [
            "decoupled_blocking",
            "commuting_split",
            "offdiagonal_decomposition",
            "phase_conjugation",
            "interpolant_endpoint",
            "interpolant_derivative_fd",
            "interpolant_derivative_richardson",
            "local_projection_inequality",
        ]
        assert report.ok, "\n".join(report.summary_lines())
        for c in report.checks:
            assert c.status == "pass"
            assert c.residual <= c.threshold
        # keep = [-3, -2] leaves a 32-dim complement on the right: of its
        # 32^2 Weyl matrices, 4 are their own negation (p, q in {0, 16}),
        # so (1024 - 4) / 2 + 4 - 1 (the identity) = 513 are evaluated
        assert report.checks[-1].detail.endswith("on keep = [-3, -2]; 513 unitaries")

    def test_block_independent_evolutions_are_shared(self, monkeypatch):
        # on the identities-L3 inputs at seed 5, the hybrid-evolved A, the
        # evolved defect and the parts of Y(s +- h) are evolved once per
        # (A, s, t) and step, not once per transition block: at most 44
        # evolve calls (61 with every factor per block), the same 541
        # eigvalsh members, and derivative residuals equal bit for bit to
        # a per-block recomputation that shares nothing
        cfg = make_config(np.random.default_rng(5))
        calls, members = [], []
        evolve, eigvalsh = EvolutionContext.evolve, np.linalg.eigvalsh
        monkeypatch.setattr(EvolutionContext, "evolve", lambda *args, **kw: calls.append(1) or evolve(*args, **kw))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: members.append(np.prod(m.shape[:-2])) or eigvalsh(m))
        by_name = {c.name: c for c in run_identities(cfg).checks}
        assert len(calls) <= 44 and sum(members) == 541, (len(calls), sum(members))
        monkeypatch.undo()

        dd = DecoupledDynamics(cfg.phi, cfg.imp, pick_decoupling_site(cfg), cfg.geom)
        a, b = cfg.observable_a.operator(), cfg.observable_b.operator()
        t = max(cfg.t_grid)
        s, step = 0.4 * t, dd.fd_step()
        fd_worst = richardson_worst = 0.0
        for pair in dd.blocks:
            analytic = per_block_derivative(dd, a, b, pair, s, t)
            fd1, fd2 = (per_block_derivative_fd(dd, a, b, pair, s, t, h) for h in (step, 0.5 * step))
            denom = max(operator_norm(analytic), 1e-300)
            fd_worst = max(fd_worst, operator_norm(analytic - fd1) / denom)
            richardson_worst = max(richardson_worst, operator_norm(analytic - (4.0 * fd2 - fd1) / 3.0) / denom)
        assert by_name["interpolant_derivative_fd"].residual == fd_worst
        assert by_name["interpolant_derivative_richardson"].residual == richardson_worst

    def test_zero_interaction_residuals_vanish(self, rng):
        cfg = make_config(rng, zero_bonds=True, t_grid=(0.5,))
        report = run_identities(cfg)
        assert report.ok
        for c in report.checks:
            if c.name.startswith("interpolant_derivative"):
                continue  # relative residual of a zero derivative is still zero, but allow fp dust
            assert c.residual <= 1e-12

    def test_time_zero_skips_derivative_checks(self, rng):
        cfg = make_config(rng, t_grid=(0.0,))
        report = run_identities(cfg)
        by_name = {c.name: c for c in report.checks}
        assert by_name["interpolant_derivative_fd"].status == "skipped"
        assert by_name["interpolant_derivative_richardson"].status == "skipped"
        assert report.ok

    def test_adjacent_impurities_error_only_derivative_checks(self, rng):
        cfg = make_config(rng, impurity_sites=(0, 1), t_grid=(0.5,))
        report = run_identities(cfg)
        by_name = {c.name: c for c in report.checks}
        assert by_name["interpolant_derivative_fd"].status == "error"
        assert "spacing" in by_name["interpolant_derivative_fd"].detail
        assert by_name["decoupled_blocking"].status == "pass"
        assert by_name["phase_conjugation"].status == "pass"
        assert not report.ok

    def test_derivative_checks_pass_at_strong_coupling(self, rng):
        # the on-site phase turns at coupling * gap = 100, so a fixed step of
        # 1e-4 would leave a (100 * 1e-4)^2 / 6 ~ 1.7e-5 truncation error; the
        # frequency-scaled step keeps both derivative checks inside 1e-6
        cfg = make_config(rng, coupling=50.0, t_grid=(0.5,))
        report = run_identities(cfg)
        by_name = {c.name: c for c in report.checks}
        for name in ("interpolant_derivative_fd", "interpolant_derivative_richardson"):
            assert by_name[name].status == "pass", by_name[name]
        assert "frequency-scaled step" in by_name["interpolant_derivative_fd"].detail

    def test_projection_check_skipped_on_large_chain(self, rng):
        cfg = make_config(rng, half_length=4, t_grid=(0.5,))
        report = run_identities(cfg)
        by_name = {c.name: c for c in report.checks}
        assert by_name["local_projection_inequality"].status == "skipped"
        assert "dimension" in by_name["local_projection_inequality"].detail
        # Every other check still runs and passes at this length, including
        # the derivative comparisons: the central difference is formed
        # without cancellation, so it resolves the light-cone-suppressed
        # derivative (norm ~1e-5) to well inside 1e-6 relative.
        for name in (
            "decoupled_blocking",
            "commuting_split",
            "offdiagonal_decomposition",
            "phase_conjugation",
            "interpolant_endpoint",
            "interpolant_derivative_fd",
            "interpolant_derivative_richardson",
        ):
            assert by_name[name].status == "pass", by_name[name]

    def test_decoupled_hamiltonian_is_built_once(self, rng, monkeypatch):
        # the identity checks read the bare decoupled Hamiltonian from
        # DecoupledDynamics; count calls in every lrchain module that binds it
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_decoupled_hamiltonian(*args, **kwargs)

        names = [f"lrchain.{m.name}" for m in pkgutil.iter_modules(lrchain.__path__)]
        for module in [lrchain, *map(importlib.import_module, names)]:
            if vars(module).get("build_decoupled_hamiltonian") is build_decoupled_hamiltonian:
                monkeypatch.setattr(module, "build_decoupled_hamiltonian", counted)
        report = run_identities(make_config(rng, t_grid=(0.5,)))
        assert report.ok
        assert len(calls) == 1

    def test_pick_decoupling_site(self, rng):
        cfg = make_config(rng, impurity_sites=(-1, 1))
        assert pick_decoupling_site(cfg) == -1
        with pytest.raises(ConfigError, match="identity batch needs"):
            pick_decoupling_site(make_config(rng, impurity_sites=()))
        # an impurity hugging the chain end cannot anchor the decoupling
        with pytest.raises(ConfigError, match="identity batch needs"):
            pick_decoupling_site(make_config(rng, impurity_sites=(-3,)))

    def test_serialization(self, rng, tmp_path):
        cfg = make_config(rng, t_grid=(0.5,), out=str(tmp_path / "ids"))
        report = run_identities(cfg)
        lines = (tmp_path / "ids.csv").read_text().splitlines()
        assert lines[0] == "check,residual,threshold,status"
        assert len(lines) == 1 + len(report.checks)
        doc = json.loads((tmp_path / "ids.json").read_text())
        assert doc["decoupling_site"] == 0
        assert {c["status"] for c in doc["checks"]} <= {"pass", "skipped"}
        names = [f.name for f in dataclasses.fields(IdentityCheck)]
        assert [list(c) for c in doc["checks"]] == [names] * len(report.checks)

    def test_projection_detail_parses_as_the_benchmark_oracle_reads_it(self, rng):
        # perfbench/oracle.py reads both norms from the detail with this
        # pattern and recomputes the left-hand side independently
        report = run_identities(make_config(rng, t_grid=(0.5,)))
        check = report.checks[-1]
        assert check.name == "local_projection_inequality" and check.status == "pass"
        match = re.search(r"= (\S+) vs eps \* norm = (\S+) on", check.detail)
        assert match is not None, check.detail
        lhs, rhs = (float(g) for g in match.groups())
        assert 0.0 < lhs <= rhs
        assert check.detail.endswith("513 unitaries")

    def test_projection_detail_with_a_gram_route_observable(self, monkeypatch):
        # the identities-L3 inputs at seed 5 with sx, which is not diagonal
        # but has two eigenvalues, as A: the bound comes from the two-sided
        # route, end to end
        routes = spy_projection_kernels(monkeypatch)
        cfg = make_config(np.random.default_rng(5))
        cfg = dataclasses.replace(cfg, observable_a=ObservableSpec(-3, np.array(PAULI["sx"]), "sx"))
        check = run_identities(cfg).checks[-1]
        assert check.name == "local_projection_inequality" and check.status == "pass", check.detail
        assert check.detail.endswith("513 unitaries")
        assert routes == ["split_commutator_norms"]

    def test_projection_detail_with_an_observable_off_the_two_sided_route(self, monkeypatch):
        # on a qubit chain every non-scalar Hermitian A has two eigenvalues;
        # the non-Hermitian raising operator does not pass `two_sides`, so
        # the bound comes from the Gram kernel, end to end
        routes = spy_projection_kernels(monkeypatch)
        cfg = make_config(np.random.default_rng(5))
        raising = np.array([[0.0, 1.0], [0.0, 0.0]])
        cfg = dataclasses.replace(cfg, observable_a=ObservableSpec(-3, raising, "matrix"))
        check = run_identities(cfg).checks[-1]
        assert check.name == "local_projection_inequality" and check.status == "pass", check.detail
        assert check.detail.endswith("513 unitaries")
        assert routes == ["commutator_norms"]

    def test_projection_bound_routes(self, rng, monkeypatch):
        # an A with two eigenvalues, diagonal or not, takes the split
        # kernel, bit for bit; every other A takes the Gram kernel on the
        # evolved matrix, bit for bit
        routes = spy_projection_kernels(monkeypatch)
        cases = (
            (2, DenseOperator.single_site(-2, PAULI["sz"]), True),
            (2, DenseOperator.single_site(-2, PAULI["sx"]), True),
            (3, DenseOperator.single_site(-1, np.diag([1.0, 1.0, -1.0])), True),
            (3, DenseOperator.single_site(-1, np.diag([1.0, 0.0, -1.0])), False),
        )
        for local_dim, a, split in cases:
            geom = ChainGeometry(2 if local_dim == 2 else 1, local_dim)
            bonds = {x: random_hermitian(rng, local_dim**2, norm=1.0) for x in range(-geom.half_length, geom.half_length)}
            h = build_perturbed_hamiltonian(NNInteraction(geom, bonds=bonds), ImpuritySpec(), geom)
            ctx = EvolutionContext(h, geom)
            got = projection_commutator_norm(ctx, a, 0.5, a.support)
            if split:
                assert got == np.max(split_commutator_norms(ctx, a, 0.5, a.support, two_sides(a.matrix))), a.matrix
            else:
                assert got == np.max(commutator_norms(ctx.evolve(a, 0.5).matrix, a.support, geom)), a.matrix
            assert got > 1e-3
            # keep = the whole chain leaves no Weyl unitary outside it, on either route
            assert epsilon_unitaries(geom.full_support, geom) == []
            routes.clear()
            assert projection_commutator_norm(ctx, a, 0.5, geom.full_support) == 0.0
            assert routes == ["split_commutator_norms" if split else "commutator_norms"], a.matrix

    def test_identity_check_status_rule(self):
        assert IdentityCheck.measured("x", 1e-12, 1e-9).status == "pass"
        assert IdentityCheck.measured("x", 1e-6, 1e-9).status == "fail"
        rep = IdentitiesReport(
            config={}, site=0, t=1.0,
            checks=(IdentityCheck("x", 1.0, 1e-9, "fail"),), wall_time_ms=0.0,
        )
        assert not rep.ok


class TestConstantsTable:
    def test_reference_row(self):
        rows = constants_rows([1.0], 3.0, 2)
        (mu, phi, d, c_mu, k_mu, c0, v, c_main, c_deriv, radius) = rows[0]
        assert (mu, phi, d) == (1.0, 3.0, 2)
        assert c_mu == pytest.approx(1.2222187032104634, rel=1e-12)
        assert k_mu == pytest.approx(3.5821017876765584, rel=1e-12)
        assert c0 == pytest.approx(3.4120155586176835, rel=1e-12)
        assert v == pytest.approx(233.69189273116439, rel=1e-12)
        assert radius == 128

    def test_csv_shape(self):
        text = render_csv(CONSTANTS_CSV_HEADER, constants_rows([0.5, 1.0, 2.0], 1.0, 2))
        lines = text.splitlines()
        assert lines[0] == ",".join(CONSTANTS_CSV_HEADER)
        assert len(lines) == 4


class TestWriteReport:
    def test_creates_parent_directories(self, rng, tmp_path):
        cfg = make_config(rng, t_grid=(0.25,))
        report = run_verify(cfg)
        prefix = tmp_path / "deep" / "nest" / "out"
        csv_path, json_path = write_report(str(prefix), report.to_csv(), report.to_json())
        assert os.path.exists(csv_path) and os.path.exists(json_path)


@pytest.fixture
def cli_model(tmp_path):
    heis = -(
        np.kron(PAULI["sx"], PAULI["sx"])
        + np.kron(PAULI["sy"], PAULI["sy"])
        + np.kron(PAULI["sz"], PAULI["sz"])
    ).real
    model = {
        "L": 3,
        "D": 2,
        "bond_matrix": [[float(v) for v in row] for row in heis],
        "impurities": [{"site": 0, "coupling": 5.0, "hermitian": "sz"}],
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    experiment = {
        "model": "model.json",
        "mu": 1.0,
        "observable_a": {"site": -3, "op": "sz"},
        "observable_b": {"site": 3, "op": "sz"},
        "t_grid": [0.25, 0.5],
    }
    (tmp_path / "experiment.json").write_text(json.dumps(experiment))
    sweep = {
        "mu": 1.0, "J": 1.0, "a": 0.25, "b": 0.5, "L": 3,
        "n_realizations": 3, "seed": 7, "t_grid": [0.5],
    }
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    return tmp_path


class TestCli:
    def test_constants_stdout(self, capsys):
        code = cli_main(["constants", "--mu", "0.5,1.0", "--phi-norm", "3", "--local-dim", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CONSTANTS_CSV_HEADER)
        assert len(lines) == 3

    def test_constants_missing_inputs(self, capsys):
        code = cli_main(["constants", "--phi-norm", "3", "--local-dim", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "--mu" in err

    def test_constants_config_file_and_out(self, tmp_path, capsys):
        cfg = {"mu": [1.0], "phi_norm": 3.0, "D": 2}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        prefix = tmp_path / "consts"
        code = cli_main(["constants", "--config", str(p), "--out", str(prefix)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads((tmp_path / "consts.json").read_text())
        assert doc["header"] == list(CONSTANTS_CSV_HEADER)
        assert (tmp_path / "consts.csv").read_text().splitlines()[0] == ",".join(CONSTANTS_CSV_HEADER)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"mu": [1.0], "phi_norm": 3.0, "D": 2, "radius": "200"}, "radius: expected an integer, got '200'"),
            ({"mu": [1.0], "phi_norm": 3.0, "D": 2, "radius": True}, "radius: expected an integer, got True"),
            ({"mu": [1.0], "phi_norm": 3.0, "D": 2.7}, "D: expected an integer, got 2.7"),
            ({"mu": [1.0, "2"], "phi_norm": 3.0, "D": 2}, "mu[1]: expected a number, got '2'"),
            ({"mu": [1.0], "phi_norm": 3.0, "D": 2, "R": 5}, "unknown keys ['R']"),
            ({"mu": [1.0], "phi_norm": 3.0, "D": 0}, "c.json: local dimension must be >= 2, got 0"),
            ({"mu": [1.0], "phi_norm": 3.0, "D": 2, "radius": 0}, "c.json: radius must be positive, got 0"),
            (
                {"mu": [1.0], "phi_norm": 3.0, "D": 2, "radius": 5},
                "c.json: lattice sums did not converge at radius 5 for mu = 1.0",
            ),
        ],
        ids=["radius-string", "radius-bool", "D-float", "mu-entry", "unknown-key", "D-zero", "radius-zero",
             "radius-unconverged"],
    )
    def test_constants_config_errors_are_exit_two(self, tmp_path, capsys, doc, message):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        code = cli_main(["constants", "--config", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err
        assert "Traceback" not in captured.err

    def test_constants_unconverged_radius_flag_is_exit_two(self, capsys):
        code = cli_main(["constants", "--mu", "1", "--phi-norm", "3", "--local-dim", "2", "--radius", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: lattice sums did not converge at radius 5 for mu = 1.0\n"

    def test_verify_stdout_and_exit_zero(self, cli_model, capsys):
        code = cli_main(["verify", "--config", str(cli_model / "experiment.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0].startswith("t,dAB,N,exact_norm")
        assert "violations: 0" in captured.err

    def test_verify_out_files(self, cli_model, capsys):
        prefix = cli_model / "results" / "v"
        code = cli_main([
            "verify", "--config", str(cli_model / "experiment.json"), "--out", str(prefix),
        ])
        assert code == 0
        assert (cli_model / "results" / "v.csv").exists()
        assert (cli_model / "results" / "v.json").exists()

    def test_identities_exit_zero(self, cli_model, capsys):
        code = cli_main(["identities", "--config", str(cli_model / "experiment.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("check,residual,threshold,status")

    def test_disorder_runs_and_is_deterministic(self, cli_model, capsys):
        args = ["disorder", "--config", str(cli_model / "sweep.json")]
        code = cli_main(args)
        first = capsys.readouterr().out
        assert code == 0
        code = cli_main(args + ["--threads", "3"])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second

    def test_disorder_seed_override_changes_draws(self, cli_model, capsys):
        args = ["disorder", "--config", str(cli_model / "sweep.json")]
        cli_main(args)
        base = capsys.readouterr().out
        cli_main(args + ["--seed", "8"])
        reseeded = capsys.readouterr().out
        assert base != reseeded

    def test_missing_config_is_exit_two(self, tmp_path, capsys):
        assert cli_main(["verify"]) == 2
        assert "config error" in capsys.readouterr().err
        assert cli_main(["disorder", "--config", "/no/such/file.json"]) == 2
        assert "config error" in capsys.readouterr().err
        # the constants subcommand reads its optional config file through the same reader
        constants = lambda p: _cmd_constants(build_parser().parse_args(["constants", "--config", str(p)]))
        assert_json_object_errors(constants, tmp_path, ConfigError)

    def test_bad_threads_and_seed(self, cli_model, capsys):
        code = cli_main([
            "verify", "--config", str(cli_model / "experiment.json"), "--threads", "0",
        ])
        assert code == 2
        capsys.readouterr()
        code = cli_main([
            "disorder", "--config", str(cli_model / "sweep.json"), "--seed", "-1",
        ])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_constants_rejects_run_flags(self, capsys):
        # constants reads neither a seed nor a thread count, so it takes neither flag
        for flag, value in (("--threads", "0"), ("--seed", "7")):
            with pytest.raises(SystemExit) as info:
                cli_main(["constants", "--mu", "1", "--phi-norm", "3", "--local-dim", "2", flag, value])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
