import json

import numpy as np
import pytest

from lrchain.geometry import ChainGeometry, SiteSupport, SupportError
from lrchain.model import (
    ImpuritySpec,
    ModelFormatError,
    NNInteraction,
    SiteImpurity,
    build_decoupled_hamiltonian,
    build_nn_hamiltonian,
    build_perturbed_hamiltonian,
    decoupled_split,
    impurity_window,
    load_model,
    min_spacing,
    offdiagonal_block,
    perturbation_operator,
)
from lrchain.operators import (
    HERMITICITY_TOL,
    PAULI,
    DenseOperator,
    HermiticityError,
    commutator,
    embed_local,
    operator_norm,
)
from util import assert_json_object_errors, chain_hamiltonian_oracle, random_hermitian

HEISENBERG = -(
    np.kron(PAULI["sx"], PAULI["sx"])
    + np.kron(PAULI["sy"], PAULI["sy"])
    + np.kron(PAULI["sz"], PAULI["sz"])
)


def random_bonds(rng, geom, norm=1.0):
    return {
        x: random_hermitian(rng, geom.local_dim**2, norm=norm)
        for x in range(-geom.half_length, geom.half_length)
    }


class TestNNInteraction:
    def test_uniform_fills_every_bond(self):
        geom = ChainGeometry(2, 2)
        phi = NNInteraction(geom, uniform_bond=HEISENBERG)
        for x in range(-2, 2):
            assert np.allclose(phi.bond(x), HEISENBERG)

    def test_override_and_zero_default(self, rng):
        geom = ChainGeometry(2, 2)
        special = random_hermitian(rng, 4)
        phi = NNInteraction(geom, uniform_bond=HEISENBERG, bonds={0: special})
        assert np.allclose(phi.bond(0), special)
        assert np.allclose(phi.bond(-2), HEISENBERG)
        sparse = NNInteraction(geom, bonds={1: special})
        assert np.allclose(sparse.bond(1), special)
        assert not np.any(sparse.bond(0))

    def test_bond_outside_chain(self):
        geom = ChainGeometry(2, 2)
        phi = NNInteraction(geom, uniform_bond=HEISENBERG)
        with pytest.raises(SupportError):
            phi.bond(2)  # (2, 3) has no right endpoint on a length-5 chain
        with pytest.raises(SupportError):
            NNInteraction(geom, bonds={2: HEISENBERG})

    def test_rejects_non_hermitian_or_wrong_shape(self, rng):
        geom = ChainGeometry(2, 2)
        with pytest.raises(HermiticityError, match="uniform bond term"):
            NNInteraction(geom, uniform_bond=np.triu(np.ones((4, 4)), 1))
        with pytest.raises(HermiticityError, match=r"bond term at \(0, 1\)"):
            NNInteraction(geom, bonds={0: np.triu(np.ones((4, 4)), 1)})
        with pytest.raises(HermiticityError, match="nan"):
            NNInteraction(geom, uniform_bond=np.where(np.eye(4) == 1, np.nan, 0.0))
        with pytest.raises(ValueError):
            NNInteraction(geom, uniform_bond=np.eye(3))

    def test_strength_is_max_bond_norm(self, rng):
        geom = ChainGeometry(2, 2)
        bonds = random_bonds(rng, geom)
        phi = NNInteraction(geom, bonds=bonds)
        want = max(operator_norm(m) for m in bonds.values())
        assert abs(phi.strength - want) <= 1e-12
        assert NNInteraction(geom).strength == 0.0

    def test_heisenberg_strength(self):
        geom = ChainGeometry(1, 2)
        phi = NNInteraction(geom, uniform_bond=2.0 * HEISENBERG)
        assert abs(phi.strength - 6.0) <= 1e-12  # spectrum {-2J, -2J, -2J, 6J} at J = 2


class TestSiteImpurity:
    def test_from_hermitian_round_trip(self, rng):
        m = random_hermitian(rng, 4)
        imp = SiteImpurity.from_hermitian(3, m)
        assert imp.site == 3
        assert imp.local_dim == 4
        assert np.allclose(imp.matrix(), m)
        assert np.all(np.diff(imp.eigenvalues) > 0)

    def test_site_is_a_python_int(self):
        imp = SiteImpurity.from_hermitian(np.int64(-2), PAULI["sz"])
        assert imp.site == -2 and type(imp.site) is int
        with pytest.raises(ValueError, match="impurity site must be an integer, got 0.5"):
            SiteImpurity.from_hermitian(0.5, PAULI["sz"])

    def test_gap(self):
        imp = SiteImpurity.from_hermitian(0, np.diag([0.0, 1.5, 5.0]))
        assert abs(imp.gap - 1.5) <= 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            SiteImpurity.from_hermitian(0, np.diag([1.0, 1.0 + 1e-9]))
        # just above the cutoff is accepted
        SiteImpurity.from_hermitian(0, np.diag([1.0, 1.0 + 1e-7]))

    def test_from_hermitian_reports_the_smallest_gap(self):
        # one gap check, with one message, for matrices and spectral data alike
        with pytest.raises(ValueError, match=r"degenerate within 1e-08 \(smallest gap 0\.000e\+00\)"):
            SiteImpurity.from_hermitian(0, np.diag([1.0, 1.0]))

    def test_rejects_bad_projectors(self):
        evals = np.array([0.0, 1.0])
        good = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        SiteImpurity(0, evals, good)
        not_rank_one = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        with pytest.raises(ValueError, match="rank one"):
            SiteImpurity(0, evals, not_rank_one)
        not_orthogonal = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(ValueError, match="identity|orthogonal"):
            SiteImpurity(0, evals, not_orthogonal)

    def test_rejects_non_hermitian_input(self):
        with pytest.raises(HermiticityError, match="impurity matrix at site 0"):
            SiteImpurity.from_hermitian(0, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestImpuritySpec:
    def test_uniform_constructor(self):
        spec = ImpuritySpec.uniform([-2, 0, 2], PAULI["sz"], 5.0)
        assert spec.sites == (-2, 0, 2)
        assert spec.coupling(0) == 5.0
        assert spec.is_uniform()
        assert not spec.is_empty()
        assert spec.has(2) and not spec.has(1)
        assert spec.at(-2).site == -2

    def test_coupling_keys_are_python_ints(self):
        spec = ImpuritySpec.uniform([np.int64(0), np.int64(2)], PAULI["sz"], 50.0)
        assert [type(x) for x in spec.couplings] == [int, int]
        assert json.dumps(spec.couplings) == '{"0": 50.0, "2": 50.0}'

    def test_per_site_couplings_not_uniform(self):
        spec = ImpuritySpec.uniform([0, 2], PAULI["sz"], {0: 1.0, 2: 3.0})
        assert not spec.is_uniform()

    def test_coupling_gap_product(self):
        spec = ImpuritySpec.uniform([0, 2], np.diag([0.0, 2.0]), {0: -3.0, 2: 4.0})
        # each gap is 2, so the product over both sites is (3*2) * (4*2)
        assert abs(spec.coupling_gap_product([0, 2]) - 48.0) <= 1e-12
        assert spec.coupling_gap_product([]) == 1.0

    def test_validation(self):
        imp = SiteImpurity.from_hermitian(0, PAULI["sz"])
        with pytest.raises(ValueError, match="duplicate"):
            ImpuritySpec([imp, SiteImpurity.from_hermitian(0, PAULI["sx"])], {0: 1.0})
        with pytest.raises(ValueError, match="couplings"):
            ImpuritySpec([imp], {1: 1.0})
        with pytest.raises(ValueError, match="nonzero"):
            ImpuritySpec([imp], {0: 0.0})
        qutrit = SiteImpurity.from_hermitian(1, np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="dimension"):
            ImpuritySpec([imp, qutrit], {0: 1.0, 1: 1.0})

    def test_min_spacing(self):
        assert min_spacing(ImpuritySpec.uniform([-4, -1, 5], PAULI["sz"], 1.0)) == 3.0
        assert min_spacing(ImpuritySpec.uniform([7], PAULI["sz"], 1.0)) == float("inf")
        with pytest.raises(ValueError):
            min_spacing(ImpuritySpec())


class TestImpurityWindow:
    def test_window_boundaries(self):
        spec = ImpuritySpec.uniform(list(range(-6, 7)), PAULI["sz"], 1.0)
        a, b = SiteSupport(-8, -4), SiteSupport(4, 8)
        # window is [max S_A + 3, min S_B - 3] = [-1, 1]
        assert impurity_window(a, b, spec) == (-1, 0, 1)

    def test_empty_window(self):
        spec = ImpuritySpec.uniform([0], PAULI["sz"], 1.0)
        assert impurity_window(SiteSupport(-2, -2), SiteSupport(2, 2), spec) == ()
        assert impurity_window(SiteSupport(-8, -8), SiteSupport(8, 8), ImpuritySpec()) == ()

    def test_window_keeps_site_order(self):
        spec = ImpuritySpec.uniform([-1, 1, 3], PAULI["sz"], 1.0)
        # window is [-5 + 3, 5 - 3] = [-2, 2], so the site at 3 is excluded
        got = impurity_window(SiteSupport(-9, -5), SiteSupport(5, 9), spec)
        assert got == (-1, 1)


class TestHamiltonianBuilders:
    def test_nn_hamiltonian_against_embedding_oracle(self, rng):
        geom = ChainGeometry(2, 2)
        bonds = random_bonds(rng, geom)
        phi = NNInteraction(geom, bonds=bonds)
        h = build_nn_hamiltonian(phi, geom)
        want = chain_hamiltonian_oracle(bonds, {}, geom.half_length, geom.local_dim)
        assert np.allclose(h.matrix, want)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) <= HERMITICITY_TOL

    def test_perturbed_hamiltonian_against_oracle(self, rng):
        geom = ChainGeometry(2, 2)
        bonds = random_bonds(rng, geom)
        phi = NNInteraction(geom, bonds=bonds)
        mats = {x: random_hermitian(rng, 2) for x in (-1, 1)}
        spec = ImpuritySpec(
            [SiteImpurity.from_hermitian(x, m) for x, m in mats.items()],
            {-1: 2.0, 1: -0.5},
        )
        h = build_perturbed_hamiltonian(phi, spec, geom)
        fields = {x: spec.coupling(x) * m for x, m in mats.items()}
        want = chain_hamiltonian_oracle(bonds, fields, geom.half_length, geom.local_dim)
        assert np.allclose(h.matrix, want)

    def test_perturbation_exclude(self, rng):
        geom = ChainGeometry(2, 2)
        spec = ImpuritySpec.uniform([-1, 1], PAULI["sz"], 3.0)
        both = perturbation_operator(spec, geom)
        without_right = perturbation_operator(spec, geom, exclude=1)
        lone = embed_local(
            DenseOperator.single_site(-1, 3.0 * PAULI["sz"]), geom.full_support, geom
        )
        assert np.allclose(without_right.matrix, lone.matrix)
        assert not np.allclose(both.matrix, without_right.matrix)

    def test_builders_add_embedded_terms_in_site_order(self, rng):
        # entry for entry: each builder equals its local terms embedded on the
        # full chain and added from the left end of the chain to the right;
        # sx projectors are not diagonal, and no terms give the zero matrix
        geom = ChainGeometry(3, 2)
        phi = NNInteraction(geom, bonds=random_bonds(rng, geom))
        couplings = {-2: 1.5, 0: 4.0, 1: -2.0}
        spec = ImpuritySpec.uniform(list(couplings), PAULI["sx"], couplings)
        eye, projs = np.eye(2), spec.at(0).projectors

        def site_order_sum(terms):
            h = np.zeros((geom.total_dim, geom.total_dim), dtype=complex)
            for term in terms:
                h += embed_local(term, geom.full_support, geom).matrix
            return h

        def bond(x, matrix=None):
            return DenseOperator(SiteSupport(x, x + 1), phi.bond(x) if matrix is None else matrix)

        def field(x):
            return DenseOperator.single_site(x, couplings[x] * spec.at(x).matrix())

        left_bond = sum(np.kron(eye, p) @ phi.bond(-1) @ np.kron(eye, p) for p in projs)
        right_bond = sum(np.kron(p, eye) @ phi.bond(0) @ np.kron(p, eye) for p in projs)
        left, right = decoupled_split(phi, spec, 0, geom)
        pairs = [
            (build_nn_hamiltonian(phi, geom), [bond(x) for x in range(-3, 3)]),
            (perturbation_operator(spec, geom), [field(x) for x in (-2, 0, 1)]),
            (perturbation_operator(spec, geom, exclude=0), [field(x) for x in (-2, 1)]),
            (left, [bond(-3), bond(-2), bond(-1, left_bond)]),
            (right, [bond(0, right_bond), bond(1), bond(2)]),
            (build_nn_hamiltonian(NNInteraction(geom), geom), []),
            (perturbation_operator(ImpuritySpec(), geom), []),
        ]
        for got, terms in pairs:
            assert np.array_equal(got.matrix, site_order_sum(terms))

    def test_perturbed_hamiltonian_is_bond_sum_plus_impurity_sum(self, rng):
        # entry for entry: the bonds summed in site order, then the
        # impurities summed in site order, then the two sums added, each
        # term placed by np.kron with identities; three sz impurities share
        # every diagonal entry, so regrouping the sum would move its bits
        geom = ChainGeometry(3, 2)
        phi = NNInteraction(geom, bonds=random_bonds(rng, geom))
        couplings = {-2: 1.7, 0: -3.1, 2: 0.45}
        spec = ImpuritySpec.uniform(list(couplings), PAULI["sz"], couplings)

        def placed(lo, hi, m):
            return np.kron(np.kron(np.eye(2 ** (lo + 3)), m), np.eye(2 ** (3 - hi)))

        bond_sum = np.zeros((geom.total_dim, geom.total_dim), dtype=complex)
        for x in range(-3, 3):
            bond_sum += placed(x, x + 1, phi.bond(x))
        impurity_sum = np.zeros_like(bond_sum)
        for x, lam in couplings.items():
            impurity_sum += placed(x, x, lam * PAULI["sz"])
        assert np.array_equal(build_perturbed_hamiltonian(phi, spec, geom).matrix, bond_sum + impurity_sum)

    def test_qutrit_oracle(self, rng):
        geom = ChainGeometry(1, 3)
        bonds = {x: random_hermitian(rng, 9) for x in (-1, 0)}
        phi = NNInteraction(geom, bonds=bonds)
        h = build_nn_hamiltonian(phi, geom)
        want = chain_hamiltonian_oracle(bonds, {}, 1, 3)
        assert np.allclose(h.matrix, want)


class TestDecoupledHamiltonian:
    def setup_instance(self, rng, lam=5.0):
        geom = ChainGeometry(2, 2)
        phi = NNInteraction(geom, bonds=random_bonds(rng, geom))
        spec = ImpuritySpec.uniform([0], random_hermitian(rng, 2), lam)
        return geom, phi, spec

    def test_commutes_with_onsite_term(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        hhat = build_decoupled_hamiltonian(phi, spec, 0, geom)
        v = perturbation_operator(spec, geom)
        assert operator_norm(commutator(hhat, v)) <= 1e-10

    def test_full_hamiltonian_does_not_commute(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        h = build_nn_hamiltonian(phi, geom)
        v = perturbation_operator(spec, geom)
        assert operator_norm(commutator(h, v)) > 1e-3

    def test_split_reassembles_and_commutes(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        left, right = decoupled_split(phi, spec, 0, geom)
        hhat = build_decoupled_hamiltonian(phi, spec, 0, geom)
        assert operator_norm(left + right - hhat) <= 1e-10
        assert operator_norm(commutator(left, right)) <= 1e-10

    def test_split_supports(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        left, right = decoupled_split(phi, spec, 0, geom)
        assert left.support == geom.full_support
        assert right.support == geom.full_support

    def test_offdiagonal_blocks_sum_to_defect(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        h = build_nn_hamiltonian(phi, geom)
        hhat = build_decoupled_hamiltonian(phi, spec, 0, geom)
        total = np.zeros((geom.total_dim, geom.total_dim), dtype=complex)
        for j in range(2):
            for k in range(2):
                if j == k:
                    continue
                blk = offdiagonal_block(phi, spec, 0, j, k, geom)
                assert blk.support == SiteSupport(-1, 1)
                total += embed_local(blk, geom.full_support, geom).matrix
        assert np.max(np.abs(total - (h - hhat).matrix)) <= 1e-10

    def test_offdiagonal_block_errors(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        with pytest.raises(ValueError, match="j != k"):
            offdiagonal_block(phi, spec, 0, 1, 1, geom)
        with pytest.raises(ValueError, match="indices"):
            offdiagonal_block(phi, spec, 0, 0, 2, geom)

    def test_decoupling_site_must_carry_impurity(self, rng):
        geom, phi, spec = self.setup_instance(rng)
        with pytest.raises(ValueError, match="no impurity"):
            build_decoupled_hamiltonian(phi, spec, 1, geom)

    def test_decoupling_site_needs_margin(self, rng):
        geom = ChainGeometry(2, 2)
        phi = NNInteraction(geom, bonds=random_bonds(rng, geom))
        spec = ImpuritySpec.uniform([-2, 2], PAULI["sz"], 1.0)
        for edge in (-2, 2):
            with pytest.raises(SupportError, match="decoupling"):
                build_decoupled_hamiltonian(phi, spec, edge, geom)


class TestLoadModel:
    def write(self, tmp_path, doc):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        return p

    def test_golden_round_trip(self, tmp_path):
        doc = {
            "L": 2,
            "D": 2,
            "bond_matrix": [[float(v) for v in row] for row in HEISENBERG.real],
            "impurities": [
                {"site": 0, "coupling": 5.0, "hermitian": "sz"},
                {
                    "site": -1,
                    "coupling": 2.0,
                    "eigenvalues": [-1.0, 1.0],
                    "projectors": [[[0, 0], [0, 1]], [[1, 0], [0, 0]]],
                },
            ],
        }
        geom, phi, imp = load_model(self.write(tmp_path, doc))
        assert geom.half_length == 2 and geom.local_dim == 2
        assert np.allclose(phi.bond(0), HEISENBERG)
        assert imp.sites == (-1, 0)
        assert imp.coupling(0) == 5.0
        assert np.allclose(imp.at(0).matrix(), PAULI["sz"])
        # -1 * |1><1| + 1 * |0><0| reassembles to sz
        assert np.allclose(imp.at(-1).matrix(), PAULI["sz"])

    def test_complex_entries(self, tmp_path):
        doc = {
            "L": 1,
            "D": 2,
            "bonds": {
                "0": [
                    [0, 0, 0, [0, -1]],
                    [0, 0, 0, 0],
                    [0, 0, 0, 0],
                    [[0, 1], 0, 0, 0],
                ]
            },
        }
        geom, phi, imp = load_model(self.write(tmp_path, doc))
        m = phi.bond(0)
        assert m[0, 3] == -1j and m[3, 0] == 1j

    def test_bonds_override_uniform(self, tmp_path, rng):
        special = random_hermitian(rng, 4)
        doc = {
            "L": 2,
            "D": 2,
            "bond_matrix": [[float(v) for v in row] for row in np.eye(4)],
            "bonds": {"0": [[complex(v).real for v in row] for row in special.real]},
        }
        _, phi, _ = load_model(self.write(tmp_path, doc))
        assert np.allclose(phi.bond(0), special.real)
        assert np.allclose(phi.bond(1), np.eye(4))

    def test_error_paths_are_precise(self, tmp_path):
        cases = [
            ({"D": 2}, r"missing required key 'L'"),
            ({"L": 1.5, "D": 2}, r"L.*expected an integer"),
            ({"L": 1, "D": 2, "bond_matrix": [[1, 0], [0, 1]]}, r"bond_matrix: expected 4 matrix rows"),
            (
                {"L": 1, "D": 2, "bonds": {"0": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, "x", 1]]}},
                r"bonds\.0\[3\]\[2\]",
            ),
            ({"L": 1, "D": 2, "bonds": {"q": "sx"}}, r"not an integer site"),
            ({"L": 1, "D": 2, "bonds": {"0": "nope"}}, r"unknown named matrix"),
            ({"L": 1, "D": 2, "impurities": [{"site": 9, "coupling": 1.0, "hermitian": "sz"}]}, r"site"),
            ({"L": 1, "D": 2, "impurities": [{"site": 0, "hermitian": "sz"}]}, r"missing required key 'coupling'"),
            (
                {"L": 1, "D": 2, "impurities": [{"site": 0, "coupling": 1.0}]},
                r"'hermitian' or 'eigenvalues'",
            ),
            (
                {"L": 1, "D": 2, "impurities": [
                    {"site": 0, "coupling": 1.0, "hermitian": [[1, 0], [0, 1]]},
                ]},
                r"degenerate",
            ),
            (
                {"L": 1, "D": 2, "impurities": [
                    {"site": 0, "coupling": 1.0, "hermitian": "sz"},
                    {"site": 0, "coupling": 2.0, "hermitian": "sz"},
                ]},
                r"duplicate",
            ),
            ({"L": 0, "D": 2}, r"half_length must be a positive integer"),
            # a misspelt key would otherwise leave the chain without bonds
            ({"L": 1, "D": 2, "bond_matrx": "sx"}, r"model\.json: unknown keys \['bond_matrx'\]"),
            (
                {"L": 1, "D": 2, "impurities": [{"site": 0, "coupling": 1.0, "hermitian": "sz", "field": 2}]},
                r"impurities\[0\]: unknown keys \['field'\]",
            ),
            (
                {"L": 1, "D": 2, "impurities": [{"site": 0, "coupling": True, "hermitian": "sz"}]},
                r"impurities\[0\]\.coupling: expected a number",
            ),
        ]
        for doc, pattern in cases:
            with pytest.raises(ModelFormatError, match=pattern):
                load_model(self.write(tmp_path, doc))

    def test_syntax_error_carries_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"L\": 1,\n}")
        with pytest.raises(ModelFormatError, match=r"broken\.json:3"):
            load_model(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="no_such"):
            load_model(tmp_path / "no_such.json")

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="top-level"):
            load_model(p)
        assert_json_object_errors(load_model, tmp_path, ModelFormatError)
