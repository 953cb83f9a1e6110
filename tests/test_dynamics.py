import numpy as np
import pytest

from lrchain.disorder import heisenberg_bond
from lrchain import dynamics, operators
from lrchain.dynamics import (
    FD_PHASE_STEP,
    RECONSTRUCTION_TOL,
    DecoupledDynamics,
    EvolutionContext,
    commutator_norm_table,
    connected_components,
    projection_commutator_norm,
    split_commutator_norms,
    two_sides,
)
from lrchain.geometry import ChainGeometry, SiteSupport, SupportError
from lrchain.model import ImpuritySpec, NNInteraction, build_perturbed_hamiltonian
from lrchain.operators import (
    HERMITICITY_TOL,
    PAULI,
    DenseOperator,
    HermiticityError,
    commutator,
    commutator_norms,
    embed_local,
    epsilon_unitaries,
    hermitian_spectral,
    operator_norm,
)
from util import ed_floor, random_complex, random_hermitian


def onsite_hamiltonian(geom, site, matrix):
    return embed_local(DenseOperator.single_site(site, matrix), geom.full_support, geom)


def random_chain(rng, half_length=2, norm=1.0, local_dim=2):
    geom = ChainGeometry(half_length, local_dim)
    bonds = {
        x: random_hermitian(rng, local_dim**2, norm=norm)
        for x in range(-half_length, half_length)
    }
    return geom, NNInteraction(geom, bonds=bonds)


def heisenberg_field_chain(rng, half_length=2):
    """Heisenberg bonds plus sz fields of random strength on every site.

    The Hamiltonian conserves total S^z, so its exact nonzero pattern splits
    into the n_sites + 1 sectors of that charge.
    """
    geom = ChainGeometry(half_length, 2)
    phi = NNInteraction(geom, uniform_bond=heisenberg_bond(1.0))
    sites = list(range(-half_length, half_length + 1))
    fields = {x: rng.uniform(0.5, 3.0) for x in sites}
    return geom, build_perturbed_hamiltonian(phi, ImpuritySpec.uniform(sites, PAULI["sz"], fields), geom)


class TestEvolutionContext:
    def test_single_site_closed_form(self):
        # generator sx at site 0 rotates sz into sy at angular rate 2:
        # exp(it sx) sz exp(-it sx) = cos(2t) sz + sin(2t) sy
        geom = ChainGeometry(1, 2)
        ctx = EvolutionContext(onsite_hamiltonian(geom, 0, PAULI["sx"]), geom)
        for t in (0.0, 0.3, 1.0, -2.2):
            evolved = ctx.evolve(DenseOperator.single_site(0, PAULI["sz"]), t)
            want = embed_local(
                DenseOperator.single_site(
                    0, np.cos(2 * t) * PAULI["sz"] + np.sin(2 * t) * PAULI["sy"]
                ),
                geom.full_support,
                geom,
            )
            assert operator_norm(evolved - want) <= 1e-12

    def test_group_law(self, rng):
        geom, phi = random_chain(rng)
        h = build_perturbed_hamiltonian(phi, ImpuritySpec(), geom)
        ctx = EvolutionContext(h, geom)
        a = DenseOperator(SiteSupport(-1, 0), random_hermitian(rng, 4))
        one = ctx.evolve(ctx.evolve(a, 0.4), 0.7)
        direct = ctx.evolve(a, 1.1)
        assert operator_norm(one - direct) <= 1e-11

    def test_inverse(self, rng):
        geom, phi = random_chain(rng)
        ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
        a = DenseOperator(SiteSupport(0, 1), random_hermitian(rng, 4))
        back = ctx.evolve(ctx.evolve(a, 1.5), -1.5)
        ref = embed_local(a, geom.full_support, geom)
        assert operator_norm(back - ref) <= 1e-11

    def test_preserves_norm_and_hermiticity(self, rng):
        geom, phi = random_chain(rng)
        ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
        a = DenseOperator(SiteSupport(-2, -1), random_hermitian(rng, 4))
        evolved = ctx.evolve(a, 2.3)
        assert abs(operator_norm(evolved) - operator_norm(a)) <= 1e-11
        assert np.max(np.abs(evolved.matrix - evolved.matrix.conj().T)) <= HERMITICITY_TOL

    def test_time_zero_is_embedding(self, rng):
        geom, phi = random_chain(rng)
        ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
        a = DenseOperator(SiteSupport(0, 0), random_hermitian(rng, 2))
        assert operator_norm(ctx.evolve(a, 0.0) - embed_local(a, geom.full_support, geom)) == 0.0

    def test_rejects_partial_support_hamiltonian(self, rng):
        geom = ChainGeometry(2, 2)
        h = DenseOperator(SiteSupport(0, 1), random_hermitian(rng, 4))
        with pytest.raises(SupportError):
            EvolutionContext(h, geom)

    def test_rejects_non_hermitian_hamiltonian(self, rng):
        geom = ChainGeometry(1, 2)
        m = np.triu(np.ones((8, 8)), 1)
        with pytest.raises(HermiticityError):
            EvolutionContext(DenseOperator(geom.full_support, m), geom)

    def test_rejects_wrong_dimension(self):
        geom = ChainGeometry(1, 2)
        with pytest.raises(ValueError):
            EvolutionContext(DenseOperator(geom.full_support, np.eye(16)), geom)

    def test_helpers_match_methods(self, rng):
        geom, phi = random_chain(rng)
        ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
        a = DenseOperator(SiteSupport(-2, -2), random_hermitian(rng, 2))
        b = DenseOperator(SiteSupport(2, 2), random_hermitian(rng, 2))
        ev = ctx.evolve(a, 0.8)
        bf = embed_local(b, geom.full_support, geom)
        want = operator_norm(commutator(ev, bf))
        got = commutator_norm_table(ctx.hamiltonian, [np.zeros(geom.total_dim)], a, b, geom, (0.8,))[0][0, 0]
        assert abs(got - want) <= 1e-13

    def test_commutator_norms_match_reference_route(self, rng):
        # eigenbasis-resident norms of `commutator_norm_table` against
        # evolving A and commuting with the embedded B in the computational
        # basis; Hermitian pairs take the eigvalsh route, the others the SVD.
        # Random bonds make H one block.  On the Heisenberg chain with sz
        # fields, diagonal pairs keep one group per S^z sector and the sx
        # pair merges the sectors.  The tolerance is the dense-ED floor
        # 4 eps dim (||H|| |t| + 1) ||A|| ||B|| plus 1e-9 relative.
        geom, phi = random_chain(rng)
        random_h = build_perturbed_hamiltonian(phi, ImpuritySpec(), geom)
        heis_geom, heis_h = heisenberg_field_chain(rng)
        assert heis_geom == geom
        sectors = geom.n_sites + 1
        cases = (
            (random_h, DenseOperator(SiteSupport(-2, -1), random_hermitian(rng, 4)),
             DenseOperator(SiteSupport(1, 1), random_hermitian(rng, 2)), 1),
            (random_h, DenseOperator(SiteSupport(-2, -2), random_complex(rng, 2)),
             DenseOperator(SiteSupport(0, 1), random_complex(rng, 4)), 1),
            (heis_h, DenseOperator.single_site(-2, PAULI["sz"]),
             DenseOperator.single_site(2, PAULI["sz"]), sectors),
            (heis_h, DenseOperator.single_site(-2, np.diag(random_complex(rng, 2)[0])),
             DenseOperator(SiteSupport(1, 2), np.diag(random_complex(rng, 4)[0])), sectors),
            (heis_h, DenseOperator.single_site(-2, PAULI["sx"]),
             DenseOperator.single_site(2, PAULI["sx"]), 1),
        )
        times = (0.0, -1.7, -0.3, 0.05, 0.8, 2.5)
        dim = geom.total_dim
        for h, a, b, n_blocks in cases:
            ctx = EvolutionContext(h, geom)
            h_norm = operator_norm(h)
            b_full = embed_local(b, geom.full_support, geom)
            a_full = embed_local(a, geom.full_support, geom)
            pattern = (h.matrix != 0) | (a_full.matrix != 0) | (b_full.matrix != 0)
            assert len(connected_components(pattern)) == n_blocks
            norms, residuals = commutator_norm_table(h, [np.zeros(dim)], a, b, geom, times)
            assert 0.0 <= residuals[0] <= RECONSTRUCTION_TOL
            scale = operator_norm(a) * operator_norm(b)
            assert norms[0, 0] == 0.0
            for t, got in zip(times[1:], norms[0, 1:]):
                want = operator_norm(commutator(ctx.evolve(a, t), b_full))
                assert abs(got - want) <= ed_floor(h_norm, dim, t, scale) + 1e-9 * want, (t, got, want)
            assert norms[0, -1] > 1e-3

    def test_connected_components(self):
        # an entry joins its row and column whichever triangle it sits in;
        # components come in the order of their smallest index
        pattern = np.zeros((6, 6), dtype=bool)
        pattern[4, 1] = pattern[1, 1] = pattern[5, 2] = pattern[2, 4] = True
        comps = connected_components(pattern)
        assert [c.tolist() for c in comps] == [[0], [1, 2, 4, 5], [3]]
        assert [c.tolist() for c in connected_components(np.ones((3, 3), dtype=bool))] == [[0, 1, 2]]

    def test_spectral_blocks_follow_zero_pattern(self, rng):
        geom, phi = random_chain(rng)
        dense = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
        assert [len(idx) for idx in dense.spectral_blocks] == [geom.total_dim]
        geom, h = heisenberg_field_chain(rng)
        ctx = EvolutionContext(h, geom)
        assert [len(idx) for idx in ctx.spectral_blocks] == [1, 5, 10, 10, 5, 1]
        # one (eigenvalues, eigenvectors) pair per block, of the block's size,
        # equal bit for bit to the decomposition of that block passed alone
        for context in (dense, ctx):
            m = context.hamiltonian.matrix
            for idx, (evals, evecs) in zip(context.spectral_blocks, context.spectra, strict=True):
                assert evals.shape == (len(idx),) and evecs.shape == (len(idx), len(idx))
                alone_evals, alone_evecs = hermitian_spectral(m[np.ix_(idx, idx)])
                assert np.array_equal(evals, alone_evals) and np.array_equal(evecs, alone_evecs)
        assert np.array_equal(ctx.eigenvalues, np.concatenate([evals for evals, _ in ctx.spectra]))

    def test_blocked_evolution_matches_expm(self, rng):
        # A joins blocks in both cases: a complex A on [-1, 0] on the
        # Heisenberg chain with sz fields (its S^z sectors), and sx at the
        # impurity of the zero-bond chain with an sz impurity, whose 128
        # blocks all have size 1
        from scipy.linalg import expm

        geom, h = heisenberg_field_chain(rng)
        zero_geom = ChainGeometry(3, 2)
        imp = ImpuritySpec.uniform([0], PAULI["sz"], 5.0)
        zero_h = build_perturbed_hamiltonian(NNInteraction(zero_geom), imp, zero_geom)
        cases = (
            (geom, h, DenseOperator(SiteSupport(-1, 0), random_complex(rng, 4)), geom.n_sites + 1),
            (zero_geom, zero_h, DenseOperator.single_site(0, PAULI["sx"]), zero_geom.total_dim),
        )
        for geom, h, a, n_blocks in cases:
            ctx = EvolutionContext(h, geom)
            assert len(ctx.spectral_blocks) == n_blocks
            a_full = embed_local(a, geom.full_support, geom).matrix
            for t in (-1.3, 0.4, 2.0):
                u = expm(1j * t * h.matrix)
                want = u @ a_full @ u.conj().T
                assert operator_norm(ctx.evolve(a, t).matrix - want) <= 1e-11

    def test_weighted_evolution_matches_expm_differences(self, rng):
        # weights cos(hw) and 2i sin(hw) of the Bohr frequency w give the
        # mean and the difference of the evolutions to t + h and t - h; an A
        # on [-1, 0] joins the S^z sectors, and t = 0 still applies the weight
        from scipy.linalg import expm

        geom, h = heisenberg_field_chain(rng)
        ctx = EvolutionContext(h, geom)
        a = DenseOperator(SiteSupport(-1, 0), random_complex(rng, 4))
        a_full = embed_local(a, geom.full_support, geom).matrix
        step = 1e-2

        def evolved(tau):
            u = expm(1j * tau * h.matrix)
            return u @ a_full @ u.conj().T

        for t in (0.0, 0.4):
            later, earlier = evolved(t + step), evolved(t - step)
            mean = ctx.evolve(a, t, lambda w: np.cos(step * w)).matrix
            diff = ctx.evolve(a, t, lambda w: 2j * np.sin(step * w)).matrix
            assert operator_norm(mean - 0.5 * (later + earlier)) <= 1e-11
            assert operator_norm(diff - (later - earlier)) <= 1e-11

    def test_rejects_non_hermitian_entry_in_block(self, rng):
        geom, h = heisenberg_field_chain(rng)
        blocks = EvolutionContext(h, geom).spectral_blocks
        i, j = blocks[2][:2]
        inside = h.matrix.copy()
        inside[i, j] += 1e-6
        with pytest.raises(HermiticityError):
            EvolutionContext(DenseOperator(geom.full_support, inside), geom)
        # a one-sided entry between two sectors joins them and is checked too
        bridge = h.matrix.copy()
        bridge[blocks[1][0], blocks[2][0]] = 1e-6
        with pytest.raises(HermiticityError):
            EvolutionContext(DenseOperator(geom.full_support, bridge), geom)


def exchange_and_fields(rng, n_fields, half_length=2):
    """The Heisenberg chain without fields, and random real field diagonals of shape (n_fields, dim)."""
    geom = ChainGeometry(half_length, 2)
    phi = NNInteraction(geom, uniform_bond=heisenberg_bond(1.0))
    h0 = build_perturbed_hamiltonian(phi, ImpuritySpec(), geom)
    sz = [embed_local(DenseOperator.single_site(x, PAULI["sz"]), geom.full_support, geom).matrix.diagonal().real
          for x in range(-half_length, half_length + 1)]
    strengths = rng.uniform(0.5, 3.0, size=(n_fields, len(sz)))
    return geom, h0, strengths @ np.array(sz)


class TestCommutatorNormTable:
    TIMES = (0.0, -0.7, 0.3, 1.9)

    def test_matches_evolution_context(self, rng):
        # row r of a stacked table equals, bit for bit, the table of H_r
        # alone (a stack of one), on the eigvalsh route (Hermitian pairs) and
        # the SVD route (complex ones), for diagonal pairs that keep the S^z
        # sectors and for pairs that join them.  Every norm agrees with
        # evolving A through EvolutionContext and commuting with B to the
        # dense-ED floor; where the groups are the sectors, each residual is
        # the one of that context.
        geom, h0, fields = exchange_and_fields(rng, 5)
        dim = geom.total_dim
        cases = (
            (DenseOperator.single_site(-2, PAULI["sz"]), DenseOperator.single_site(2, PAULI["sz"]), True),
            (DenseOperator.single_site(-2, np.diag(random_complex(rng, 2)[0])),
             DenseOperator(SiteSupport(1, 2), np.diag(random_complex(rng, 4)[0])), True),
            (DenseOperator.single_site(-2, PAULI["sx"]), DenseOperator.single_site(2, PAULI["sx"]), False),
            (DenseOperator(SiteSupport(-2, -1), random_complex(rng, 4)),
             DenseOperator.single_site(2, random_hermitian(rng, 2)), False),
        )
        for a, b, keeps_sectors in cases:
            norms, residuals = commutator_norm_table(h0, fields, a, b, geom, self.TIMES)
            assert norms.shape == (len(fields), len(self.TIMES)) and residuals.shape == (len(fields),)
            scale = operator_norm(a) * operator_norm(b)
            b_full = embed_local(b, geom.full_support, geom)
            for r, d in enumerate(fields):
                h = DenseOperator(geom.full_support, h0.matrix + np.diag(d))
                alone, alone_residual = commutator_norm_table(h, [np.zeros(dim)], a, b, geom, self.TIMES)
                assert norms[r].tolist() == alone[0].tolist(), r
                assert residuals[r] == alone_residual[0], r
                ctx = EvolutionContext(h, geom)
                if keeps_sectors:
                    assert residuals[r] == ctx.reconstruction_residual, r
                else:
                    assert 0.0 <= residuals[r] <= RECONSTRUCTION_TOL, r
                want = np.array([operator_norm(commutator(ctx.evolve(a, t), b_full)) for t in self.TIMES])
                floor = ed_floor(operator_norm(h), dim, self.TIMES, scale)
                assert np.all(np.abs(norms[r] - want) <= floor + 1e-9 * want), r
        # a random-bond chain is one block, so its one group is that block too
        random_geom, phi = random_chain(rng)
        assert random_geom == geom
        h0 = build_perturbed_hamiltonian(phi, ImpuritySpec(), geom)
        a, b = DenseOperator.single_site(-2, PAULI["sz"]), DenseOperator.single_site(2, PAULI["sz"])
        _, residuals = commutator_norm_table(h0, fields, a, b, geom, self.TIMES)
        for r, d in enumerate(fields):
            ctx = EvolutionContext(DenseOperator(geom.full_support, h0.matrix + np.diag(d)), geom)
            assert len(ctx.spectral_blocks) == 1
            assert residuals[r] == ctx.reconstruction_residual, r

    def test_two_valued_route_matches_dense_evolution(self, rng, monkeypatch):
        # a Hermitian pair with a B that is diagonal with two distinct values
        # takes the norm from the block P_1 X P_2: sz pairs, a diagonal inline
        # B whose gap is not 2 (one site and two), and a non-diagonal A that
        # joins the sectors.  Seven Hamiltonians at two per chunk make four
        # chunks; row r equals the table of H_r alone, and every norm agrees
        # with evolving A and commuting with B to the dense-ED floor.  The
        # one-state sectors (all spins up or down) are groups on which B is
        # constant.
        geom, h0, fields = exchange_and_fields(rng, 7)
        dim = geom.total_dim
        sz = PAULI["sz"]
        cases = (
            (DenseOperator.single_site(-2, sz), DenseOperator.single_site(2, sz)),
            (DenseOperator.single_site(-1, sz), DenseOperator.single_site(1, np.diag([0.3, -1.2]))),
            (DenseOperator.single_site(-2, sz), DenseOperator(SiteSupport(1, 2), np.diag([0.3, -1.2, -1.2, 0.3]))),
            (DenseOperator(SiteSupport(-2, -1), random_hermitian(rng, 4)),
             DenseOperator.single_site(2, np.diag([0.3, -1.2]))),
        )
        sectors = connected_components(h0.matrix != 0)
        assert [len(idx) for idx in sectors][0] == [len(idx) for idx in sectors][-1] == 1
        largest = max(len(idx) for idx in sectors)
        monkeypatch.setattr(dynamics, "_STACK_CHUNK_BYTES", 2 * 16 * largest * largest)
        split_calls = []
        split = dynamics._split_norms
        monkeypatch.setattr(dynamics, "_split_norms", lambda *args: split_calls.append(1) or split(*args))
        for a, b in cases:
            norms, residuals = commutator_norm_table(h0, fields, a, b, geom, self.TIMES)
            scale = operator_norm(a) * operator_norm(b)
            b_full = embed_local(b, geom.full_support, geom)
            for r, d in enumerate(fields):
                h = DenseOperator(geom.full_support, h0.matrix + np.diag(d))
                alone, alone_residual = commutator_norm_table(h, [np.zeros(dim)], a, b, geom, self.TIMES)
                assert norms[r].tolist() == alone[0].tolist(), r
                assert residuals[r] == alone_residual[0], r
                ctx = EvolutionContext(h, geom)
                want = np.array([operator_norm(commutator(ctx.evolve(a, t), b_full)) for t in self.TIMES])
                floor = ed_floor(operator_norm(h), dim, self.TIMES, scale)
                assert np.all(np.abs(norms[r] - want) <= floor), (r, norms[r], want)
                assert norms[r, -1] > 1e-3
        assert split_calls

    def test_route_selection(self, rng, monkeypatch):
        # a Hermitian pair whose B has exactly two eigenvalues takes the
        # split route, diagonal or not; a non-Hermitian pair and a
        # three-valued diagonal B on a qutrit chain take _block_norms
        routes = []
        for name in ("_block_norms", "_split_norms"):
            spy = lambda *args, name=name, route=getattr(dynamics, name): routes.append(name) or route(*args)
            monkeypatch.setattr(dynamics, name, spy)

        def route_of(geom, h, a, b):
            routes.clear()
            commutator_norm_table(h, [np.zeros(geom.total_dim)], a, b, geom, self.TIMES)
            assert len(set(routes)) == 1, routes
            return routes[0]

        geom, h = heisenberg_field_chain(rng)
        sz = DenseOperator.single_site(-2, PAULI["sz"])
        assert route_of(geom, h, sz, DenseOperator.single_site(2, PAULI["sz"])) == "_split_norms"
        assert route_of(geom, h, DenseOperator.single_site(-2, PAULI["sx"]),
                        DenseOperator.single_site(2, PAULI["sz"])) == "_split_norms"
        for name in ("sx", "sy"):
            assert route_of(geom, h, sz, DenseOperator.single_site(2, PAULI[name])) == "_split_norms", name
        block_route = (
            (DenseOperator.single_site(-2, np.diag([1.0, 2.0 + 1.0j])), DenseOperator.single_site(2, PAULI["sz"])),
            (sz, DenseOperator.single_site(2, np.diag([1.0, 2.0 + 1.0j]))),
        )
        for a, b in block_route:
            assert route_of(geom, h, a, b) == "_block_norms"
        qutrit_geom, qutrit_phi = random_chain(rng, local_dim=3)
        qutrit_h = build_perturbed_hamiltonian(qutrit_phi, ImpuritySpec(), qutrit_geom)
        spin_one_z = np.diag([1.0, 0.0, -1.0])
        qutrit_pair = (DenseOperator.single_site(-2, spin_one_z), DenseOperator.single_site(2, spin_one_z))
        assert route_of(qutrit_geom, qutrit_h, *qutrit_pair) == "_block_norms"

    def test_local_observables_give_the_embedded_bits(self, rng, monkeypatch):
        # the table gathers A and B from the local matrices: the same bits
        # as with A and B passed already embedded on the full chain, on the
        # split route (sz and sx B, the latter joining the S^z sectors) and
        # the block route (a non-Hermitian pair, a three-valued qutrit pair)
        geom, h = heisenberg_field_chain(rng)
        sz = DenseOperator.single_site(-2, PAULI["sz"])
        qutrit_geom, qutrit_phi = random_chain(rng, local_dim=3)
        qutrit_h = build_perturbed_hamiltonian(qutrit_phi, ImpuritySpec(), qutrit_geom)
        spin_one_z = np.diag([1.0, 0.0, -1.0])
        cases = (
            (geom, h, sz, DenseOperator.single_site(2, PAULI["sz"])),
            (geom, h, sz, DenseOperator.single_site(1, PAULI["sx"])),
            (geom, h, DenseOperator(SiteSupport(-1, 0), random_complex(rng, 4)),
             DenseOperator.single_site(1, random_complex(rng, 2))),
            (qutrit_geom, qutrit_h, DenseOperator.single_site(-1, spin_one_z), DenseOperator.single_site(1, spin_one_z)),
        )
        embedded = []
        spy = lambda *args: embedded.append(args[0].support) or embed_local(*args)
        monkeypatch.setattr(dynamics, "embed_local", spy)
        for g, hamiltonian, a, b in cases:
            zero = [np.zeros(g.total_dim)]
            a_full, b_full = (embed_local(m, g.full_support, g) for m in (a, b))
            want, want_residual = commutator_norm_table(hamiltonian, zero, a_full, b_full, g, self.TIMES)
            embedded.clear()
            got, got_residual = commutator_norm_table(hamiltonian, zero, a, b, g, self.TIMES[1:])
            assert embedded == []
            assert got.tolist() == want[:, 1:].tolist() and got_residual.tolist() == want_residual.tolist()
            got, _ = commutator_norm_table(hamiltonian, zero, a, b, g, self.TIMES)
            assert embedded == [a.support, b.support]
            assert got.tolist() == want.tolist()

    def test_no_hamiltonians(self, rng):
        geom, h0, _ = exchange_and_fields(rng, 0)
        a = DenseOperator.single_site(-2, PAULI["sz"])
        norms, residuals = commutator_norm_table(h0, np.zeros((0, geom.total_dim)), a, a, geom, self.TIMES)
        assert norms.shape == (0, len(self.TIMES)) and residuals.shape == (0,)

    def test_reads_diagonals_one_chunk_at_a_time(self, rng, monkeypatch):
        # a generator is read one chunk at a time, so the diagonals of a long
        # sweep are never all in memory; 7 at 3 per chunk leaves a short last
        # chunk, and the table equals the one from the array
        geom, h0, fields = exchange_and_fields(rng, 7)
        a = DenseOperator.single_site(-2, PAULI["sz"])
        b = DenseOperator.single_site(2, PAULI["sz"])
        want = commutator_norm_table(h0, fields, a, b, geom, self.TIMES)
        sectors = connected_components(h0.matrix != 0)
        largest = max(len(idx) for idx in sectors)
        monkeypatch.setattr(dynamics, "_STACK_CHUNK_BYTES", 3 * 16 * largest * largest)
        read, read_at_stack = [0], []
        spectral = dynamics.hermitian_spectral

        def recording_spectral(m, *args):
            read_at_stack.append(read[0])
            return spectral(m, *args)

        def generated():
            for d in fields:
                read[0] += 1
                yield d

        monkeypatch.setattr(dynamics, "hermitian_spectral", recording_spectral)
        got = commutator_norm_table(h0, generated(), a, b, geom, self.TIMES)
        assert read_at_stack == [n for n in (3, 6, 7) for _ in sectors]
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    def test_rejects_bad_input(self, rng):
        geom, h0, fields = exchange_and_fields(rng, 2)
        a = DenseOperator.single_site(-2, PAULI["sz"])
        with pytest.raises(ValueError, match="diagonals of shape"):
            commutator_norm_table(h0, fields[:, :-1], a, a, geom, self.TIMES)
        partial = DenseOperator(SiteSupport(0, 1), random_hermitian(rng, 4))
        with pytest.raises(SupportError):
            commutator_norm_table(partial, fields, a, a, geom, self.TIMES)

    def test_member_faults_raise_like_evolution_context(self, rng, monkeypatch):
        # one bad member among several: the stack raises the class and the
        # text EvolutionContext raises for that Hamiltonian alone
        geom, h0, fields = exchange_and_fields(rng, 4)
        a = DenseOperator.single_site(-2, PAULI["sz"])
        b = DenseOperator.single_site(2, PAULI["sz"])
        skewed = fields.astype(complex)
        skewed[2, 5] += 1e-6j  # a complex diagonal entry is not Hermitian
        with pytest.raises(HermiticityError) as want:
            EvolutionContext(DenseOperator(geom.full_support, h0.matrix + np.diag(skewed[2])), geom)
        with pytest.raises(HermiticityError) as got:
            commutator_norm_table(h0, skewed, a, b, geom, self.TIMES)
        assert str(got.value) == str(want.value)
        # a tolerance between the largest residual and the next fails one member
        residuals = [
            EvolutionContext(DenseOperator(geom.full_support, h0.matrix + np.diag(d)), geom).reconstruction_residual
            for d in fields
        ]
        worst = int(np.argmax(residuals))
        below = max(x for x in residuals if x < residuals[worst])
        monkeypatch.setattr(dynamics, "RECONSTRUCTION_TOL", 0.5 * (residuals[worst] + below))
        with pytest.raises(ValueError, match="reconstruction residual") as want:
            EvolutionContext(DenseOperator(geom.full_support, h0.matrix + np.diag(fields[worst])), geom)
        with pytest.raises(ValueError, match="reconstruction residual") as got:
            commutator_norm_table(h0, fields, a, b, geom, self.TIMES)
        assert str(got.value) == str(want.value)


def identities_l3_context(seed):
    """The identities-L3 benchmark model: unit-norm random bonds drawn in site order from `seed`, diag(1, -1) at 0 with coupling 5."""
    geom = ChainGeometry(3, 2)
    rng = np.random.default_rng(seed)
    phi = NNInteraction(geom, bonds={x: random_hermitian(rng, 4, norm=1.0) for x in range(-3, 3)})
    imp = ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), 5.0)
    return EvolutionContext(build_perturbed_hamiltonian(phi, imp, geom), geom)


def n_sigma(rng):
    """n . sigma for a seeded random unit vector n: Hermitian, with the eigenvalues +-1 to rounding."""
    n = rng.standard_normal(3)
    return sum(c * PAULI[name] for c, name in zip(n / np.linalg.norm(n), ("sx", "sy", "sz")))


def qutrit_level_two_context(rng):
    """A five-site qutrit chain whose random bonds move only levels 0 and 1, plus random diagonals.

    The sites at level 2 are conserved, so the nonzero pattern splits into
    one block per set of such sites.
    """
    geom = ChainGeometry(2, 3)
    moving = np.kron([1, 1, 0], [1, 1, 0]) != 0  # both sites below level 2
    bonds = {}
    for x in range(-2, 2):
        bond = random_hermitian(rng, 9, norm=1.0) * np.outer(moving, moving)
        bonds[x] = bond + np.diag(rng.standard_normal(9))
    phi = NNInteraction(geom, bonds=bonds)
    return EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)


# swaps levels 0 and 1: the eigenvalue 1 spans both components of its pattern
QUTRIT_SWAP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


class TestSplitCommutatorNorms:
    def test_two_sides(self, rng):
        # a diagonal two-valued matrix gets its values and identity columns
        # exactly, in ascending order
        for m in (PAULI["sz"], np.diag([1.0, 1.0, -1.0]), np.diag([0.5, 2.0, 0.5, 2.0])):
            values, w_1, w_2 = two_sides(m)
            diagonal = np.diagonal(m).real
            assert values.tolist() == sorted(set(diagonal.tolist()))
            eye = np.eye(len(m))
            assert w_1.tolist() == eye[:, diagonal == values[0]].tolist()
            assert w_2.tolist() == eye[:, diagonal == values[1]].tolist()
        # any other Hermitian matrix with two eigenvalues, sz + 1e-300 sx
        # (two-valued to rounding) included: orthonormal sides that
        # rebuild it, each column on one component of its pattern
        for m in (PAULI["sx"], PAULI["sy"], n_sigma(rng), QUTRIT_SWAP, PAULI["sz"] + 1e-300 * PAULI["sx"]):
            values, w_1, w_2 = two_sides(m)
            w = np.hstack([w_1, w_2])
            assert np.allclose(w.conj().T @ w, np.eye(len(m)), rtol=0, atol=1e-15), m
            rebuilt = values[0] * w_1 @ w_1.conj().T + values[1] * w_2 @ w_2.conj().T
            assert np.allclose(rebuilt, m, rtol=0, atol=1e-15), m
        values, w_1, w_2 = two_sides(QUTRIT_SWAP)
        assert values.tolist() == [-1.0, 1.0] and w_2.shape == (3, 2)
        assert sorted(np.flatnonzero(column).tolist() for column in w_2.T) == [[0, 1], [2]]
        for m in (np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 2.0 + 1.0j]), np.eye(2)):
            assert two_sides(m) is None, m

    @pytest.mark.parametrize(
        "case",
        ["identities-L3 seed 5", "identities-L3 seed 6", "Heisenberg t=0.5", "Heisenberg t=0", "qutrit", "zero bonds"],
    )
    def test_matches_gram_route(self, rng, case):
        # || [tau_t(A), U] || from the split route agrees with the Gram route
        # on the evolved matrix, per unitary and for the maximum, within
        # 1e-12 of the maximum: on the benchmark's random-bond inputs (513
        # unitaries on keep = [-3, -2]), on the Heisenberg chain (8 S^z
        # blocks) with keeps that have complements on both sides, at t = 0,
        # on a qutrit chain where A's two values have multiplicities 81 and
        # 162, and on a diagonal Hamiltonian whose blocks all have size 1
        t = 0.5
        if case.startswith("identities-L3"):
            ctx = identities_l3_context(int(case[-1]))
            a, keep = DenseOperator.single_site(-3, PAULI["sz"]), SiteSupport(-3, -2)
        elif case.startswith("Heisenberg"):
            geom = ChainGeometry(3, 2)
            phi = NNInteraction(geom, uniform_bond=heisenberg_bond(1.0))
            ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
            assert len(ctx.spectral_blocks) == 8
            t = float(case.split("=")[1])
            # at t = 0, A outside keep, so U acts on A's site and the commutators do not vanish
            a, keep = DenseOperator.single_site(-1, PAULI["sz"]), SiteSupport(-2, 0) if t else SiteSupport(0, 2)
        elif case == "qutrit":
            geom, phi = random_chain(rng, local_dim=3)
            ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
            a, keep = DenseOperator.single_site(0, np.diag([1.0, 1.0, -1.0])), SiteSupport(-1, 1)
        else:
            geom = ChainGeometry(3, 2)
            imp = ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), 5.0)
            ctx = EvolutionContext(build_perturbed_hamiltonian(NNInteraction(geom), imp, geom), geom)
            assert all(len(idx) == 1 for idx in ctx.spectral_blocks)
            # A outside keep, so U acts on A's site and the commutators do not vanish
            a, keep = DenseOperator.single_site(-3, PAULI["sz"]), SiteSupport(-2, -1)
        unitaries = epsilon_unitaries(keep, ctx.geom)
        evolved = ctx.evolve(a, t).matrix
        split = split_commutator_norms(ctx, a, t, unitaries, two_sides(a.matrix))
        gram = commutator_norms(evolved, unitaries)
        top = float(gram.max())
        assert top > 1e-3
        assert split.shape == (len(unitaries),)
        assert np.max(np.abs(split - gram)) <= 1e-12 * top
        assert abs(split.max() - top) <= 1e-12 * top

    def test_chunks_fit_the_gram_budget(self, rng, monkeypatch):
        # a budget of three gathered stacks gives chunks of three unitaries,
        # and the norms do not depend on the chunking
        ctx = identities_l3_context(5)
        a = DenseOperator.single_site(-3, PAULI["sz"])
        unitaries = epsilon_unitaries(SiteSupport(-3, -1), ctx.geom)
        sides = two_sides(a.matrix)
        want = split_commutator_norms(ctx, a, 0.5, unitaries, sides)
        monkeypatch.setattr(operators, "_GRAM_CHUNK_BYTES", 3 * 16 * 128 * 64)
        stacks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: stacks.append(m.shape) or eigvalsh(m))
        got = split_commutator_norms(ctx, a, 0.5, unitaries, sides)
        assert {shape[0] for shape in stacks[:-1]} == {3} and stacks[-1][0] <= 3
        assert all(shape[1:] == (64, 64) for shape in stacks)
        assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_a_without_two_sides_takes_the_gram_kernel(self, rng):
        # diag(1, 0, -1) has three eigenvalues: the projection bound is the
        # Gram kernel's maximum on the evolved matrix, bit for bit, and
        # nothing raises
        geom, phi = random_chain(rng, local_dim=3)
        ctx = EvolutionContext(build_perturbed_hamiltonian(phi, ImpuritySpec(), geom), geom)
        a = DenseOperator.single_site(0, np.diag([1.0, 0.0, -1.0]))
        unitaries = epsilon_unitaries(SiteSupport(-1, 1), ctx.geom)
        got = projection_commutator_norm(ctx, a, 0.5, unitaries)
        assert got == np.max(commutator_norms(ctx.evolve(a, 0.5).matrix, unitaries))
        assert got > 1e-3

    @pytest.mark.parametrize("case", ["sx", "sy", "n.sigma", "qutrit swap"])
    def test_non_diagonal_operators_take_the_two_sided_route(self, rng, monkeypatch, case):
        # two-valued operators that are not diagonal take the two-sided
        # route in the projection check, where it agrees with the Gram
        # kernel per unitary within 1e-12 of the maximum, and in the table,
        # where it agrees with dense evolution to the dense-ED floor.  The
        # qutrit chain conserves the sites at level 2, so B's sides split
        # over the table's groups and some groups hold only one side.
        times = TestCommutatorNormTable.TIMES
        if case == "qutrit swap":
            ctx = qutrit_level_two_context(rng)
            a, keep = DenseOperator.single_site(0, QUTRIT_SWAP), SiteSupport(-1, 1)
            table_a, b = DenseOperator.single_site(-2, np.diag([1.0, 0.0, -1.0])), DenseOperator.single_site(2, QUTRIT_SWAP)
            assert len(ctx.spectral_blocks) > 1
        else:
            ctx = identities_l3_context(5)
            m = n_sigma(rng) if case == "n.sigma" else PAULI[case]
            a, keep = DenseOperator.single_site(-3, m), SiteSupport(-3, -1)
            table_a, b = DenseOperator.single_site(-1, PAULI["sz"]), DenseOperator.single_site(3, m)
        geom, h = ctx.geom, ctx.hamiltonian
        routes = []
        for name in ("split_commutator_norms", "_split_norms", "commutator_norms", "_block_norms"):
            spy = lambda *args, name=name, route=getattr(dynamics, name): routes.append(name) or route(*args)
            monkeypatch.setattr(dynamics, name, spy)

        unitaries = epsilon_unitaries(keep, geom)
        got = projection_commutator_norm(ctx, a, 0.5, unitaries)
        assert routes == ["split_commutator_norms"]
        split = split_commutator_norms(ctx, a, 0.5, unitaries, two_sides(a.matrix))
        gram = commutator_norms(ctx.evolve(a, 0.5).matrix, unitaries)
        top = float(gram.max())
        assert top > 1e-3 and got == split.max()
        assert np.max(np.abs(split - gram)) <= 1e-12 * top

        routes.clear()
        norms, _ = commutator_norm_table(h, [np.zeros(geom.total_dim)], table_a, b, geom, times)
        assert set(routes) == {"_split_norms"}
        b_full = embed_local(b, geom.full_support, geom)
        want = np.array([operator_norm(commutator(ctx.evolve(table_a, t), b_full)) for t in times])
        floor = ed_floor(operator_norm(h), geom.total_dim, times, operator_norm(table_a) * operator_norm(b))
        assert np.all(np.abs(norms[0] - want) <= floor), (norms[0], want)
        assert norms[0, -1] > 1e-3


def decoupling_instance(rng, coupling, half_length=3, bond_norm=1.0):
    geom, phi = random_chain(rng, half_length=half_length, norm=bond_norm)
    imp = ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), coupling)
    return geom, phi, imp, DecoupledDynamics(phi, imp, 0, geom)


class TestDecoupledDynamics:
    def test_blocking_is_exact(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 5.0)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        assert dyn.blocking_residual(a, b, (0.5, 2.0)) <= 1e-9

    def test_full_dynamics_does_not_block(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 5.0)
        a = DenseOperator.single_site(-1, random_hermitian(rng, 2, norm=1.0))
        b = DenseOperator.single_site(1, random_hermitian(rng, 2, norm=1.0))
        zero = np.zeros(geom.total_dim)
        assert commutator_norm_table(dyn.full.hamiltonian, [zero], a, b, geom, (2.0,))[0][0, 0] > 1e-3

    def test_phase_conjugation_identity(self, rng):
        # removing the decoupling-site coupling only rotates each transition
        # block by a phase set by the eigenvalue difference
        geom, phi, imp, dyn = decoupling_instance(rng, 3.7)
        for (j, k), block in dyn.blocks.items():
            for s in (0.0, 0.4, 1.3):
                with_coupling = dyn.decoupled.evolve(block, s)
                bare = dyn.reduced.evolve(block, s)
                assert operator_norm(with_coupling - dyn.phase(j, k, s) * bare) <= 1e-10

    def test_phase_values(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 2.0)
        # eigenvalues of diag(1, -1) sorted ascending are (-1, 1): gap 2, coupling 2
        assert abs(dyn.phase(0, 1, 0.5) - np.exp(1j * 0.5 * 2.0 * (-2.0))) <= 1e-15
        assert dyn.phase(0, 1, 0.25) == np.conj(dyn.phase(1, 0, 0.25))
        assert dyn.phase(0, 1, 0.0) == 1.0

    def test_interpolant_vanishes_at_endpoint(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 5.0)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        t = 1.0
        for (j, k) in dyn.blocks:
            assert operator_norm(dyn.interpolant(a, b, j, k, t, t)) <= 1e-9

    def test_interpolant_at_zero_bounds_block_contribution(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 1.0)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        val = operator_norm(dyn.interpolant(a, b, 0, 1, 0.0, 0.8))
        assert np.isfinite(val) and val >= 0.0

    @pytest.mark.parametrize("coupling", [1.0, 5.0])
    def test_derivative_matches_finite_difference(self, rng, coupling):
        geom, phi, imp, dyn = decoupling_instance(rng, coupling)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        s, t = 0.3, 0.75
        for (j, k) in dyn.blocks:
            exact = dyn.interpolant_derivative(a, b, j, k, s, t)
            fd = dyn.interpolant_derivative_fd(a, b, j, k, s, t)
            scale = max(operator_norm(exact), 1e-300)
            assert operator_norm(exact - fd) / scale <= 1e-6

    def test_derivative_richardson_at_strong_coupling(self, rng):
        # at coupling 50 the plain second-order difference hits its truncation
        # floor above 1e-6; one Richardson extrapolation restores agreement
        geom, phi, imp, dyn = decoupling_instance(rng, 50.0)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        s, t = 0.2, 0.5
        j, k = 0, 1
        exact = dyn.interpolant_derivative(a, b, j, k, s, t)
        h = 1e-4
        coarse = dyn.interpolant_derivative_fd(a, b, j, k, s, t, step=h)
        fine = dyn.interpolant_derivative_fd(a, b, j, k, s, t, step=h / 2)
        richardson = (4.0 * fine.matrix - coarse.matrix) / 3.0
        scale = max(operator_norm(exact), 1e-300)
        assert operator_norm(exact.matrix - richardson) / scale <= 1e-5

    def test_finite_difference_equals_plain_quotient(self, rng):
        # the cancellation-free evaluation is the same central difference as
        # (f(s+h) - f(s-h)) / 2h; at a large step the plain quotient's
        # cancellation noise is negligible, so the two must agree
        geom, phi, imp, dyn = decoupling_instance(rng, 5.0)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        s, t, h = 0.3, 0.75, 1e-2
        for (j, k) in dyn.blocks:
            fd = dyn.interpolant_derivative_fd(a, b, j, k, s, t, step=h)
            hi = dyn.interpolant(a, b, j, k, s + h, t).matrix
            lo = dyn.interpolant(a, b, j, k, s - h, t).matrix
            assert operator_norm(fd.matrix - (hi - lo) / (2.0 * h)) <= 1e-9 * operator_norm(fd)

    def test_fd_step_scales_with_spectral_spread(self, rng):
        steps = {}
        for coupling in (1.0, 50.0):
            geom, phi, imp, dyn = decoupling_instance(rng, coupling)
            spread = max(np.ptp(ctx.eigenvalues) for ctx in (dyn.full, dyn.decoupled, dyn.reduced))
            assert dyn.fd_step() == pytest.approx(FD_PHASE_STEP / spread, rel=1e-12)
            steps[coupling] = dyn.fd_step()
        # the on-site term dominates the spread at strong coupling
        assert steps[50.0] < steps[1.0] / 10.0

    def test_integral_reconstructs_interpolant(self, rng):
        # f(0) = f(t) - integral of f'(s) ds; checks the derivative globally
        geom, phi, imp, dyn = decoupling_instance(rng, 2.0)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        t = 0.6
        j, k = 0, 1
        from scipy.integrate import quad

        def deriv_entry(s, r, c, part):
            m = dyn.interpolant_derivative(a, b, j, k, s, t).matrix[r, c]
            return m.real if part == "re" else m.imag

        f0 = dyn.interpolant(a, b, j, k, 0.0, t).matrix
        # spot-check a handful of entries rather than integrating every one
        idx = [(0, 0), (3, 17), (40, 40), (100, 5)]
        for r, c in idx:
            re = quad(deriv_entry, 0.0, t, args=(r, c, "re"), limit=60)[0]
            im = quad(deriv_entry, 0.0, t, args=(r, c, "im"), limit=60)[0]
            assert abs(-(re + 1j * im) - f0[r, c]) <= 1e-8

    def test_interpolant_support_checks(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 1.0)
        good_a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        good_b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        too_close = DenseOperator.single_site(-1, random_hermitian(rng, 2))
        with pytest.raises(SupportError, match="strictly left"):
            dyn.interpolant(too_close, good_b, 0, 1, 0.1, 0.5)
        wrong_side = DenseOperator.single_site(0, random_hermitian(rng, 2))
        with pytest.raises(SupportError, match="strictly right"):
            dyn.interpolant(good_a, wrong_side, 0, 1, 0.1, 0.5)

    def test_derivative_needs_spaced_impurities(self, rng):
        geom, phi = random_chain(rng, half_length=3)
        imp = ImpuritySpec.uniform([0, 1], np.diag([1.0, -1.0]), 2.0)
        dyn = DecoupledDynamics(phi, imp, 0, geom)
        a = DenseOperator.single_site(-3, random_hermitian(rng, 2))
        b = DenseOperator.single_site(3, random_hermitian(rng, 2))
        # the interpolant itself is still defined...
        dyn.interpolant(a, b, 0, 1, 0.1, 0.5)
        # ...but the analytic derivative needs spacing >= 2
        with pytest.raises(ValueError, match="spacing"):
            dyn.interpolant_derivative(a, b, 0, 1, 0.1, 0.5)

    def test_block_pairs_complete(self, rng):
        geom, phi, imp, dyn = decoupling_instance(rng, 1.0)
        assert list(dyn.blocks) == [(0, 1), (1, 0)]
        qutrit_geom, qutrit_phi = random_chain(rng, half_length=2, local_dim=3)
        qutrit_imp = ImpuritySpec.uniform([0], np.diag([0.0, 1.0, 2.5]), 1.0)
        qutrit_dyn = DecoupledDynamics(qutrit_phi, qutrit_imp, 0, qutrit_geom)
        assert len(qutrit_dyn.blocks) == 6
