import numpy as np
import pytest

from lrchain import operators
from lrchain.geometry import ChainGeometry, SiteSupport, SupportError
from lrchain.operators import (
    PAULI,
    DenseOperator,
    HermiticityError,
    clock_phases,
    commutator,
    commutator_norms,
    conditional_expectation,
    embed_local,
    epsilon_unitaries,
    hermitian_spectral,
    local_commutator_epsilon,
    operator_norm,
)
from util import (
    assert_localized,
    conditional_expectation_oracle,
    embed_oracle,
    norm_oracle,
    random_complex,
    random_hermitian,
    weyl_basis,
    weyl_commutator_norms_oracle,
    weyl_oracle,
)


class TestPauli:
    def test_algebra(self):
        sx, sy, sz = PAULI["sx"], PAULI["sy"], PAULI["sz"]
        eye = np.eye(2)
        for m in (sx, sy, sz):
            assert np.allclose(m @ m, eye)
            assert np.allclose(m, m.conj().T)
            assert abs(np.trace(m)) < 1e-15
        assert np.allclose(sx @ sy, 1j * sz)
        assert np.allclose(sy @ sz, 1j * sx)
        assert np.allclose(sz @ sx, 1j * sy)

    def test_write_protected(self):
        with pytest.raises(ValueError):
            PAULI["sx"][0, 0] = 5.0


class TestDenseOperator:
    def test_constructors(self):
        a = DenseOperator.single_site(2, PAULI["sz"])
        assert a.support == SiteSupport(2, 2)
        assert a.dim == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            DenseOperator(SiteSupport(0, 0), np.zeros((2, 3)))

    def test_arithmetic(self, rng):
        s = SiteSupport(0, 1)
        a = DenseOperator(s, random_complex(rng, 4))
        b = DenseOperator(s, random_complex(rng, 4))
        assert np.allclose((a + b).matrix, a.matrix + b.matrix)
        assert np.allclose((a - b).matrix, a.matrix - b.matrix)
        assert np.allclose((2.5j * a).matrix, 2.5j * a.matrix)

    def test_arithmetic_requires_same_support(self, rng):
        a = DenseOperator(SiteSupport(0, 1), random_complex(rng, 4))
        b = DenseOperator(SiteSupport(1, 2), random_complex(rng, 4))
        for op in (lambda: a + b, lambda: a - b):
            with pytest.raises(SupportError):
                op()

    def test_validate_dim(self):
        geom = ChainGeometry(2, 2)
        good = DenseOperator(SiteSupport(0, 1), np.eye(4))
        good.validate_dim(geom)
        bad = DenseOperator(SiteSupport(0, 1), np.eye(8))
        with pytest.raises(ValueError):
            bad.validate_dim(geom)


class TestKronAndEmbed:
    def test_embed_against_index_oracle(self, rng):
        geom = ChainGeometry(2, 2)
        m = random_complex(rng, 4)
        a = DenseOperator(SiteSupport(-1, 0), m)
        big = embed_local(a, SiteSupport(-2, 2), geom)
        assert big.support == SiteSupport(-2, 2)
        assert np.allclose(big.matrix, embed_oracle(m, 1, 2, 2))

    def test_embed_qutrit(self, rng):
        geom = ChainGeometry(1, 3)
        m = random_complex(rng, 3)
        big = embed_local(DenseOperator.single_site(0, m), geom.full_support, geom)
        assert np.allclose(big.matrix, embed_oracle(m, 1, 1, 3))

    def test_embed_preserves_norm(self, rng):
        geom = ChainGeometry(2, 2)
        m = random_complex(rng, 4)
        a = DenseOperator(SiteSupport(0, 1), m)
        big = embed_local(a, geom.full_support, geom)
        assert abs(operator_norm(big) - operator_norm(a)) <= 1e-12

    @pytest.mark.parametrize("local_dim", [2, 3])
    def test_embed_equals_kron_with_identities(self, rng, local_dim):
        # every support inside the chain and every target holding it:
        # the index-arithmetic placement against its definition I (x) a (x) I
        for half_length in (1, 2):
            geom = ChainGeometry(half_length, local_dim)
            sites = range(-half_length, half_length + 1)
            intervals = [SiteSupport(lo, hi) for lo in sites for hi in range(lo, half_length + 1)]
            for support in intervals:
                a = DenseOperator(support, random_complex(rng, geom.dim_of(support)))
                for target in (t for t in intervals if t.contains(support)):
                    left = np.eye(local_dim ** (support.lo - target.lo))
                    right = np.eye(local_dim ** (target.hi - support.hi))
                    got = embed_local(a, target, geom)
                    assert got.support == target
                    assert np.array_equal(got.matrix, np.kron(np.kron(left, a.matrix), right)), (support, target)
                    if target == support:
                        assert got.matrix is a.matrix

    def test_embed_rejects_noncontaining_target(self, rng):
        geom = ChainGeometry(2, 2)
        a = DenseOperator(SiteSupport(0, 1), random_complex(rng, 4))
        with pytest.raises(SupportError):
            embed_local(a, SiteSupport(1, 2), geom)


def gram_route(m):
    """sqrt(lambda_max(G) / 2) for G = M M^dag + (M M^dag)^dag, formed as `operator_norm` forms it."""
    gram = m @ m.conj().swapaxes(-1, -2)
    gram += gram.conj().swapaxes(-1, -2)
    return np.sqrt(0.5 * np.max(np.abs(np.linalg.eigvalsh(gram)), axis=-1))


class TestOperatorNorm:
    def test_against_eigvalsh_oracle(self, rng):
        for dim in (2, 5, 13):
            general = random_complex(rng, dim)
            h = random_hermitian(rng, dim)
            near = h.copy()
            near[0, -1] = np.nextafter(near[0, -1].real, np.inf) + 1j * near[0, -1].imag
            for m in (general, h, 1j * h, near):
                assert abs(operator_norm(m) - norm_oracle(m)) <= 1e-10 * max(1.0, norm_oracle(m))
            # exactly Hermitian input takes eigvalsh; anti-Hermitian input and
            # input Hermitian only to rounding take the Gram route
            assert operator_norm(h) == float(np.max(np.abs(np.linalg.eigvalsh(h))))
            assert operator_norm(1j * h) == float(gram_route(1j * h))
            assert operator_norm(near) == float(gram_route(near))

    def test_known_values(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert abs(operator_norm(np.eye(7)) - 1.0) <= 1e-14
        assert abs(operator_norm(PAULI["sy"]) - 1.0) <= 1e-14
        assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) <= 1e-14

    def test_submultiplicative(self, rng):
        for _ in range(5):
            a, b = random_complex(rng, 6), random_complex(rng, 6)
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10

    def test_stack_equals_single_calls(self, rng):
        # the route is chosen once per call: a stack of exactly Hermitian
        # members takes eigvalsh and gives each member the bits it would get
        # alone; a stack with any other member takes the Gram route for all
        # of them
        dim = 7
        h = random_hermitian(rng, dim)
        near = h.copy()
        near[0, -1] = np.nextafter(near[0, -1].real, np.inf) + 1j * near[0, -1].imag
        hermitian = [h, 2 * h, random_hermitian(rng, dim), np.zeros((dim, dim))]
        got = operator_norm(np.array(hermitian))
        assert got.shape == (len(hermitian),)
        assert [float(x) for x in got] == [operator_norm(m) for m in hermitian]
        members = [h, 1j * h, random_complex(rng, dim), near, random_hermitian(rng, dim), np.zeros((dim, dim))]
        stack = np.array(members)
        got = operator_norm(stack)
        assert got.shape == (len(members),)
        assert np.array_equal(got, gram_route(stack))
        for norm, m in zip(got, members):
            assert abs(norm - operator_norm(m)) <= 1e-12 * operator_norm(m)
        grid = operator_norm(stack.reshape(2, 3, dim, dim))
        assert grid.shape == (2, 3)
        assert np.array_equal(grid.ravel(), got)
        # a stack of members that each take the Gram route alone gets their bits
        for same in ([1j * h, -1j * h], [members[2], near]):
            assert [float(x) for x in operator_norm(np.array(same))] == [operator_norm(m) for m in same]
        assert operator_norm(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="matrix"):
            operator_norm(np.zeros(4))

    def test_rectangular_input(self, rng):
        # a p x q matrix, p < q or p > q, and a stack of them take the Gram
        # route; each member of the stack gets the bits it gets alone
        for shape in ((3, 5), (5, 3)):
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = np.linalg.norm(m, 2)
            assert abs(operator_norm(m) - want) <= 1e-12 * want
        stack = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
        got = operator_norm(stack)
        assert got.shape == (4,)
        want = np.linalg.norm(stack, 2, axis=(-2, -1))
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert [float(x) for x in got] == [operator_norm(m) for m in stack]
        assert operator_norm(np.zeros((3, 0))) == 0.0
        assert operator_norm(np.zeros((2, 0, 4))).tolist() == [0.0, 0.0]

    def test_range_of_the_gram_route(self, rng):
        # the square of the norm stays a normal double from 1e-150 to 1e150
        m = random_complex(rng, 6)
        for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            want = np.linalg.norm(scale * m, 2)
            assert abs(operator_norm(scale * m) - want) <= 1e-12 * want, scale


class TestCommutator:
    def test_pauli_commutator(self):
        a = DenseOperator.single_site(0, PAULI["sx"])
        b = DenseOperator.single_site(0, PAULI["sy"])
        c = commutator(a, b)
        assert np.allclose(c.matrix, 2j * PAULI["sz"])

    def test_requires_common_support(self):
        a = DenseOperator.single_site(0, PAULI["sx"])
        b = DenseOperator.single_site(1, PAULI["sy"])
        with pytest.raises(SupportError):
            commutator(a, b)

    def test_disjoint_supports_commute_exactly(self, rng):
        geom = ChainGeometry(3, 2)
        a = DenseOperator(SiteSupport(-3, -1), random_complex(rng, 8))
        b = DenseOperator(SiteSupport(0, 2), random_complex(rng, 8))
        full = geom.full_support
        assert operator_norm(commutator(embed_local(a, full, geom), embed_local(b, full, geom))) == 0.0

    def test_commutator_norm_bound(self, rng):
        geom = ChainGeometry(2, 2)
        a = DenseOperator(SiteSupport(-1, 0), random_complex(rng, 4))
        b = DenseOperator(SiteSupport(0, 1), random_complex(rng, 4))
        full = geom.full_support
        val = operator_norm(commutator(embed_local(a, full, geom), embed_local(b, full, geom)))
        assert val <= 2 * operator_norm(a) * operator_norm(b) + 1e-10
        assert val > 0.1  # overlapping random operators essentially never commute


class TestHermitianSpectral:
    def test_diagonal_sorting(self):
        evals, evecs = hermitian_spectral(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(evals, [1.0, 2.0, 3.0])
        assert np.allclose(evecs @ evecs.conj().T, np.eye(3))

    def test_pauli_spectrum(self):
        evals, _ = hermitian_spectral(PAULI["sx"])
        assert np.allclose(evals, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        h = random_hermitian(rng, 16)
        evals, evecs = hermitian_spectral(h)
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self, rng):
        m = random_complex(rng, 4)
        with pytest.raises(HermiticityError):
            hermitian_spectral(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_spectral(np.zeros((2, 3, 4)))

    def test_symmetrizes_tiny_defects(self, rng):
        h = random_hermitian(rng, 4)
        defect = np.zeros((4, 4), dtype=complex)
        defect[0, 1] = 1e-13
        evals, evecs = hermitian_spectral(h + defect)  # within 1e-12 tolerance
        assert np.all(np.isreal(evals))
        big_defect = np.zeros((4, 4), dtype=complex)
        big_defect[0, 1] = 1e-10
        with pytest.raises(HermiticityError):
            hermitian_spectral(h + big_defect)

    def test_exactly_hermitian_input_skips_symmetrization(self, rng):
        # 0.5 (M + M^dag) == M bit for bit when M equals its adjoint, so
        # passing M as it is moves no output; a 1e-13 asymmetry in the lower
        # triangle, which eigh reads, is still averaged away
        h = random_hermitian(rng, 9)
        evals, evecs = hermitian_spectral(h)
        sym_evals, sym_evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        assert np.array_equal(evals, sym_evals) and np.array_equal(evecs, sym_evecs)
        assert np.array_equal(evals, np.linalg.eigh(h)[0])
        skewed = h.copy()
        skewed[5, 2] += 1e-13
        evals, evecs = hermitian_spectral(skewed)
        sym_evals, sym_evecs = np.linalg.eigh(0.5 * (skewed + skewed.conj().T))
        assert np.array_equal(evals, sym_evals) and np.array_equal(evecs, sym_evecs)
        assert not np.array_equal(evals, np.linalg.eigh(skewed)[0])

    def test_stack_equals_single_calls(self, rng):
        # exactly Hermitian and slightly skewed members side by side
        members = [random_hermitian(rng, 6) for _ in range(4)]
        members[2] = members[2].copy()
        members[2][4, 1] += 1e-13
        evals, evecs = hermitian_spectral(np.array(members))
        assert evals.shape == (4, 6) and evecs.shape == (4, 6, 6)
        for i, m in enumerate(members):
            want_evals, want_evecs = hermitian_spectral(m)
            assert np.array_equal(evals[i], want_evals) and np.array_equal(evecs[i], want_evecs), i
        grid_evals, grid_evecs = hermitian_spectral(np.array(members).reshape(2, 2, 6, 6))
        assert np.array_equal(grid_evals.reshape(4, 6), evals)
        assert np.array_equal(grid_evecs.reshape(4, 6, 6), evecs)

    def test_zero_imaginary_part_takes_real_eigh(self, rng):
        # a complex-typed matrix with no imaginary part is real symmetric: it
        # gets real eigenvectors, the bits of the real eigh of its real part
        m = rng.standard_normal((7, 7))
        m = (m + m.T).astype(complex)
        evals, evecs = hermitian_spectral(m)
        want_evals, want_evecs = np.linalg.eigh(m.real)
        assert evecs.dtype == np.float64
        assert np.array_equal(evals, want_evals) and np.array_equal(evecs, want_evecs)
        assert hermitian_spectral(m.real)[1].dtype == np.float64

    def test_mixed_stack_members_take_their_own_route(self, rng):
        # real and complex members side by side: each gets the bits it gets
        # alone, a real member's real eigenvectors held in the complex stack
        real = rng.standard_normal((6, 6))
        members = [random_hermitian(rng, 6), (real + real.T).astype(complex), random_hermitian(rng, 6)]
        evals, evecs = hermitian_spectral(np.array(members))
        assert evecs.dtype == np.complex128
        for i, m in enumerate(members):
            want_evals, want_evecs = hermitian_spectral(m)
            assert np.array_equal(evals[i], want_evals) and np.array_equal(evecs[i], want_evecs), i
        assert hermitian_spectral(members[1])[1].dtype == np.float64

    def test_stack_rejects_like_single_call(self, rng):
        # the first member over tolerance raises with its own text
        members = [random_hermitian(rng, 5) for _ in range(4)]
        for i, size in ((1, 3e-10), (3, 1e-6)):
            members[i] = members[i].copy()
            members[i][0, 2] += size
        with pytest.raises(HermiticityError) as want:
            hermitian_spectral(members[1])
        with pytest.raises(HermiticityError) as got:
            hermitian_spectral(np.array(members))
        assert str(got.value) == str(want.value)


class TestConditionalExpectation:
    def geom(self):
        return ChainGeometry(2, 2)

    def full(self, rng, geom):
        return DenseOperator(geom.full_support, random_complex(rng, geom.total_dim))

    def test_against_einsum_oracle(self, rng):
        geom = self.geom()
        a = self.full(rng, geom)
        for keep in (SiteSupport(-2, 0), SiteSupport(0, 2), SiteSupport(-1, 1), SiteSupport(0, 0)):
            got = conditional_expectation(a, keep, geom)
            keep_ids = {s + geom.half_length for s in range(keep.lo, keep.hi + 1)}
            want = conditional_expectation_oracle(a.matrix, geom.n_sites, geom.local_dim, keep_ids)
            assert np.allclose(got.matrix, want)

    def test_qutrit_against_oracle(self, rng):
        geom = ChainGeometry(1, 3)
        a = DenseOperator(geom.full_support, random_complex(rng, 27))
        got = conditional_expectation(a, SiteSupport(0, 1), geom)
        want = conditional_expectation_oracle(a.matrix, 3, 3, {1, 2})
        assert np.allclose(got.matrix, want)

    def test_unital(self):
        geom = self.geom()
        one = DenseOperator(geom.full_support, np.eye(geom.total_dim))
        out = conditional_expectation(one, SiteSupport(-1, 0), geom)
        assert np.allclose(out.matrix, np.eye(geom.total_dim))

    def test_full_chain_is_identity_map(self, rng):
        geom = self.geom()
        a = self.full(rng, geom)
        out = conditional_expectation(a, geom.full_support, geom)
        assert np.allclose(out.matrix, a.matrix)

    def test_spec_zero_example(self):
        # sz (x) sz (x) 1 averaged onto site -1 alone vanishes: tr(sz) = 0
        geom = ChainGeometry(1, 2)
        full = DenseOperator(geom.full_support, np.kron(np.kron(PAULI["sz"], PAULI["sz"]), np.eye(2)))
        out = conditional_expectation(full, SiteSupport(-1, -1), geom)
        assert operator_norm(out) <= 1e-14

    def test_idempotent_and_nonexpansive(self, rng):
        geom = self.geom()
        a = self.full(rng, geom)
        keep = SiteSupport(-1, 1)
        once = conditional_expectation(a, keep, geom)
        twice = conditional_expectation(once, keep, geom)
        assert operator_norm(twice - once) <= 1e-10
        assert operator_norm(once) <= operator_norm(a) + 1e-12

    def test_bimodule_property(self, rng):
        # E(P a R) = P E(a) R for P, R in the kept algebra
        geom = self.geom()
        a = self.full(rng, geom)
        keep = SiteSupport(-1, 0)
        p = embed_local(DenseOperator(keep, random_complex(rng, 4)), geom.full_support, geom)
        r = embed_local(DenseOperator(keep, random_complex(rng, 4)), geom.full_support, geom)
        lhs = conditional_expectation(DenseOperator(geom.full_support, p.matrix @ a.matrix @ r.matrix), keep, geom)
        rhs = p.matrix @ conditional_expectation(a, keep, geom).matrix @ r.matrix
        assert operator_norm(lhs.matrix - rhs) <= 1e-10

    def test_fixes_operators_already_local(self, rng):
        geom = self.geom()
        keep = SiteSupport(0, 1)
        local = embed_local(DenseOperator(keep, random_complex(rng, 4)), geom.full_support, geom)
        out = conditional_expectation(local, keep, geom)
        assert operator_norm(out - local) <= 1e-12

    def test_requires_full_chain_input(self, rng):
        geom = self.geom()
        a = DenseOperator(SiteSupport(0, 1), random_complex(rng, 4))
        with pytest.raises(SupportError):
            conditional_expectation(a, SiteSupport(0, 0), geom)

    def test_rejects_keep_outside_chain(self, rng):
        geom = self.geom()
        a = self.full(rng, geom)
        with pytest.raises(SupportError):
            conditional_expectation(a, SiteSupport(-3, 0), geom)


class TestWeylBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unitary_and_complete(self, dim):
        basis = weyl_basis(dim)
        assert len(basis) == dim * dim
        for w in basis:
            assert np.allclose(w @ w.conj().T, np.eye(dim))
        # Hilbert-Schmidt orthogonality makes them a basis of the matrix algebra
        gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
        assert np.allclose(gram, dim * np.eye(dim * dim))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_averaging_projects_to_trace(self, dim):
        # (1/dim^2) sum_W W A W^dag = tr(A)/dim * I: the property that makes
        # commutators with this set control the distance to the traced-out part
        rng = np.random.default_rng(5)
        a = random_complex(rng, dim)
        avg = sum(w @ a @ w.conj().T for w in weyl_basis(dim)) / dim**2
        assert np.allclose(avg, np.trace(a) / dim * np.eye(dim))


    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 32])
    def test_dense_matches_monomial_form(self, dim):
        # X^p Z^q by matrix powers is monomial: row r holds its one nonzero
        # entry in column (r - p) mod dim, the `clock_phases` entry of q
        # there; `weyl_basis`, built from the labels, lists the same
        # matrices, p outer and q inner
        basis = weyl_basis(dim)
        oracle = weyl_oracle(dim)
        assert len(basis) == len(oracle) == dim * dim
        rows = np.arange(dim)
        for k, w in enumerate(oracle):
            p, q = divmod(k, dim)
            cols = (rows - p) % dim
            assert np.count_nonzero(w) == dim and np.count_nonzero(basis[k]) == dim
            assert np.max(np.abs(w[rows, cols] - clock_phases(q, dim)[cols])) <= 1e-12
            assert np.max(np.abs(basis[k] - w)) <= 1e-12


# (geometry, keep): complement on the right only, on the left only, on both
# sides, and a qutrit chain with the complement on both sides
EPSILON_CASES = [
    (ChainGeometry(2, 2), SiteSupport(-2, 0)),
    (ChainGeometry(2, 2), SiteSupport(0, 2)),
    (ChainGeometry(3, 2), SiteSupport(-1, 1)),
    (ChainGeometry(1, 3), SiteSupport(0, 0)),
]


def factor_dims(geom, keep):
    d = geom.local_dim
    return (
        d ** (keep.lo - geom.full_support.lo),
        d ** keep.n_sites,
        d ** (geom.full_support.hi - keep.hi),
    )


class TestLocalCommutatorEpsilon:
    def test_zero_for_operators_inside_keep(self, rng):
        geom = ChainGeometry(2, 2)
        keep = SiteSupport(-1, 0)
        a = embed_local(DenseOperator(keep, random_complex(rng, 4)), geom.full_support, geom)
        assert local_commutator_epsilon(a, keep, geom) <= 1e-12

    def test_pauli_outside_keep_gives_two(self):
        geom = ChainGeometry(2, 2)
        a = embed_local(DenseOperator.single_site(2, PAULI["sz"]), geom.full_support, geom)
        eps = local_commutator_epsilon(a, SiteSupport(-2, 0), geom)
        assert abs(eps - 2.0) <= 1e-12

    def test_zero_operator_returns_zero(self):
        geom = ChainGeometry(1, 2)
        a = DenseOperator(geom.full_support, np.zeros((8, 8)))
        assert local_commutator_epsilon(a, SiteSupport(0, 0), geom) == 0.0

    def test_qutrit_case(self):
        geom = ChainGeometry(1, 3)
        a = embed_local(DenseOperator.single_site(1, np.diag([1.0, 0.0, -1.0])), geom.full_support, geom)
        eps = local_commutator_epsilon(a, SiteSupport(-1, 0), geom)
        assert eps > 1.0  # strictly positive for an operator outside the kept region
        inside = local_commutator_epsilon(a, SiteSupport(0, 1), geom)
        assert inside <= 1e-12

    @pytest.mark.parametrize("keep", [SiteSupport(-1, 0), SiteSupport(0, 1), SiteSupport(-1, 1)])
    def test_dominates_projection_distance(self, rng, keep):
        # the approximation inequality: ||(id - E)(a)|| <= eps * ||a|| + 1e-9
        geom = ChainGeometry(2, 2)
        for _ in range(20):
            a = DenseOperator(geom.full_support, random_complex(rng, geom.total_dim))
            eps = local_commutator_epsilon(a, keep, geom)
            lhs = operator_norm(a - conditional_expectation(a, keep, geom))
            assert lhs <= eps * operator_norm(a) + 1e-9
            assert eps >= lhs / operator_norm(a) - 1e-10

    @pytest.mark.parametrize("geom,keep", EPSILON_CASES)
    def test_matches_reference_loop(self, rng, geom, keep):
        dims = factor_dims(geom, keep)
        n = geom.total_dim
        for m in (random_complex(rng, n), random_hermitian(rng, n)):
            ref = max(weyl_commutator_norms_oracle(m, *dims).values()) / np.linalg.norm(m, 2)
            eps = local_commutator_epsilon(DenseOperator(geom.full_support, m), keep, geom)
            assert abs(eps - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("geom,keep", EPSILON_CASES)
    def test_evaluated_unitaries_cover_the_spanning_set(self, rng, monkeypatch, geom, keep):
        # every non-identity Weyl product is evaluated or is the negation of
        # one that is, no pair is evaluated twice, and each evaluated norm
        # equals the reference one
        dl, dk, dr = dims = factor_dims(geom, keep)
        n = geom.total_dim
        m = random_complex(rng, n)
        ref = weyl_commutator_norms_oracle(m, *dims)
        labels = epsilon_unitaries(keep, geom)
        assert len(set(labels)) == len(labels)
        negated = {(pl, ql, pr, qr): (-pl % dl, -ql % dl, -pr % dr, -qr % dr) for pl, ql, pr, qr in labels}
        assert all(neg == label or neg not in negated for label, neg in negated.items())
        assert set(labels) | set(negated.values()) == set(ref) - {(0, 0, 0, 0)}
        expected = np.array([ref[label] for label in labels])
        # the default stack size, then stacks of 1, 2, 4 and 8 commutators,
        # so that most runs end on a partial stack
        for per_stack in (None, 1, 2, 4, 8):
            if per_stack is not None:
                monkeypatch.setattr(operators, "_GRAM_CHUNK_BYTES", per_stack * 16 * n * n)
            norms = commutator_norms(m, keep, geom)
            assert np.max(np.abs(norms - expected) / expected) <= 1e-12, per_stack

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_negated_pair_has_equal_norm(self, rng, dim):
        # U' = X^-p Z^-q is a phase times U^dag, so ||m - U m U^dag|| is the
        # same for both; the pair (p, q), (p, -q) has no such relation
        basis = weyl_oracle(dim)
        m = random_complex(rng, dim)

        def norm_for(p, q):
            u = basis[(p % dim) * dim + q % dim]
            return norm_oracle(m - u @ m @ u.conj().T)

        for p, q in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)):
            assert abs(norm_for(p, q) - norm_for(-p, -q)) <= 1e-13 * norm_for(p, q)
        assert any(abs(norm_for(p, q) - norm_for(p, -q)) > 1e-6 for p, q in ((1, 1), (1, 2), (2, 1)))


class TestAssertLocalized:
    def test_accepts_truly_local_operator(self, rng):
        geom = ChainGeometry(2, 2)
        inner = DenseOperator(SiteSupport(0, 0), random_hermitian(rng, 2))
        declared = embed_local(inner, SiteSupport(-1, 1), geom)  # declared wider than its action
        assert_localized(declared, SiteSupport(0, 0), geom)

    def test_rejects_operator_leaking_outside(self, rng):
        geom = ChainGeometry(2, 2)
        a = DenseOperator(SiteSupport(-1, 1), random_complex(rng, 8))
        with pytest.raises(SupportError):
            assert_localized(a, SiteSupport(0, 0), geom)

    def test_rejects_non_nested_supports(self, rng):
        geom = ChainGeometry(2, 2)
        a = DenseOperator(SiteSupport(0, 1), random_complex(rng, 4))
        with pytest.raises(SupportError):
            assert_localized(a, SiteSupport(-1, 0), geom)
