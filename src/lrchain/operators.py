"""Dense operators on contiguous site intervals and the algebra on them.

Matrices are dense complex128 arrays indexed in row-major site order: the
leftmost site of the support is the most significant tensor factor.  All
operator algebra (products, embeddings, partial averages) keeps that
convention, so two operators agree entrywise iff they agree as chain
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChainGeometry, SiteSupport, SupportError

HERMITICITY_TOL = 1e-12

PAULI = {
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in PAULI.values():
    _m.setflags(write=False)


class HermiticityError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


def _as_matrix(a) -> np.ndarray:
    m = a.matrix if isinstance(a, DenseOperator) else np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def identity_matrix(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix together with the site interval it acts on."""

    support: SiteSupport
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def single_site(cls, site: int, matrix) -> DenseOperator:
        return cls(SiteSupport.single(site), np.asarray(matrix, dtype=complex))

    @classmethod
    def identity(cls, support: SiteSupport, geom: ChainGeometry) -> DenseOperator:
        return cls(support, identity_matrix(geom.dim_of(support)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> DenseOperator:
        return DenseOperator(self.support, self.matrix.conj().T)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def validate_dim(self, geom: ChainGeometry) -> None:
        expected = geom.dim_of(self.support)
        if self.dim != expected:
            raise ValueError(
                f"matrix dimension {self.dim} does not match local_dim**n_sites = {expected} "
                f"for support {self.support}"
            )

    def _check_same_support(self, other: DenseOperator) -> None:
        if self.support != other.support:
            raise SupportError(f"support mismatch: {self.support} vs {other.support}")

    def __add__(self, other: DenseOperator) -> DenseOperator:
        self._check_same_support(other)
        return DenseOperator(self.support, self.matrix + other.matrix)

    def __sub__(self, other: DenseOperator) -> DenseOperator:
        self._check_same_support(other)
        return DenseOperator(self.support, self.matrix - other.matrix)

    def __mul__(self, scalar) -> DenseOperator:
        return DenseOperator(self.support, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> DenseOperator:
        return DenseOperator(self.support, -self.matrix)

    def __matmul__(self, other: DenseOperator) -> DenseOperator:
        self._check_same_support(other)
        return DenseOperator(self.support, self.matrix @ other.matrix)


def kron_product(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """Tensor product of operators on adjacent supports, a to the left of b."""
    if a.support.hi + 1 != b.support.lo:
        raise SupportError(
            f"kron_product needs adjacent supports with the first on the left: "
            f"{a.support} then {b.support}"
        )
    return DenseOperator(SiteSupport(a.support.lo, b.support.hi), np.kron(a.matrix, b.matrix))


def embed_local(a: DenseOperator, target: SiteSupport, geom: ChainGeometry) -> DenseOperator:
    """Pad an operator with identities so it acts on the larger interval `target`."""
    if not target.contains(a.support):
        raise SupportError(f"target {target} does not contain operator support {a.support}")
    geom.check_support(target)
    a.validate_dim(geom)
    d = geom.local_dim
    left = d ** (a.support.lo - target.lo)
    right = d ** (target.hi - a.support.hi)
    m = a.matrix
    if left > 1:
        m = np.kron(identity_matrix(left), m)
    if right > 1:
        m = np.kron(m, identity_matrix(right))
    return DenseOperator(target, m)


def operator_norm(a) -> float:
    """Largest singular value.

    A matrix that equals plus or minus its adjoint entry for entry is normal,
    so its singular values are the moduli of its eigenvalues, which
    `eigvalsh` finds faster than an SVD.  The test is exact: a matrix that is
    Hermitian only up to rounding goes through the SVD.
    """
    m = _as_matrix(a)
    if m.shape[0] == 0:
        return 0.0
    adj = m.conj().T
    if np.array_equal(m, adj):
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    if np.array_equal(m, -adj):
        return float(np.max(np.abs(np.linalg.eigvalsh(1j * m))))
    return float(np.linalg.norm(m, 2))


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """[a, b] on a common support (embed first if supports differ)."""
    if a.support != b.support:
        raise SupportError(
            f"commutator needs a common support, got {a.support} and {b.support}; "
            "embed both into a joint interval first"
        )
    return DenseOperator(a.support, a.matrix @ b.matrix - b.matrix @ a.matrix)


def commutator_norm(a: DenseOperator, b: DenseOperator, geom: ChainGeometry) -> float:
    """Norm of [a, b] after embedding both into the smallest common interval."""
    lo = min(a.support.lo, b.support.lo)
    hi = max(a.support.hi, b.support.hi)
    joint = SiteSupport(lo, hi)
    am = embed_local(a, joint, geom)
    bm = embed_local(b, joint, geom)
    return operator_norm(commutator(am, bm))


def hermitian_spectral(a, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix.

    The input is checked entrywise against its adjoint at `tol` and
    symmetrized before calling the eigensolver, so tiny float asymmetry
    cannot leak into complex eigenvalues.  Returns (eigenvalues ascending,
    unitary of eigenvectors as columns).
    """
    m = _as_matrix(a)
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > tol:
        raise HermiticityError(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} > {tol:.1e}")
    sym = 0.5 * (m + m.conj().T)
    evals, evecs = np.linalg.eigh(sym)
    return evals, evecs


def conditional_expectation(a: DenseOperator, keep: SiteSupport, geom: ChainGeometry) -> DenseOperator:
    """Average out every site outside `keep` with the normalized trace.

    Acts on full-chain operators; the result is again a full-chain operator
    that is the identity outside `keep`.  This is the unique unital,
    norm-nonexpansive projection onto the subalgebra supported in `keep`
    induced by the product of per-site normalized traces.
    """
    if a.support != geom.full_support:
        raise SupportError(f"conditional_expectation expects a full-chain operator, got {a.support}")
    geom.check_support(keep)
    a.validate_dim(geom)
    d = geom.local_dim
    n = geom.n_sites
    left = keep.lo - geom.full_support.lo     # sites traced out on the left
    right = geom.full_support.hi - keep.hi    # sites traced out on the right
    kept = keep.n_sites

    t = a.matrix.reshape((d,) * n + (d,) * n)
    # trace out right sites first so remaining axis indices stay valid
    n_rem = n
    for _ in range(right):
        t = np.trace(t, axis1=n_rem - 1, axis2=2 * n_rem - 1)
        n_rem -= 1
    for _ in range(left):
        t = np.trace(t, axis1=0, axis2=n_rem)
        n_rem -= 1
    reduced = t.reshape(d ** kept, d ** kept) / d ** (left + right)
    return embed_local(DenseOperator(keep, reduced), geom.full_support, geom)


def weyl_basis(dim: int) -> list[np.ndarray]:
    """The dim^2 unitary shift-and-clock matrices X^p Z^q spanning M_dim."""
    shift = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        shift[(i + 1) % dim, i] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    out = []
    xp = identity_matrix(dim)
    for _ in range(dim):
        for q in range(dim):
            out.append(xp @ np.linalg.matrix_power(clock, q))
        xp = shift @ xp
    return out


def local_commutator_epsilon(a: DenseOperator, keep: SiteSupport, geom: ChainGeometry) -> float:
    """Worst normalized commutator of `a` with the algebra outside `keep`.

    Maximizes ||[a, B]|| / (||a|| ||B||) over a unitary spanning set of the
    subalgebra supported on the complement of `keep`: all products of
    shift-and-clock (Weyl) matrices on the complement sites, embedded with
    the identity on `keep`.  Averaging that set over the complement factors
    implements `conditional_expectation`, so the returned value always
    dominates ||(id - E_keep)(a)|| / ||a||.  Returns 0 for a = 0 or an empty
    complement.
    """
    if a.support != geom.full_support:
        raise SupportError(f"local_commutator_epsilon expects a full-chain operator, got {a.support}")
    geom.check_support(keep)
    a.validate_dim(geom)
    norm_a = operator_norm(a)
    if norm_a == 0.0:
        return 0.0
    d = geom.local_dim
    dl = d ** (keep.lo - geom.full_support.lo)
    dk = d ** keep.n_sites
    dr = d ** (geom.full_support.hi - keep.hi)
    if dl == 1 and dr == 1:
        return 0.0
    ik = identity_matrix(dk)
    m = a.matrix
    worst = 0.0
    for wl in weyl_basis(dl):
        base = np.kron(wl, ik)
        for wr in weyl_basis(dr):
            b = base if dr == 1 else np.kron(base, wr)
            c = m @ b - b @ m
            # ||B|| = 1: a tensor product of unitaries is unitary
            g = c.conj().T @ c
            val = float(np.sqrt(max(np.max(np.linalg.eigvalsh(g)), 0.0)))
            if val > worst:
                worst = val
    return worst / norm_a


LOCALIZATION_TOL = 1e-10


def assert_localized(a: DenseOperator, within: SiteSupport, geom: ChainGeometry, tol: float = LOCALIZATION_TOL) -> None:
    """Optional validator: `a` must act as the identity outside `within`.

    Declared supports are taken on trust everywhere else; this check embeds
    the operator on the full chain and requires its worst normalized
    commutator with the complement algebra of `within` to vanish.  Zero
    operators pass trivially.
    """
    if not a.support.contains(within) and not within.contains(a.support):
        raise SupportError(f"{within} and the declared support {a.support} are not nested")
    full = embed_local(a, geom.full_support, geom)
    eps = local_commutator_epsilon(full, within, geom)
    if eps > tol:
        raise SupportError(
            f"operator declared on {a.support} does not act as the identity outside {within}: "
            f"worst normalized commutator with the complement algebra is {eps:.3e} > {tol:.1e}"
        )
