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
    """The square matrix of `a`, or a stack of square matrices of shape (..., n, n)."""
    m = a.matrix if isinstance(a, DenseOperator) else np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


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

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= HERMITICITY_TOL)

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


def operator_norm(a):
    """Largest singular value; a stack of shape (..., n, n) gets an array of shape (...).

    A matrix, or a whole stack, that equals its adjoint entry for entry is
    Hermitian, so its singular values are the moduli of its eigenvalues,
    which `eigvalsh` finds faster than an SVD.  Anything else, a matrix
    Hermitian only up to rounding included, goes through the SVD.  The route
    is chosen once per call: a stack whose members are all exactly Hermitian
    gives each member the bits it would get alone, and any other stack takes
    the SVD for all its members.
    """
    m = _as_matrix(a)
    if m.shape[-1] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    if np.array_equal(m, _adjoint(m)):
        out = np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1)
    else:
        out = np.linalg.norm(m, 2, axis=(-2, -1))
    return float(out) if m.ndim == 2 else out


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """[a, b] on a common support (embed first if supports differ)."""
    if a.support != b.support:
        raise SupportError(
            f"commutator needs a common support, got {a.support} and {b.support}; "
            "embed both into a joint interval first"
        )
    return DenseOperator(a.support, a.matrix @ b.matrix - b.matrix @ a.matrix)


def hermitian_spectral(a):
    """Eigendecomposition of a Hermitian matrix, or of each member of a stack (..., n, n).

    The input is checked entrywise against its adjoint at `HERMITICITY_TOL`.  A matrix
    with a nonzero defect is symmetrized before calling the eigensolver, so
    tiny float asymmetry cannot leak into complex eigenvalues; one that
    equals its adjoint entry for entry goes in as it is, since
    0.5 (M + M^dag) would reproduce it bit for bit.  Returns (eigenvalues
    ascending, unitary of eigenvectors as columns), with the stack's leading
    axes in front.  The batched `eigh` decomposes every member on its own,
    so a member's result equals that of the matrix passed alone; the first
    member over tolerance raises, with the text a lone matrix would give.
    """
    m = _as_matrix(a)
    adj = _adjoint(m)
    if m.shape[-1]:
        defect = np.max(np.abs(m - adj), axis=(-2, -1))
    else:
        defect = np.zeros(m.shape[:-2])
    over = np.flatnonzero(defect > HERMITICITY_TOL)
    if over.size:
        worst = float(np.ravel(defect)[over[0]])
        raise HermiticityError(f"matrix is not Hermitian: max |M - M^dag| = {worst:.3e} > {HERMITICITY_TOL:.1e}")
    asymmetric = defect != 0
    if np.any(asymmetric):
        m = np.where(asymmetric[..., None, None], 0.5 * (m + adj), m)
    evals, evecs = np.linalg.eigh(m)
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
    dl = d ** (keep.lo - geom.full_support.lo)  # the sites traced out on the left
    dk = d ** keep.n_sites
    dr = d ** (geom.full_support.hi - keep.hi)  # the sites traced out on the right
    # row (l, k, r), column (l', k', r'): the trace pairs l with l' and r with r'
    reduced = np.einsum("lirljr->ij", a.matrix.reshape(dl, dk, dr, dl, dk, dr)) / (dl * dr)
    return embed_local(DenseOperator(keep, reduced), geom.full_support, geom)


def _weyl_monomials(dim: int):
    """Yield (p, q, perm, phases) for each shift-and-clock matrix X^p Z^q.

    X^p Z^q is monomial: row r holds its one nonzero entry, phases[r], in
    column perm[r].  The order is p outer, q inner.
    """
    rows = np.arange(dim)
    for p in range(dim):
        perm = (rows - p) % dim
        for q in range(dim):
            yield p, q, perm, np.exp(2j * np.pi * ((q * perm) % dim) / dim)


def weyl_basis(dim: int) -> list[np.ndarray]:
    """The dim^2 unitary shift-and-clock matrices X^p Z^q spanning M_dim, p outer and q inner."""
    rows = np.arange(dim)
    out = []
    for _, _, perm, phases in _weyl_monomials(dim):
        w = np.zeros((dim, dim), dtype=complex)
        w[rows, perm] = phases
        out.append(w)
    return out


def epsilon_unitaries(keep: SiteSupport, geom: ChainGeometry) -> list:
    """The unitaries U = W_l (x) I_keep (x) W_r that `local_commutator_epsilon` evaluates.

    W_l and W_r are shift-and-clock matrices on the complement of `keep`
    left and right of it.  Each entry is ((p_l, q_l, p_r, q_r), perm,
    phases): row r of U holds phases[r] in column perm[r].  The identity is
    left out, and of each pair (p_l, q_l, p_r, q_r) and its negation modulo
    the factor dimensions only the first in tuple order is listed.
    """
    geom.check_support(keep)
    d = geom.local_dim
    dl = d ** (keep.lo - geom.full_support.lo)
    dk = d ** keep.n_sites
    dr = d ** (geom.full_support.hi - keep.hi)
    right = list(_weyl_monomials(dr))
    out = []
    for pl, ql, perm_l, ph_l in _weyl_monomials(dl):
        # W_l (x) I_keep, with the row index of the right factor still to append
        perm_lk = (np.add.outer(perm_l * dk, np.arange(dk)) * dr).ravel()
        ph_lk = np.repeat(ph_l, dk)
        for pr, qr, perm_r, ph_r in right:
            label = (pl, ql, pr, qr)
            negated = (-pl % dl, -ql % dl, -pr % dr, -qr % dr)
            if label == (0, 0, 0, 0) or negated < label:
                continue
            out.append((label, np.add.outer(perm_lk, perm_r).ravel(), np.multiply.outer(ph_lk, ph_r).ravel()))
    return out


# bytes of the largest array that one chunk of `gram_norms` builds: 8
# commutators at dimension 128, so the stacks add little to the peak
# resident memory
_GRAM_CHUNK_BYTES = 1 << 21


def gram_norms(unitaries: list, member_size: int, build) -> np.ndarray:
    """|| y || = sqrt(lambda_max(y y^dag)) for the matrix y that `build` makes from each entry of `epsilon_unitaries`.

    The one loop over the unitaries, shared by this module's
    `commutator_norms` and by `lrchain.dynamics.split_commutator_norms`.
    `build(perms, phases)` takes the permutations and phases of a chunk of
    entries, stacked along a leading axis, and returns the stack of their
    matrices y.  Its largest array holds `member_size` complex entries per
    entry, and chunks are sized so that it fits in `_GRAM_CHUNK_BYTES`.
    Each chunk takes one stacked product y y^dag and one stacked `eigvalsh`.
    """
    chunk = max(1, _GRAM_CHUNK_BYTES // (16 * member_size))  # 16 bytes per complex128 entry
    norms = np.empty(len(unitaries))
    for start in range(0, len(unitaries), chunk):
        batch = unitaries[start : start + chunk]
        y = build(np.array([perm for _, perm, _ in batch]), np.array([phases for _, _, phases in batch]))
        gram = y @ y.conj().swapaxes(-1, -2)
        norms[start : start + len(batch)] = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    return norms


def commutator_norms(m: np.ndarray, unitaries: list) -> np.ndarray:
    """||[m, U]|| = ||m - U m U^dag|| for each entry of `epsilon_unitaries`, from `gram_norms`.

    U m U^dag is a gather of m on rows and columns times the outer product
    of the phases, built for a whole chunk of unitaries at once.
    """

    def build(perms, phases):
        c = m[perms[:, :, None], perms[:, None, :]]
        c *= phases[:, :, None] * phases.conj()[:, None, :]
        return np.subtract(m, c, out=c)

    return gram_norms(unitaries, m.size, build)


def local_commutator_epsilon(a: DenseOperator, keep: SiteSupport, geom: ChainGeometry) -> float:
    """Worst normalized commutator of `a` with the algebra outside `keep`.

    Maximizes ||[a, B]|| / (||a|| ||B||) over a unitary spanning set of the
    subalgebra supported on the complement of `keep`: all products of
    shift-and-clock (Weyl) matrices on the complement sites, embedded with
    the identity on `keep`.  Averaging that set over the complement factors
    implements `conditional_expectation`, so the returned value always
    dominates ||(id - E_keep)(a)|| / ||a||.  Returns 0 for a = 0 or an empty
    complement.

    Only the members listed by `epsilon_unitaries` are evaluated, and the
    maximum is unchanged.  The identity commutes with `a`.  The negation
    U' of U, with (p, q) -> (-p, -q) on both factors, is a phase times
    U^dag, so ||[a, U']|| = ||a - U^dag a U|| = ||U a U^dag - a|| = ||[a, U]||.
    """
    if a.support != geom.full_support:
        raise SupportError(f"local_commutator_epsilon expects a full-chain operator, got {a.support}")
    geom.check_support(keep)
    a.validate_dim(geom)
    norm_a = operator_norm(a)
    if norm_a == 0.0:
        return 0.0
    # ||B|| = 1: a tensor product of unitaries is unitary
    return float(np.max(commutator_norms(a.matrix, epsilon_unitaries(keep, geom)), initial=0.0)) / norm_a


LOCALIZATION_TOL = 1e-10


def assert_localized(a: DenseOperator, within: SiteSupport, geom: ChainGeometry) -> None:
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
    if eps > LOCALIZATION_TOL:
        raise SupportError(
            f"operator declared on {a.support} does not act as the identity outside {within}: "
            f"worst normalized commutator with the complement algebra is {eps:.3e} > {LOCALIZATION_TOL:.1e}"
        )
