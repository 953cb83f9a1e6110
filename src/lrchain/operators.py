"""Dense operators on contiguous site intervals and the algebra on them.

Matrices are dense complex128 arrays indexed in row-major site order: the
leftmost site of the support is the most significant tensor factor.  All
operator algebra (embeddings, partial averages) keeps that convention, so
two operators agree entrywise iff they agree as chain operators.
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
    """The matrix of `a`, or a stack of matrices of shape (..., p, q): float64 if real-typed, else complex128."""
    m = a.matrix if isinstance(a, DenseOperator) else np.asarray(a)
    m = m.astype(np.result_type(m, float), copy=False)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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


def site_view(m: np.ndarray, support: SiteSupport, target: SiteSupport, local_dim: int) -> np.ndarray:
    """The writable view of `m`, a matrix on `target`, whose entry [l, r] is the block I_l (x) . (x) I_r on `support`.

    Row (l, i, r) and column (l', j, r') of `m`, with i and j the digits
    of `support` and l and r those of the sites left and right of it, are
    its entry [l, i, r, l', j, r']; the view keeps the entries with l = l'
    and r = r', so assigning or adding a local matrix to it places
    I (x) matrix (x) I by index arithmetic, writing each entry once.
    """
    left = local_dim ** (support.lo - target.lo)
    k = local_dim ** support.n_sites
    right = local_dim ** (target.hi - support.hi)
    return np.einsum("lirljr->lrij", m.reshape(left, k, right, left, k, right))


def split_index(states: np.ndarray, support: SiteSupport, target: SiteSupport, local_dim: int) -> tuple:
    """(i, o) for the basis states `states` of `target`: i each state's digit on `support`, o the index of its other digits.

    A state (l, i, r), with l and r its digits on the sites left and right
    of `support`, has index (l k + i) right + r, k and right the dimensions
    of `support` and of the sites right of it; o = l right + r.
    """
    k = local_dim ** support.n_sites
    right = local_dim ** (target.hi - support.hi)
    return states // right % k, states // (k * right) * right + states % right


def embed_local(a: DenseOperator, target: SiteSupport, geom: ChainGeometry) -> DenseOperator:
    """Pad an operator with identities so it acts on the larger interval `target`, placed by `site_view`."""
    if not target.contains(a.support):
        raise SupportError(f"target {target} does not contain operator support {a.support}")
    geom.check_support(target)
    a.validate_dim(geom)
    if target == a.support:
        return DenseOperator(target, a.matrix)
    m = np.zeros((geom.dim_of(target), geom.dim_of(target)), dtype=complex)
    site_view(m, a.support, target, geom.local_dim)[...] = a.matrix
    return DenseOperator(target, m)


def operator_norm(a):
    """Largest singular value; a stack of shape (..., p, q) gets an array of shape (...).

    The library's one spectral norm, by `eigvalsh` alone.  Input that equals
    its adjoint entry for entry, a whole stack at once, gets max |lambda|.
    Any other gets sqrt(max |lambda| / 2) for G = M M^dag + (M M^dag)^dag,
    Hermitian entry for entry with top eigenvalue 2 || M ||^2; that square
    must be a normal double, so this route is exact to rounding for norms
    from about 1e-150 to 1e150.  Each member of a stack gets the bits it
    would get alone on the route the whole stack takes.
    """
    m = _as_matrix(a)
    if 0 in m.shape[-2:]:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    if np.array_equal(m, _adjoint(m)):
        out = np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1)
    else:
        gram = m @ _adjoint(m)
        gram += _adjoint(gram)
        out = np.sqrt(0.5 * np.max(np.abs(np.linalg.eigvalsh(gram)), axis=-1))
    return float(out) if m.ndim == 2 else out


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """[a, b] on a common support (embed first if supports differ)."""
    if a.support != b.support:
        raise SupportError(
            f"commutator needs a common support, got {a.support} and {b.support}; "
            "embed both into a joint interval first"
        )
    return DenseOperator(a.support, a.matrix @ b.matrix - b.matrix @ a.matrix)


def check_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """max |M - M^dag| of a square matrix, or of each member of a stack of shape (..., n, n).

    The library's one Hermiticity test: the first member over
    `HERMITICITY_TOL` raises `HermiticityError`, its message naming `what`.
    """
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{what} must be square, or a stack of square matrices, got shape {m.shape}")
    defect = np.max(np.abs(m - _adjoint(m)), axis=(-2, -1), initial=0.0)
    # written as "not within", so a NaN defect, which compares false, is over
    over = np.flatnonzero(~(defect <= HERMITICITY_TOL))
    if over.size:
        worst = float(np.ravel(defect)[over[0]])
        raise HermiticityError(f"{what} is not Hermitian: max |M - M^dag| = {worst:.3e} > {HERMITICITY_TOL:.1e}")
    return defect


def hermitian_spectral(a):
    """Eigendecomposition of a Hermitian matrix, or of each member of a stack (..., n, n).

    The input is tested by `check_hermitian`.  A matrix with a nonzero
    defect is symmetrized before calling the eigensolver, so tiny float
    asymmetry cannot leak into complex eigenvalues; one that equals its
    adjoint entry for entry goes in as it is, since
    0.5 (M + M^dag) would reproduce it bit for bit.  A matrix whose
    imaginary part is then exactly zero, real-typed or not, is real
    symmetric and takes the real `eigh`, with real eigenvectors; any other
    takes the complex one.  Returns (eigenvalues ascending, unitary of
    eigenvectors as columns), with the stack's leading axes in front.  The
    batched `eigh` decomposes every member on its own, and each member of a
    stack takes the route it would take alone, so a member's result equals
    that of the matrix passed alone; the first member over tolerance
    raises, with the text a lone matrix would give.
    """
    m = _as_matrix(a)
    asymmetric = check_hermitian(m, "matrix") != 0
    if np.any(asymmetric):
        m = np.where(asymmetric[..., None, None], 0.5 * (m + _adjoint(m)), m)
    real = ~np.any(m.imag, axis=(-2, -1))
    if np.all(real):
        return np.linalg.eigh(m.real)
    evals, evecs = np.linalg.eigh(m)
    if np.any(real):
        evals[real], evecs[real] = np.linalg.eigh(m[real].real)
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
    # block [l, r] of the view pairs l with l' and r with r': their mean is the normalized trace outside keep
    reduced = site_view(a.matrix, keep, geom.full_support, geom.local_dim).mean(axis=(0, 1))
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


def weyl_factor_dims(keep: SiteSupport, geom: ChainGeometry) -> tuple:
    """(d_l, d_k, d_r): the dimensions of the sites left of `keep`, of `keep` and of the sites right of it."""
    geom.check_support(keep)
    d = geom.local_dim
    return d ** (keep.lo - geom.full_support.lo), d**keep.n_sites, d ** (geom.full_support.hi - keep.hi)


def epsilon_unitaries(keep: SiteSupport, geom: ChainGeometry) -> list:
    """The unitaries U = W_l (x) I_keep (x) W_r that `local_commutator_epsilon` evaluates.

    W_l and W_r are shift-and-clock matrices on the complement of `keep`
    left and right of it.  Each entry is ((p_l, q_l, p_r, q_r), perm,
    phases): row r of U holds phases[r] in column perm[r].  The identity is
    left out, and of each pair (p_l, q_l, p_r, q_r) and its negation modulo
    the factor dimensions only the first in tuple order is listed.
    """
    dl, dk, dr = weyl_factor_dims(keep, geom)
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


# bytes of the largest stack that one chunk of `commutator_norms` or
# `lrchain.dynamics.split_commutator_norms` builds: 8 commutators at
# dimension 128, or 32 split matrices of 64 x 64, so the stacks add little
# to the peak resident memory
_GRAM_CHUNK_BYTES = 1 << 21


def gram_chunk(member_size: int) -> int:
    """How many matrices of `member_size` complex entries one chunk stacks: as many as fit in `_GRAM_CHUNK_BYTES`, at least one."""
    return max(1, _GRAM_CHUNK_BYTES // (16 * member_size))  # 16 bytes per complex128 entry


def commutator_norms(m: np.ndarray, unitaries: list) -> np.ndarray:
    """||[m, U]|| = ||m - U m U^dag|| for each entry of `epsilon_unitaries`.

    U m U^dag is a gather of m on rows and columns times the outer product
    of the phases, built for a chunk of unitaries at once, with one stacked
    `operator_norm` per chunk.
    """
    chunk = gram_chunk(m.size)
    norms = np.empty(len(unitaries))
    for start in range(0, len(unitaries), chunk):
        batch = unitaries[start : start + chunk]
        perms, phases = (np.array([entry[i] for entry in batch]) for i in (1, 2))
        c = m[perms[:, :, None], perms[:, None, :]]
        c *= phases[:, :, None] * phases.conj()[:, None, :]
        norms[start : start + len(batch)] = operator_norm(np.subtract(m, c, out=c))
    return norms


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
