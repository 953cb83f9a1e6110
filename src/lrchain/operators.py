"""Dense operators on contiguous site intervals and the algebra on them.

Matrices are dense complex128 arrays indexed in row-major site order: the
leftmost site of the support is the most significant tensor factor.  All
operator algebra (embeddings, partial averages) keeps that convention, so
two operators agree entrywise iff they agree as chain operators.
"""

from __future__ import annotations

import itertools
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


def weyl_factor_dims(keep: SiteSupport, geom: ChainGeometry) -> tuple:
    """(d_l, d_k, d_r): the dimensions of the sites left of `keep`, of `keep` and of the sites right of it."""
    geom.check_support(keep)
    d = geom.local_dim
    return d ** (keep.lo - geom.full_support.lo), d**keep.n_sites, d ** (geom.full_support.hi - keep.hi)


def epsilon_unitaries(keep: SiteSupport, geom: ChainGeometry) -> list:
    """The labels (p_l, q_l, p_r, q_r) of the unitaries U = W_l (x) I_keep (x) W_r that `local_commutator_epsilon` evaluates.

    W = X^p Z^q acts on the sites left of `keep` for W_l and right of it for
    W_r, of the dimensions d_l and d_r of `weyl_factor_dims`: the shift X
    maps the digit x to x + 1 and the clock Z multiplies it by w^x, with
    w = exp(2 pi i / d) and digits mod d.  Labels come in tuple order.  The
    identity is left out, and so is every label that comes after its
    negation (-p_l, -q_l, -p_r, -q_r) mod the factor dimensions.
    """
    dl, _, dr = weyl_factor_dims(keep, geom)
    dims = (dl, dl, dr, dr)
    labels = itertools.product(*map(range, dims))
    return [x for x in labels if x != (0, 0, 0, 0) and x <= tuple(-v % d for v, d in zip(x, dims))]


def clock_phases(q, dim: int) -> np.ndarray:
    """w^(q x mod dim) at each digit x < dim, w = exp(2 pi i / dim): the diagonal of Z^q, one row per entry of the integer array `q`."""
    return np.exp(2j * np.pi * ((np.asarray(q)[..., None] * np.arange(dim)) % dim) / dim)


def weyl_shifts(keep: SiteSupport, geom: ChainGeometry):
    """Yield the labels of `epsilon_unitaries` on `keep` by shift: (p_l, p_r), their positions in that list, and their clock rows.

    The clock row of (q_l, q_r) is the (d_l, d_r) array w_l^(q_l a) w_r^(q_r b)
    over the left digits a and the right digits b, the product of the two
    `clock_phases` rows: U maps the state with digits (a, c, b), left of
    keep, on it and right of it, to that phase times the state
    (a + p_l, c, b + p_r).
    """
    dl, _, dr = weyl_factor_dims(keep, geom)
    shifts = {}
    for i, (pl, ql, pr, qr) in enumerate(epsilon_unitaries(keep, geom)):
        shifts.setdefault((pl, pr), []).append((i, ql, qr))
    for shift, members in shifts.items():
        positions, ql, qr = np.array(members).T
        yield shift, positions, clock_phases(ql, dl)[:, :, None] * clock_phases(qr, dr)[:, None, :]


# bytes of the largest stack that one chunk of `commutator_norms` or
# `lrchain.dynamics.split_commutator_norms` builds: 8 commutators at
# dimension 128, or 32 split matrices of 64 x 64, so the stacks add little
# to the peak resident memory
_GRAM_CHUNK_BYTES = 1 << 21


def gram_chunk(member_size: int) -> int:
    """How many matrices of `member_size` complex entries one chunk stacks: as many as fit in `_GRAM_CHUNK_BYTES`, at least one."""
    return max(1, _GRAM_CHUNK_BYTES // (16 * member_size))  # 16 bytes per complex128 entry


def commutator_norms(m: np.ndarray, keep: SiteSupport, geom: ChainGeometry) -> np.ndarray:
    """||[m, U]|| = ||m - U m U^dag|| for each label of `epsilon_unitaries` on `keep`, in that order.

    Per shift of `weyl_shifts`, m is gathered once at the source digits
    (a - p_l, b - p_r) of rows and columns; U m U^dag is that gather times
    the outer product of the clock rows at those digits, built for a chunk
    of the shift's labels at once, with one stacked `operator_norm` per chunk.
    """
    dl, dk, dr = weyl_factor_dims(keep, geom)
    chunk = gram_chunk(m.size)
    norms = np.empty(len(epsilon_unitaries(keep, geom)))
    for (pl, pr), positions, clocks in weyl_shifts(keep, geom):
        gathered = np.roll(m.reshape(dl, dk, dr, dl, dk, dr), (pl, pr, pl, pr), axis=(0, 2, 3, 5))
        phases = np.roll(clocks, (pl, pr), axis=(1, 2))
        for start in range(0, len(positions), chunk):
            p = phases[start : start + chunk]
            c = (gathered * (p[:, :, None, :, None, None, None] * p.conj()[:, None, None, None, :, None, :])).reshape(-1, *m.shape)
            norms[positions[start : start + chunk]] = operator_norm(np.subtract(m, c, out=c))
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
    return float(np.max(commutator_norms(a.matrix, keep, geom), initial=0.0)) / norm_a
