"""Exact Heisenberg-picture dynamics via cached spectral decompositions.

Everything here is exact diagonalization: a Hamiltonian is decomposed once,
then any observable is conjugated through the eigenbasis for any time.  No
time stepping, no truncation; the only error is floating point.

The second half of the module drives the decoupling comparison used by the
impurity-improved commutator bounds: it packages the dynamics generated by
the perturbed chain, by the chain decoupled at one impurity site, and by the
decoupled chain with that one coupling removed, and evaluates the
interpolating double commutator (and its time derivative) that connects the
full and decoupled evolutions of an observable.
"""

from __future__ import annotations

from functools import partial
from itertools import islice, permutations

import numpy as np

from .geometry import ChainGeometry, SupportError
from .model import (
    ImpuritySpec,
    NNInteraction,
    build_decoupled_hamiltonian,
    build_perturbed_hamiltonian,
    min_spacing,
    offdiagonal_block,
    perturbation_operator,
)
from .operators import (
    HERMITICITY_TOL, DenseOperator, commutator, commutator_norms, embed_local, gram_norms, hermitian_spectral, operator_norm,
    site_view, split_index,
)

RECONSTRUCTION_TOL = 1e-10
# Largest phase advance w*h of a central-difference step; the relative
# truncation error of the difference quotient is about (w*h)^2 / 6.
FD_PHASE_STEP = 1e-4


def connected_components(pattern: np.ndarray) -> list:
    """Index arrays of the connected components of the graph whose edges are the True entries of `pattern`.

    `pattern` is a square boolean matrix; an entry (i, j) joins i and j
    whichever triangle it sits in.  Components come in the order of their
    smallest index, each sorted ascending.  Every state carries the smallest
    index known to share its component: each round takes the minimum over
    both ends of every edge and then jumps to the label's own label, so the
    cost is a few passes over the nonzero entries.
    """
    rows, cols = np.nonzero(pattern)
    labels = np.arange(pattern.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[order], return_index=True)
    return np.split(order, starts[1:])


def _check_full_chain_hamiltonian(hamiltonian: DenseOperator, geom: ChainGeometry) -> None:
    if hamiltonian.support != geom.full_support:
        raise SupportError(
            f"evolution needs a full-chain Hamiltonian, got support {hamiltonian.support}"
        )
    hamiltonian.validate_dim(geom)


def _squared_frobenius(m: np.ndarray) -> np.ndarray:
    return np.sum(m.real**2 + m.imag**2, axis=(-2, -1))


def _block_spectra(h: np.ndarray, groups: list, diagonals: np.ndarray) -> tuple:
    """Eigendecompose H_r = H + diag(d_r) on each group, a union of components of ``H != 0``, for each row d_r.

    Per group, one stacked `hermitian_spectral`, whose members get the bits
    they would get alone.  Returns one stacked (eigenvalues, eigenvectors)
    pair per group, and the reconstruction residual of each H_r: the
    relative Frobenius residual of the blocks' V diag(w) V^dag against H_r,
    summed over groups since off-block entries are zero in both.  The first
    member that is not Hermitian or is over RECONSTRUCTION_TOL raises, with
    the text it would raise alone.
    """
    spectra = []
    squared_residual = squared_norm = 0.0
    for idx in groups:
        k = len(idx)
        stack = np.zeros((len(diagonals), k, k), dtype=complex)
        stack[:, np.arange(k), np.arange(k)] = diagonals[:, idx]
        stack += h[np.ix_(idx, idx)]
        evals, evecs = hermitian_spectral(stack)
        rebuilt = (evecs * evals[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
        rebuilt -= stack
        squared_residual += _squared_frobenius(rebuilt)
        squared_norm += _squared_frobenius(stack)
        del stack, rebuilt
        spectra.append((evals, evecs))
    residual = np.sqrt(squared_residual) / np.maximum(np.sqrt(squared_norm), 1e-300)
    over = np.flatnonzero(residual > RECONSTRUCTION_TOL)
    if over.size:
        raise ValueError(f"spectral reconstruction residual {residual[over[0]]:.3e} exceeds {RECONSTRUCTION_TOL:.0e}")
    return spectra, residual


def _rotate(evecs: np.ndarray, *blocks: np.ndarray) -> tuple:
    """V^dag M V for each block M, with V a stack of eigenvector matrices."""
    evecs_dag = evecs.conj().swapaxes(-1, -2)
    return tuple(evecs_dag @ m @ evecs for m in blocks)


def _block_norms(eigenvalues: np.ndarray, a_rot: np.ndarray, b_rot: np.ndarray, hermitian: bool, t: float):
    """|| [X, B'] || with X = p A' p^dag and p = exp(itw), for a stack of blocks.

    The commutator is formed as `commutator_norm_table` describes.
    """
    phases = np.exp(1j * t * eigenvalues)
    x = a_rot * phases[..., :, None]
    x *= phases.conj()[..., None, :]
    m = x @ b_rot
    if hermitian:
        del x
        m -= m.conj().swapaxes(-1, -2)
        m *= 1j
    else:
        m -= b_rot @ x
        del x
    return operator_norm(m)


def _split_norms(
    eigenvalues: np.ndarray, a_rot: np.ndarray, v_short: np.ndarray, v_long: np.ndarray, gap: float, t: float
):
    """gap * || Y || with Y = (V_s p) A' (V_l p)^dag and p = exp(itw), for a stack of blocks.

    V_k = S_k^dag V for B's sides S_k, as `commutator_norm_table` describes.
    The Gram matrix Y Y^dag plus its adjoint, 2 Y Y^dag to rounding, is
    Hermitian entry for entry, so `operator_norm` takes `eigvalsh`.
    """
    phases = np.exp(1j * t * eigenvalues)[..., None, :]
    y = (v_short * phases) @ a_rot @ (v_long * phases).conj().swapaxes(-1, -2)
    gram = y @ y.conj().swapaxes(-1, -2)
    gram += gram.conj().swapaxes(-1, -2)
    return gap * np.sqrt(0.5 * operator_norm(gram))


def two_sides(m: np.ndarray):
    """(values, W_1, W_2) for an exactly Hermitian m with two eigenvalues b_1 < b_2, W_k its eigenvectors for b_k; None otherwise.

    The one test of whether the identity below applies.  m is decomposed
    per connected component of its nonzero pattern, so each column of W_k
    lies on one component and a diagonal m gets its diagonal and identity
    columns bit for bit.  m counts as two-valued when each eigenvalue lies
    within delta <= HERMITICITY_TOL (b_2 - b_1) of b_1 = min or b_2 = max,
    which moves the norms below by at most 2 delta || Y ||.

    With S_k = I (x) W_k (x) I, m is diag(b_1, b_2) in the basis of the
    columns of S_1 and S_2, where Y has blocks Y_jk = S_j^dag Y S_k, so
    [Y, m] has only the blocks (b_2 - b_1) Y_12 and -(b_2 - b_1) Y_21.  Their
    norms are equal for Hermitian Y (Y_21 = Y_12^dag) and for unitary Y by
    the CS decomposition (Paige & Wei, Linear Algebra Appl. 208/209, 303
    (1994)): Y_21^dag Y_21 = 1 - Y_11^dag Y_11 and Y_12 Y_12^dag =
    1 - Y_11 Y_11^dag have the same eigenvalues.  Hence || [Y, m] || =
    (b_2 - b_1) || S_s^dag Y S_l ||, S_s the side with fewer columns.
    """
    if not np.array_equal(m, m.conj().T):
        return None
    evals, evecs = np.zeros(len(m)), np.zeros(m.shape, dtype=complex)
    for idx in connected_components(m != 0):
        evals[idx], evecs[np.ix_(idx, idx)] = np.linalg.eigh(m[np.ix_(idx, idx)].astype(complex))
    gap, low = np.ptp(evals), evals - evals.min()
    if not gap or np.any(np.minimum(low, gap - low) > HERMITICITY_TOL * gap):
        return None
    return np.array([evals.min(), evals.max()]), evecs[:, low <= gap / 2], evecs[:, low > gap / 2]


def _group_sides(local_sides, support, geom: ChainGeometry, groups: list) -> list:
    """The sides S_k = I (x) W_k (x) I of `two_sides` on `support` in each sorted group of states holding whole columns, fewer columns first.

    A side is (rows, coefs): its column j is the sum over r of coefs[r, j]
    times the state at position rows[r, j] of the group, one r per nonzero
    entry of column j of W_k, padded by zero coefficients on the first.  The
    rows come by index arithmetic on the digit of `support`, in basis order.
    """
    states = np.arange(geom.total_dim).reshape(geom.local_dim ** (support.lo - geom.full_support.lo), len(local_sides[0]), -1)
    out = [[] for _ in groups]
    for w in local_sides:
        local_rows = np.argsort(w == 0, axis=0, kind="stable")[: np.count_nonzero(w, axis=0).max()]
        coefs = np.take_along_axis(w, local_rows, axis=0)
        rows = np.moveaxis(states[:, np.where(coefs != 0, local_rows, local_rows[0])], 1, 0)
        coefs = np.broadcast_to(coefs[:, None, :, None], rows.shape)
        for sides, idx in zip(out, groups):
            cols = np.isin(rows[0], idx)
            sides.append((np.searchsorted(idx, rows[:, cols]), coefs[:, cols]))
    return [sorted(sides, key=lambda side: side[0].shape[1]) for sides in out]


def _gather(a: DenseOperator, geom: ChainGeometry, idx: np.ndarray) -> np.ndarray:
    """Rows and columns `idx` of the local `a` embedded on the full chain, from the local matrix.

    The embedded entry (s, s') is a[i, i'], i and i' the digits of s and s'
    on `a`'s support, when their other digits agree, and 0 otherwise.
    """
    inner, outer = split_index(idx, a.support, geom.full_support, geom.local_dim)
    return np.where(outer[:, None] == outer, a.matrix[np.ix_(inner, inner)], 0)


class EvolutionContext:
    """One Hamiltonian, eigendecomposed once, evolving any observable exactly.

    H is split along its exact zero pattern: each connected component of
    ``H != 0`` (listed in `spectral_blocks`) is an invariant subspace spanned
    by basis states, and is eigendecomposed on its own.  A Hamiltonian that
    conserves a diagonal charge, such as total S^z, splits into its charge
    sectors; a dense one is a single block.  `spectra` holds one
    (eigenvalues, eigenvectors) pair per block, in the order of
    `spectral_blocks`, with V_I of shape len(idx) x len(idx); `eigenvalues`
    is their concatenation, ascending within each block but not across
    blocks.  `reconstruction_residual` is the one `_block_spectra` gives H.
    """

    def __init__(self, hamiltonian: DenseOperator, geom: ChainGeometry):
        _check_full_chain_hamiltonian(hamiltonian, geom)
        self.geom = geom
        self.hamiltonian = hamiltonian
        h = hamiltonian.matrix
        self.spectral_blocks = connected_components(h != 0)
        spectra, residual = _block_spectra(h, self.spectral_blocks, np.zeros((1, len(h))))
        self.spectra = [(evals[0], evecs[0]) for evals, evecs in spectra]
        self.eigenvalues = np.concatenate([evals for evals, _ in self.spectra])
        self.reconstruction_residual = float(residual[0])
        # the basis states block by block, and the position where each block starts
        self._order = np.concatenate(self.spectral_blocks)
        self._starts = np.cumsum([0] + [len(idx) for idx in self.spectral_blocks[:-1]])

    def evolve(self, a: DenseOperator, t: float, weight=None) -> DenseOperator:
        """Heisenberg evolution exp(itH) A exp(-itH), embedded on the full chain.

        Runs over the block pairs (I, J) where the embedded A has a nonzero
        entry, found by reducing A's nonzero pattern over the blocks before
        any gather of A: with p = exp(itw),
        out[I, J] = V_I (p_I p_J^* . V_I^dag A[I, J] V_J) V_J^dag, and every
        other pair stays zero.  `weight`, when given, maps each Bohr
        frequency w_m - w_n to a factor that also multiplies eigenbasis entry
        (m, n), at t = 0 too.
        """
        full = embed_local(a, self.geom.full_support, self.geom)
        if t == 0.0 and weight is None:
            return full
        out = np.zeros(full.matrix.shape, dtype=complex)
        phases = [np.exp(1j * t * w) for w, _ in self.spectra]
        by_column_block = np.logical_or.reduceat((full.matrix != 0)[:, self._order], self._starts, axis=1)
        touched = np.logical_or.reduceat(by_column_block[self._order], self._starts, axis=0)
        for i, j in zip(*np.nonzero(touched)):
            (w_i, v_i), (w_j, v_j) = self.spectra[i], self.spectra[j]
            block = np.ix_(self.spectral_blocks[i], self.spectral_blocks[j])
            core = v_i.conj().T @ full.matrix[block] @ v_j
            core *= phases[i][:, None] * phases[j].conj()[None, :]
            if weight is not None:
                core *= weight(w_i[:, None] - w_j[None, :])
            out[block] = v_i @ core @ v_j.conj().T
        return DenseOperator(full.support, out)


def projection_commutator_norm(ctx: EvolutionContext, a: DenseOperator, t: float, unitaries: list) -> float:
    """max || [tau_t(A), U] || over the entries `unitaries` of `epsilon_unitaries`; 0 when there are none.

    The one route choice of the projection check: a local A that
    `two_sides` accepts takes `split_commutator_norms`, on Gram matrices of
    half the size or less, and any other A takes
    `lrchain.operators.commutator_norms` on ctx.evolve(a, t).
    """
    sides = two_sides(a.matrix)
    if sides is None:
        norms = commutator_norms(ctx.evolve(a, t).matrix, unitaries)
    else:
        norms = split_commutator_norms(ctx, a, t, unitaries, sides)
    return float(np.max(norms, initial=0.0))


def split_commutator_norms(ctx: EvolutionContext, a: DenseOperator, t: float, unitaries: list, sides) -> np.ndarray:
    """|| [tau_t(A), U] || for each entry of `epsilon_unitaries`, for a local A whose `two_sides` are `sides`.

    By `two_sides` for the unitary Y = exp(-itH) U exp(itH), the norm is
    (a_2 - a_1) || Q_s^dag U Q_l || with Q_k = exp(itH) S_k: per unitary, a
    Gram matrix of size min(k_1, k_2) instead of n, from `gram_norms`.
    """
    n = ctx.geom.total_dim
    propagator = np.zeros((n, n), dtype=complex)
    for idx, (w, v) in zip(ctx.spectral_blocks, ctx.spectra):
        propagator[np.ix_(idx, idx)] = (v * np.exp(1j * t * w)) @ v.conj().T
    short, long = _group_sides(sides[1:], a.support, ctx.geom, [np.arange(n)])[0]
    q_short, q_long = ((propagator[:, rows] * coefs).sum(axis=1) for rows, coefs in (short, long))
    q_short_dag = q_short.conj().T
    del propagator

    def build(perms, phases):
        return q_short_dag @ (q_long[perms] * phases[..., None])

    return (sides[0][1] - sides[0][0]) * gram_norms(unitaries, n * q_long.shape[1], build)


# bytes of one stack of the largest group over a chunk of Hamiltonians in
# `commutator_norm_table`: 13 Hamiltonians at L=3, whose largest S^z sector
# has dimension 35.  A chunk keeps a few such stacks alive at a time, which
# adds about a megabyte to the peak resident memory
_STACK_CHUNK_BYTES = 1 << 18


def commutator_norm_table(
    h0: DenseOperator, diagonals, a: DenseOperator, b: DenseOperator, geom: ChainGeometry, times
) -> tuple:
    """|| [ exp(itH_r) A exp(-itH_r), B ] || for the Hamiltonians H_r = H0 + diag(d_r).

    `diagonals` yields the vectors d_r, for example as the rows of an array
    or from a generator; it is read one chunk at a time, so a generator
    keeps only one chunk of them in memory.  Returns the norms, of shape
    (R, len(times)), and the reconstruction residual of each H_r, as
    `_block_spectra` defines it.  For one Hamiltonian H, pass H0 = H and a
    single all-zero diagonal and read row 0.

    Basis states are grouped into the connected components of
    (H0 != 0) | (A != 0) | (B != 0) for the embedded A and B, whose
    patterns `site_view` places from the local matrices.  Every H_r
    has the off-diagonal zero pattern of H0, so H_r, A and B are
    block-diagonal over these groups, hence so is the commutator, and its
    norm is the largest of the block norms.  For diagonal A and B the groups
    are the spectral blocks of H_r, such as its S^z sectors; a pair that
    joins blocks is eigendecomposed whole over each group it joins.  Each
    group's block is eigendecomposed, V diag(w) V^dag, and A is rotated
    into the eigenbasis once, A' = V^dag A V; with p = exp(itw) the evolved
    block of A is V X V^dag for X = p A' p^dag.  Each time point then costs
    one norm per group, taken by one of two routes:

    * Split route, when both local matrices are exactly Hermitian and
      `two_sides` accepts the local B: by the identity there, with B's sides
      S_k on the group and V_k = S_k^dag V, the norm is (b_2 - b_1) || Z ||
      for Z = (V_s p) A' (V_l p)^dag, one `eigvalsh` of size min(k_1, k_2)
      instead of k.  B is never rotated, and a group that holds only one of
      B's sides contributes 0.
    * Block route, for every other pair (B with three or more eigenvalues,
      non-Hermitian A or B).  B is rotated too, B' = V^dag B V, and the norm
      is the one of [X, B'], formed from the product M = X B'.  When both
      local matrices are exactly Hermitian, [X, B'] = M - M^dag in exact
      arithmetic, and i (M - M^dag) is Hermitian entry for entry, so
      `operator_norm` takes `eigvalsh`; otherwise the commutator is M - B' X.

    Both selection tests read the input alone.  The t = 0 column does not
    depend on H: when 0 is in `times`, it is formed once in the
    computational basis from A and B embedded on the chain, where disjoint
    supports commute exactly.  No other step forms an embedded A or B.

    The groups are found, A gathered and B gathered or split, once, each
    block gathered from the local matrix by `_gather`.  The Hamiltonians
    then run in chunks: a chunk takes one `_block_spectra` call, then per
    group one stacked rotation and one stacked norm per time point, and
    each member gets the bits it would get in a chunk of its own.  No dense
    eigenvector matrix of the chain is formed.  The chunk holds as many
    Hamiltonians as one stack of the largest group fits in
    `_STACK_CHUNK_BYTES`.
    """
    _check_full_chain_hamiltonian(h0, geom)
    h = h0.matrix
    times = tuple(float(t) for t in times)
    hermitian = all(np.array_equal(m, m.conj().T) for m in (a.matrix, b.matrix))
    pattern = h != 0
    for m in (a, b):
        site_view(pattern, m.support, geom.full_support, geom.local_dim)[...] |= m.matrix != 0
    groups = connected_components(pattern)
    del pattern
    b_sides = two_sides(b.matrix) if hermitian else None
    if b_sides is not None:
        b_parts = [sides if sides[0][0].shape[1] else None for sides in _group_sides(b_sides[1:], b.support, geom, groups)]
    else:
        b_parts = [_gather(b, geom, idx) for idx in groups]
    gathered = [(_gather(a, geom, idx), b_part) for idx, b_part in zip(groups, b_parts)]
    largest = max(len(idx) for idx in groups)
    chunk = max(1, _STACK_CHUNK_BYTES // (16 * largest * largest))  # 16 bytes per complex128 entry

    diagonals = iter(diagonals)
    norm_chunks, residual_chunks = [np.zeros((0, len(times)))], [np.zeros(0)]
    while len(chunk_diagonals := np.array(list(islice(diagonals, chunk)))):
        if chunk_diagonals.ndim != 2 or chunk_diagonals.shape[1] != h.shape[0]:
            raise ValueError(
                f"expected diagonals of shape (R, {h.shape[0]}), got rows of shape {chunk_diagonals.shape[1:]}"
            )
        spectra, residuals = _block_spectra(h, groups, chunk_diagonals)
        norms = np.zeros((len(chunk_diagonals), len(times)))
        for a_block, b_part in gathered:
            evals, evecs = spectra.pop(0)  # popped, so each group's eigenvectors are freed after its rotation
            if b_part is None:
                continue  # B has one side on this group, so it commutes with X
            if b_sides is not None:
                (a_rot,) = _rotate(evecs, a_block)
                v_short, v_long = ((coefs.conj()[..., None] * evecs[:, rows]).sum(axis=1) for rows, coefs in b_part)
                block_norms = partial(_split_norms, evals, a_rot, v_short, v_long, b_sides[0][1] - b_sides[0][0])
            else:
                block_norms = partial(_block_norms, evals, *_rotate(evecs, a_block, b_part), hermitian)
            del evecs
            for j, t in enumerate(times):
                if t != 0.0:
                    np.maximum(norms[:, j], block_norms(t), out=norms[:, j])
        norm_chunks.append(norms)
        residual_chunks.append(residuals)
    norms, residuals = np.concatenate(norm_chunks), np.concatenate(residual_chunks)
    if 0.0 in times:
        a_full, b_full = embed_local(a, geom.full_support, geom), embed_local(b, geom.full_support, geom)
        norms[:, [t == 0.0 for t in times]] = operator_norm(commutator(a_full, b_full))
    return norms, residuals


class DecoupledDynamics:
    """Dynamics of the perturbed chain against the chain decoupled at one impurity.

    Holds three evolution contexts over the same chain:

    * ``full``      - bond terms plus every coupled impurity;
    * ``decoupled`` - bonds compressed at ``site`` plus every coupled impurity;
    * ``reduced``   - bonds compressed at ``site``, every coupling except the
                      one at ``site``.

    The decoupled generator differs from the reduced one only by the on-site
    term at ``site``, which acts on the transition blocks as a pure phase;
    that is what makes the interpolant analysis below tractable.

    ``bare`` is the decoupled bond Hamiltonian without impurity couplings,
    and ``blocks`` maps each pair (j, k), j != k, in sorted order to the
    transition block P_j (bonds at site) P_k embedded on the full chain.
    """

    def __init__(self, phi: NNInteraction, imp: ImpuritySpec, site: int, geom: ChainGeometry):
        self.geom = geom
        self.site = site
        self.impurity = imp.at(site)
        self.coupling = imp.coupling(site)
        self.spacing = min_spacing(imp)
        self.bare = build_decoupled_hamiltonian(phi, imp, site, geom)
        self.full = EvolutionContext(build_perturbed_hamiltonian(phi, imp, geom), geom)
        self.decoupled = EvolutionContext(self.bare + perturbation_operator(imp, geom), geom)
        self.reduced = EvolutionContext(self.bare + perturbation_operator(imp, geom, exclude=site), geom)
        self.blocks = {
            (j, k): embed_local(offdiagonal_block(phi, imp, site, j, k, geom), geom.full_support, geom)
            for j, k in permutations(range(geom.local_dim), 2)
        }

    def phase(self, j: int, k: int, s: float) -> complex:
        """exp(i s * coupling * (gamma_j - gamma_k)), the on-site rotation of block (j, k)."""
        gammas = self.impurity.eigenvalues
        return complex(np.exp(1j * s * self.coupling * (gammas[j] - gammas[k])))

    def blocking_residual(self, a: DenseOperator, b: DenseOperator, times) -> float:
        """Largest || [ decoupled evolution of A, B ] || over `times`, for A, B on opposite sides of `site`.

        Exactly zero in exact arithmetic whenever A is supported strictly left
        and B strictly right of the decoupling site (or vice versa).
        `commutator_norm_table` is about 3x faster here than evolving A densely in `self.decoupled`.
        """
        zero = np.zeros(self.geom.total_dim)
        norms, _ = commutator_norm_table(self.decoupled.hamiltonian, [zero], a, b, self.geom, times)
        return float(norms.max())

    def _check_interpolant_supports(self, a: DenseOperator, b: DenseOperator) -> None:
        if not (a.support.hi + 1 < self.site):
            raise SupportError(
                f"interpolant needs the first observable strictly left of site {self.site} "
                f"with a one-site buffer, got support {a.support}"
            )
        if not (self.site < b.support.lo):
            raise SupportError(
                f"interpolant needs the second observable strictly right of site {self.site}, "
                f"got support {b.support}"
            )

    def _interpolant_factors(self, a: DenseOperator, b: DenseOperator, j: int, k: int, s: float, t: float) -> tuple:
        """(X(s), Y(s), B on the full chain): block (j, k) evolved to s and A hybrid-evolved, as `interpolant` defines them."""
        self._check_interpolant_supports(a, b)
        x = self.reduced.evolve(self.blocks[(j, k)], s)
        y = self.decoupled.evolve(self.full.evolve(a, t - s), s)
        return x, y, embed_local(b, self.geom.full_support, self.geom)

    def interpolant(self, a: DenseOperator, b: DenseOperator, j: int, k: int, s: float, t: float) -> DenseOperator:
        """Double commutator [[ block evolved to s, hybrid-evolved A ], B ].

        The hybrid evolution runs A for time t - s under the full chain, then
        for time s under the decoupled chain.  At s = t it vanishes
        identically; at s = 0 its norm controls how much the transition block
        (j, k) contributes to [full evolution of A, B].
        """
        x, y, b_full = self._interpolant_factors(a, b, j, k, s, t)
        return commutator(commutator(x, y), b_full)

    def interpolant_derivative(self, a: DenseOperator, b: DenseOperator, j: int, k: int, s: float, t: float) -> DenseOperator:
        """Analytic d/ds of `interpolant`, valid when impurities are >= 2 apart.

        Two contributions: the block's own motion under the reduced generator
        (the removed coupling acts on the block as a pure phase, which the
        derivative of the phase-free block picks up as the commutator with
        the bare decoupled Hamiltonian), and the mismatch between full and
        decoupled generators acting on the hybrid-evolved observable, which
        is again a sum of transition blocks.
        """
        if self.spacing < 2:
            raise ValueError(
                f"analytic interpolant derivative needs impurity spacing >= 2, got {self.spacing}"
            )
        x, y, b_full = self._interpolant_factors(a, b, j, k, s, t)

        moved = self.reduced.evolve(commutator(self.bare, self.blocks[(j, k)]), s)
        out = 1j * commutator(commutator(moved, y), b_full).matrix

        for block in self.blocks.values():
            rotated = self.decoupled.evolve(block, s)
            inner = commutator(rotated, y)
            out -= 1j * commutator(commutator(x, inner), b_full).matrix
        return DenseOperator(self.geom.full_support, out)

    def fd_step(self) -> float:
        """Central-difference step scaled to the fastest dynamics of the three contexts.

        The step is FD_PHASE_STEP / w, with w the largest spectral spread of
        the full, decoupled and reduced generators (floored at 1, so slow or
        trivial dynamics keep the step FD_PHASE_STEP).  Every phase then
        advances by at most about FD_PHASE_STEP per step, which keeps the
        (w*h)^2 / 6 truncation of the central difference far below the 1e-6
        agreement the derivative checks ask for, at any coupling.
        """
        spread = max(float(np.ptp(ctx.eigenvalues)) for ctx in (self.full, self.decoupled, self.reduced))
        return FD_PHASE_STEP / max(spread, 1.0)

    def interpolant_derivative_fd(self, a, b, j, k, s, t, step: float | None = None) -> DenseOperator:
        """Central difference (f(s+h) - f(s-h)) / 2h of `interpolant` in s, for cross-checking.

        f = [[X, Y], B] is bilinear in the evolved block X(s) and the
        hybrid-evolved observable Y(s), so exactly

            f(s+h) - f(s-h) = [[X(s+h) - X(s-h), mean Y] + [mean X, Y(s+h) - Y(s-h)], B].

        Each difference is an evolution weighted by 2i sin(hw), since
        exp(i(s+h)w) - exp(i(s-h)w) = 2i sin(hw) exp(isw), and each mean one
        weighted by cos(hw); no difference subtracts two O(1)-normed
        operators, so its rounding error does not grow as the step shrinks.
        What remains is the truncation of the central difference and the
        rounding floor of the eigendecompositions, which scales with the norm
        of the Hamiltonians.  `step` defaults to `fd_step()`.
        """
        if step is None:
            step = self.fd_step()
        self._check_interpolant_supports(a, b)
        geom = self.geom

        def cos_weight(w):
            return np.cos(step * w)

        def sin_weight(w):
            return 2j * np.sin(step * w)

        # X(s +- h): the block under the reduced evolution
        x_diff = self.reduced.evolve(self.blocks[(j, k)], s, sin_weight).matrix
        x_mean = self.reduced.evolve(self.blocks[(j, k)], s, cos_weight).matrix

        # Y(s +- h) = D_s D_{+-h} F_{-+h} Z with Z = F_{t-s} A, D / F the decoupled /
        # full evolutions.  Splitting D_{+-h} = cD +- sD/2 and F_{-+h} = cF -+ sF/2
        # into the parts weighted by cos(hw) and 2i sin(hw) gives
        #   Y(s+h) - Y(s-h) = D_s (sD cF - cD sF) Z,  mean Y = D_s (cD cF - sD sF / 4) Z.
        z_cos = self.full.evolve(a, t - s, cos_weight)
        z_sin = self.full.evolve(a, t - s, sin_weight)
        y_diff = self.decoupled.evolve(z_cos, s, sin_weight).matrix
        y_diff -= self.decoupled.evolve(z_sin, s, cos_weight).matrix
        y_mean = self.decoupled.evolve(z_cos, s, cos_weight).matrix
        y_mean -= 0.25 * self.decoupled.evolve(z_sin, s, sin_weight).matrix

        inner = x_diff @ y_mean - y_mean @ x_diff + x_mean @ y_diff - y_diff @ x_mean
        b_full = embed_local(b, geom.full_support, geom).matrix
        return DenseOperator(geom.full_support, (inner @ b_full - b_full @ inner) / (2.0 * step))
