"""Independent numerical oracles, one reference model build and one shared
loader check, for the test suite.

Every oracle recomputes its quantity by a different route than the library
(explicit index loops, eigvalsh instead of SVD, direct summation, an einsum
with one letter per site instead of the library's left/kept/right blocks),
so agreement between the two is evidence of correctness rather than a
tautology.
"""

from __future__ import annotations

import json
import string

import numpy as np
import pytest

from lrchain.disorder import _field_strengths, heisenberg_bond
from lrchain.geometry import ChainGeometry, SiteSupport, SupportError
from lrchain.model import ImpuritySpec, NNInteraction
from lrchain.operators import PAULI, DenseOperator, clock_phases, embed_local, local_commutator_epsilon


def random_hermitian(rng, dim: int, norm: float | None = None) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = m + m.conj().T
    if norm is not None:
        m = m * (norm / np.linalg.norm(m, 2))
    return m


def random_complex(rng, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def embed_oracle(m: np.ndarray, n_left: int, n_right: int, d: int) -> np.ndarray:
    """Identity padding by explicit index arithmetic (no np.kron)."""
    dl, dm, dr = d**n_left, m.shape[0], d**n_right
    out = np.zeros((dl * dm * dr, dl * dm * dr), dtype=complex)
    for il in range(dl):
        for im in range(dm):
            for jm in range(dm):
                for ir in range(dr):
                    out[(il * dm + im) * dr + ir, (il * dm + jm) * dr + ir] = m[im, jm]
    return out


def norm_oracle(m: np.ndarray) -> float:
    """Largest singular value via the top eigenvalue of M^dag M (no SVD)."""
    if m.size == 0:
        return 0.0
    evals = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(float(evals[-1]), 0.0)))


def ed_floor(h_norm: float, dim: int, t, ab_norm: float = 1.0):
    """The dense-ED resolution floor 4 eps dim (||H|| |t| + 1) ||A|| ||B|| of an exact commutator norm.

    `ab_norm` is ||A|| ||B||; `t` may be an array of times, giving one floor per time.
    """
    return 4 * np.finfo(float).eps * dim * (h_norm * np.abs(t) + 1.0) * ab_norm


def conditional_expectation_oracle(m: np.ndarray, n_sites: int, d: int, keep: set) -> np.ndarray:
    """Normalized partial trace over sites not in `keep`, re-embedded, via einsum.

    Sites are indexed 0..n_sites-1 left to right; `m` is d^n x d^n in that
    product basis.  Traced sites reuse one einsum letter on row and column
    (diagonal sum); kept sites keep distinct letters and are re-embedded as
    identity on the traced slots.
    """
    letters = string.ascii_lowercase
    t = m.reshape((d,) * (2 * n_sites))
    row = list(letters[:n_sites])
    col = list(letters[n_sites : 2 * n_sites])
    out_row, out_col = [], []
    for site in range(n_sites):
        if site in keep:
            out_row.append(row[site])
            out_col.append(col[site])
        else:
            col[site] = row[site]  # repeated letter: einsum sums the diagonal
    spec = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    kept_dim = d ** len(out_row)
    traced = n_sites - len(out_row)
    block = np.einsum(spec, t).reshape(kept_dim, kept_dim) / d**traced
    kept_sorted = sorted(keep)
    n_left = kept_sorted[0] if kept_sorted else 0
    n_right = n_sites - 1 - kept_sorted[-1] if kept_sorted else n_sites
    return embed_oracle(block, n_left, n_right, d)


def weyl_oracle(dim: int) -> list:
    """Shift-and-clock matrices X^p Z^q by matrix powers, p outer and q inner."""
    shift = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        shift[(i + 1) % dim, i] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    out = []
    xp = np.eye(dim, dtype=complex)
    for _ in range(dim):
        for q in range(dim):
            out.append(xp @ np.linalg.matrix_power(clock, q))
        xp = shift @ xp
    return out


def weyl_basis(dim: int) -> list[np.ndarray]:
    """The dim^2 unitary shift-and-clock matrices X^p Z^q spanning M_dim, p outer and q inner.

    Built from labels as the library reads them: row r of X^p Z^q holds
    its one nonzero entry in column (r - p) mod dim, and that entry is the
    `clock_phases` row of q at that column.
    """
    rows = np.arange(dim)
    out = []
    for p in range(dim):
        cols = (rows - p) % dim
        for q in range(dim):
            w = np.zeros((dim, dim), dtype=complex)
            w[rows, cols] = clock_phases(q, dim)[cols]
            out.append(w)
    return out


LOCALIZATION_TOL = 1e-10


def assert_localized(a: DenseOperator, within: SiteSupport, geom: ChainGeometry) -> None:
    """Optional validator: `a` must act as the identity outside `within`.

    The library takes declared supports on trust; this check embeds
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


def weyl_commutator_norms_oracle(m: np.ndarray, dl: int, dk: int, dr: int) -> dict:
    """||[m, W_l (x) I_dk (x) W_r]|| for every pair of Weyl matrices.

    Dense unitaries by np.kron, the commutator by two matmuls, the norm as
    sqrt(lambda_max(c^dag c)).  Keys are (p_l, q_l, p_r, q_r).  The largest
    value over ||m|| is the locality epsilon.
    """
    ik = np.eye(dk, dtype=complex)
    out = {}
    for kl, wl in enumerate(weyl_oracle(dl)):
        base = np.kron(wl, ik)
        for kr, wr in enumerate(weyl_oracle(dr)):
            b = np.kron(base, wr)
            c = m @ b - b @ m
            out[divmod(kl, dl) + divmod(kr, dr)] = norm_oracle(c)
    return out


def c_mu_bruteforce(mu: float, radius: int) -> float:
    total = 0.0
    for x in range(-radius, radius + 1):
        total += np.exp(-mu * abs(x)) / (1 + abs(x)) ** 2
    return float(total)


def k_mu_bruteforce(mu: float, scan: int, z_radius: int) -> float:
    best = 0.0
    for n in range(scan + 1):
        total = 0.0
        for z in range(-z_radius, z_radius + 1):
            expo = abs(z) + abs(n - z) - n
            total += np.exp(-mu * expo) * (1 + n) ** 2 / ((1 + abs(z)) ** 2 * (1 + abs(n - z)) ** 2)
        best = max(best, total)
    return float(best)


def chain_hamiltonian_oracle(bonds: dict, fields: dict, half_length: int, d: int) -> np.ndarray:
    """Full-chain Hamiltonian by direct identity padding of each term.

    `bonds` maps the left site x of bond (x, x+1) to a d^2 x d^2 matrix;
    `fields` maps a site to a d x d matrix (already scaled by its coupling).
    """
    n = 2 * half_length + 1
    dim = d**n
    h = np.zeros((dim, dim), dtype=complex)
    for x, m in bonds.items():
        h += embed_oracle(m, x + half_length, half_length - 1 - x, d)
    for x, m in fields.items():
        h += embed_oracle(m, x + half_length, half_length - x, d)
    return h


def heisenberg_sparse_field_model(cfg, couplings) -> tuple:
    """(geometry, interaction, impurities) of one field realization, built as a generic model.

    The reference for the sweep's `SparseFieldChain`: `couplings` maps
    sublattice sites to field strengths; sites outside the chain are allowed
    (the large-deviation event counts them) and ignored here.  Strengths
    below 1, outside the sampler's support, are rejected.
    """
    geom = ChainGeometry(cfg.L, 2)
    phi = NNInteraction(geom, uniform_bond=heisenberg_bond(cfg.J))
    imp = ImpuritySpec.uniform(cfg.field_sites(), PAULI["sz"], _field_strengths(cfg, couplings))
    return geom, phi, imp


def heavy_tail_cdf(a: float, r) -> np.ndarray:
    """Distribution function 1 - r^(-a) on [1, inf)."""
    r = np.asarray(r, dtype=float)
    return np.where(r < 1.0, 0.0, 1.0 - r ** (-a))


def assert_json_object_errors(load, tmp_path, error) -> None:
    """`load(path)` raises exactly `error`, with the exact message, on a missing
    file, on malformed JSON and on a top level that is not an object."""
    missing = tmp_path / "absent.json"
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "L": 1,\n}')
    try:
        json.loads(broken.read_text())
    except json.JSONDecodeError as exc:
        decode = f"{broken}:{exc.lineno}:{exc.colno}: {exc.msg}"
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    cases = [
        (missing, f"{missing}: [Errno 2] No such file or directory: '{missing}'"),
        (broken, decode),
        (listed, f"{listed}: top-level value must be an object"),
    ]
    for path, message in cases:
        with pytest.raises(error) as info:
            load(path)
        assert type(info.value) is error
        assert str(info.value) == message
