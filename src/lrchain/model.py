"""Nearest-neighbour chain Hamiltonians with on-site impurity perturbations.

A model is a pair: a nearest-neighbour interaction (one Hermitian bond matrix
per bond, translation-invariant by default) and a set of on-site impurities.
Each impurity carries a nondegenerate Hermitian on-site operator, stored as
its spectral data (eigenvalues plus rank-one projectors), and a real coupling.

Besides the perturbed Hamiltonian itself, this module builds the comparison
Hamiltonian that is block-diagonal with respect to one impurity's eigenbasis:
the two bonds touching the impurity site are compressed by the projector
sandwich sum_j P_j (bond terms) P_j, which severs all transitions between
impurity eigenspaces and makes the two half-chains evolve independently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .geometry import ChainGeometry, SiteSupport, SupportError
from .operators import (
    DenseOperator,
    HermiticityError,
    check_hermitian,
    embed_local,
    hermitian_spectral,
    operator_norm,
    site_view,
)
from .serialize import INTEGER, LIST, NUMBER, NUMBERS, OBJECT, check_keys, fmt_path, read_field, read_json_object, read_matrix

DEGENERACY_TOL = 1e-8
PROJECTOR_TOL = 1e-10
UNIFORMITY_TOL = 1e-12


class ModelFormatError(ValueError):
    """A model description file is malformed; the message carries the JSON path."""


class NNInteraction:
    """Nearest-neighbour bond terms, one Hermitian matrix per bond (x, x+1)."""

    def __init__(self, geom: ChainGeometry, uniform_bond=None, bonds=None):
        self.geom = geom
        d2 = geom.local_dim ** 2
        terms: dict[int, np.ndarray] = {}
        if uniform_bond is not None:
            u = np.asarray(uniform_bond, dtype=complex)
            check_hermitian(u, "uniform bond term")
            if u.shape != (d2, d2):
                raise ValueError(f"bond term must be {d2} x {d2} for local_dim {geom.local_dim}")
            for x in range(-geom.half_length, geom.half_length):
                terms[x] = u
        if bonds is not None:
            for x, m in bonds.items():
                if not (-geom.half_length <= x <= geom.half_length - 1):
                    raise SupportError(f"bond ({x}, {x + 1}) outside chain")
                b = np.asarray(m, dtype=complex)
                check_hermitian(b, f"bond term at ({x}, {x + 1})")
                if b.shape != (d2, d2):
                    raise ValueError(f"bond term at ({x}, {x + 1}) must be {d2} x {d2}")
                terms[x] = b
        self._terms = terms
        self._zero = np.zeros((d2, d2), dtype=complex)

    def bond(self, x: int) -> np.ndarray:
        """Bond term on (x, x+1); zero matrix if the bond is absent."""
        if not (-self.geom.half_length <= x <= self.geom.half_length - 1):
            raise SupportError(f"bond ({x}, {x + 1}) outside chain")
        return self._terms.get(x, self._zero)

    def bond_operator(self, x: int) -> DenseOperator:
        return DenseOperator(SiteSupport(x, x + 1), self.bond(x))

    @property
    def strength(self) -> float:
        """Largest bond norm, the interaction strength entering every bound."""
        if not self._terms:
            return 0.0
        return max(operator_norm(m) for m in self._terms.values())


@dataclass(frozen=True)
class SiteImpurity:
    """Spectral data of one nondegenerate on-site Hermitian perturbation."""

    site: int
    eigenvalues: np.ndarray   # (D,) real, pairwise distinct
    projectors: np.ndarray    # (D, D, D) rank-one, orthogonal, complete

    def __post_init__(self):
        if not hasattr(self.site, "__index__"):
            raise ValueError(f"impurity site must be an integer, got {self.site!r}")
        object.__setattr__(self, "site", operator.index(self.site))
        evals = np.asarray(self.eigenvalues, dtype=float)
        projs = np.asarray(self.projectors, dtype=complex)
        d = evals.shape[0]
        if evals.ndim != 1 or d < 2:
            raise ValueError("impurity needs at least two eigenvalues")
        if projs.shape != (d, d, d):
            raise ValueError(f"expected {d} projectors of shape {d} x {d}, got {projs.shape}")
        gaps = np.abs(evals[:, None] - evals[None, :])
        min_gap = float(np.min(gaps[~np.eye(d, dtype=bool)]))
        if min_gap < DEGENERACY_TOL:
            raise ValueError(
                f"impurity eigenvalues at site {self.site} are degenerate within {DEGENERACY_TOL:.0e} "
                f"(smallest gap {min_gap:.3e}); only nondegenerate on-site terms are supported"
            )
        for j in range(d):
            p = projs[j]
            if np.max(np.abs(p - p.conj().T)) > PROJECTOR_TOL:
                raise ValueError(f"projector {j} at site {self.site} is not Hermitian")
            if abs(np.trace(p) - 1.0) > PROJECTOR_TOL:
                raise ValueError(f"projector {j} at site {self.site} is not rank one")
            for k in range(d):
                prod = projs[j] @ projs[k]
                want = projs[j] if j == k else 0.0
                if np.max(np.abs(prod - want)) > PROJECTOR_TOL:
                    raise ValueError(f"projectors {j}, {k} at site {self.site} are not orthogonal idempotents")
        if np.max(np.abs(projs.sum(axis=0) - np.eye(d))) > PROJECTOR_TOL:
            raise ValueError(f"projectors at site {self.site} do not sum to the identity")
        evals.setflags(write=False)
        projs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def from_hermitian(cls, site: int, matrix) -> SiteImpurity:
        """Spectrally decompose a Hermitian D x D matrix into impurity data."""
        try:
            evals, u = hermitian_spectral(np.asarray(matrix, dtype=complex))
        except ValueError as exc:
            raise type(exc)(f"impurity matrix at site {site}: {exc}") from None
        projs = np.stack([np.outer(u[:, j], u[:, j].conj()) for j in range(len(evals))])
        return cls(site, evals, projs)

    @property
    def local_dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def gap(self) -> float:
        """Smallest distance between two eigenvalues."""
        evals = np.sort(self.eigenvalues)
        return float(np.min(np.diff(evals)))

    def matrix(self) -> np.ndarray:
        return np.tensordot(self.eigenvalues, self.projectors, axes=(0, 0))


class ImpuritySpec:
    """A finite set of site impurities with nonzero real couplings."""

    def __init__(self, impurities=(), couplings=None):
        imps = sorted(impurities, key=lambda i: i.site)
        sites = [i.site for i in imps]
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate impurity sites: {sites}")
        couplings = {operator.index(x): lam for x, lam in dict(couplings or {}).items()}
        if set(couplings) != set(sites):
            raise ValueError(
                f"couplings must be given for exactly the impurity sites {sites}, "
                f"got {sorted(couplings)}"
            )
        for x, lam in couplings.items():
            lam = float(lam)
            if lam == 0.0 or not np.isfinite(lam):
                raise ValueError(f"impurity coupling at site {x} must be nonzero and finite, got {lam}")
            couplings[x] = lam
        dims = {i.local_dim for i in imps}
        if len(dims) > 1:
            raise ValueError(f"impurities have inconsistent local dimensions {sorted(dims)}")
        self.impurities = tuple(imps)
        self.couplings = couplings

    @classmethod
    def uniform(cls, sites, hermitian_matrix, coupling) -> ImpuritySpec:
        """Same on-site matrix at every listed site; scalar or per-site couplings."""
        sites = list(sites)
        if np.isscalar(coupling):
            couplings = {x: float(coupling) for x in sites}
        else:
            couplings = {x: float(coupling[x]) for x in sites}
        imps = [SiteImpurity.from_hermitian(x, hermitian_matrix) for x in sites]
        return cls(imps, couplings)

    @property
    def sites(self) -> tuple:
        return tuple(i.site for i in self.impurities)

    def is_empty(self) -> bool:
        return not self.impurities

    def has(self, site: int) -> bool:
        return site in self.couplings

    def at(self, site: int) -> SiteImpurity:
        for i in self.impurities:
            if i.site == site:
                return i
        raise KeyError(f"no impurity at site {site}")

    def coupling(self, site: int) -> float:
        return self.couplings[site]

    def coupling_gap_product(self, sites) -> float:
        """prod over the listed sites of |coupling| * eigenvalue gap."""
        out = 1.0
        for x in sites:
            out *= abs(self.coupling(x)) * self.at(x).gap
        return out

    def is_uniform(self) -> bool:
        """Same on-site matrix and same coupling at every impurity site."""
        if len(self.impurities) <= 1:
            return True
        first = self.impurities[0].matrix()
        lam0 = self.couplings[self.impurities[0].site]
        scale = max(float(np.max(np.abs(first))), 1.0)
        for i in self.impurities[1:]:
            if np.max(np.abs(i.matrix() - first)) > UNIFORMITY_TOL * scale:
                return False
            if abs(self.couplings[i.site] - lam0) > UNIFORMITY_TOL * max(abs(lam0), 1.0):
                return False
        return True


def min_spacing(imp: ImpuritySpec) -> float:
    """Smallest distance between two impurity sites; inf for a single site."""
    if imp.is_empty():
        raise ValueError("min_spacing needs at least one impurity site")
    sites = sorted(imp.sites)
    if len(sites) == 1:
        return float("inf")
    return float(min(b - a for a, b in zip(sites, sites[1:])))


def impurity_window(support_a: SiteSupport, support_b: SiteSupport, imp: ImpuritySpec) -> tuple:
    """Impurity sites in [max S_A + 3, min S_B - 3], the ones the bound can exploit."""
    lo = support_a.hi + 3
    hi = support_b.lo - 3
    return tuple(x for x in imp.sites if lo <= x <= hi)


def _chain_sum(terms, geom: ChainGeometry) -> DenseOperator:
    """Add the terms in the order given, each placed by `site_view` straight into the one full-chain matrix."""
    h = np.zeros((geom.total_dim, geom.total_dim), dtype=complex)
    for term in terms:
        geom.check_support(term.support)
        term.validate_dim(geom)
        site_view(h, term.support, geom.full_support, geom.local_dim)[...] += term.matrix
    return DenseOperator(geom.full_support, h)


def build_nn_hamiltonian(phi: NNInteraction, geom: ChainGeometry) -> DenseOperator:
    """Sum of all bond terms, embedded on the full chain."""
    bonds = range(-geom.half_length, geom.half_length)
    return _chain_sum([phi.bond_operator(x) for x in bonds if np.any(phi.bond(x))], geom)


def perturbation_operator(imp: ImpuritySpec, geom: ChainGeometry, exclude: int | None = None) -> DenseOperator:
    """Sum over impurity sites of coupling * on-site matrix, embedded on the chain.

    `exclude` drops one site from the sum, which is the perturbation seen by
    the chain decoupled at that site.
    """
    terms = []
    for i in imp.impurities:
        if i.site == exclude:
            continue
        geom.check_site(i.site)
        if i.local_dim != geom.local_dim:
            raise ValueError(f"impurity at site {i.site} has local dimension {i.local_dim}, chain has {geom.local_dim}")
        terms.append(DenseOperator.single_site(i.site, imp.coupling(i.site) * i.matrix()))
    return _chain_sum(terms, geom)


def build_perturbed_hamiltonian(phi: NNInteraction, imp: ImpuritySpec, geom: ChainGeometry) -> DenseOperator:
    """Full Hamiltonian: bond terms plus coupled impurities, the impurity sum added in place."""
    h = build_nn_hamiltonian(phi, geom)
    h.matrix[...] += perturbation_operator(imp, geom).matrix
    return h


def _check_decoupling_site(imp: ImpuritySpec, site: int, geom: ChainGeometry) -> SiteImpurity:
    if not imp.has(site):
        raise ValueError(f"site {site} carries no impurity; decoupling is defined at impurity sites only")
    lo, hi = -geom.half_length + 2, geom.half_length - 2
    if not (lo <= site <= hi):
        raise SupportError(
            f"decoupling at site {site} needs both touching bonds plus a neighbour on each side; "
            f"site must lie in [{lo}, {hi}]"
        )
    return imp.at(site)


def _projector(impurity: SiteImpurity, j: int, target: SiteSupport, geom: ChainGeometry) -> np.ndarray:
    """The impurity's projector P_j, embedded on `target`."""
    return embed_local(DenseOperator.single_site(impurity.site, impurity.projectors[j]), target, geom).matrix


def _window_terms(phi: NNInteraction, site: int, geom: ChainGeometry):
    """The two bonds touching `site`, as matrices on the window [site-1, site+1]."""
    window = SiteSupport(site - 1, site + 1)
    left, right = (embed_local(phi.bond_operator(x), window, geom).matrix for x in (site - 1, site))
    return left + right


def _window_block(raw: np.ndarray, impurity: SiteImpurity, j: int, k: int, geom: ChainGeometry) -> np.ndarray:
    """P_j raw P_k on the window [site-1, site+1], the projectors acting on its middle site."""
    window = SiteSupport(impurity.site - 1, impurity.site + 1)
    return _projector(impurity, j, window, geom) @ raw @ _projector(impurity, k, window, geom)


def _compressed_bond(phi: NNInteraction, impurity: SiteImpurity, x: int, geom: ChainGeometry) -> DenseOperator:
    """Bond (x, x+1), one end of which is the impurity site, compressed to sum_j P_j (bond) P_j."""
    bond = SiteSupport(x, x + 1)
    sandwich = np.zeros_like(phi.bond(x))
    for j in range(len(impurity.projectors)):
        p = _projector(impurity, j, bond, geom)
        sandwich += p @ phi.bond(x) @ p
    return DenseOperator(bond, sandwich)


def build_decoupled_hamiltonian(phi: NNInteraction, imp: ImpuritySpec, site: int, geom: ChainGeometry) -> DenseOperator:
    """Bond Hamiltonian with the two bonds at `site` compressed to block-diagonal form.

    The returned operator contains no impurity couplings; add
    `perturbation_operator(imp, geom)` to perturb it.  It commutes with the
    on-site impurity matrix at `site` by construction.
    """
    impurity = _check_decoupling_site(imp, site, geom)
    raw = _window_terms(phi, site, geom)
    compressed = sum(_window_block(raw, impurity, j, j, geom) for j in range(geom.local_dim))
    h = build_nn_hamiltonian(phi, geom)
    window = site_view(h.matrix, SiteSupport(site - 1, site + 1), geom.full_support, geom.local_dim)
    window -= raw
    window += compressed
    return h


def decoupled_split(phi: NNInteraction, imp: ImpuritySpec, site: int, geom: ChainGeometry):
    """The decoupled Hamiltonian as a commuting (left, right) pair.

    Left piece: every bond strictly left of `site` plus the compressed bond
    (site-1, site), supported on [-L, site].  Right piece: the compressed
    bond (site, site+1) plus every bond strictly right, supported on
    [site, L].  Both are returned embedded on the full chain; they commute
    and sum to `build_decoupled_hamiltonian`.
    """
    impurity = _check_decoupling_site(imp, site, geom)
    L = geom.half_length
    left = [phi.bond_operator(y) for y in range(-L, site - 1)] + [_compressed_bond(phi, impurity, site - 1, geom)]
    right = [_compressed_bond(phi, impurity, site, geom)] + [phi.bond_operator(y) for y in range(site + 1, L)]
    return _chain_sum(left, geom), _chain_sum(right, geom)


def offdiagonal_block(phi: NNInteraction, imp: ImpuritySpec, site: int, j: int, k: int, geom: ChainGeometry) -> DenseOperator:
    """P_j (bonds at site) P_k for j != k: one off-diagonal transition block.

    These blocks are exactly what the full Hamiltonian has and the decoupled
    one lacks; summed over j != k they reproduce the difference.  Supported
    on [site-1, site+1].
    """
    impurity = _check_decoupling_site(imp, site, geom)
    d = geom.local_dim
    if not (0 <= j < d and 0 <= k < d):
        raise ValueError(f"block indices must lie in [0, {d}), got ({j}, {k})")
    if j == k:
        raise ValueError("off-diagonal block needs j != k; the diagonal blocks stay in the decoupled part")
    raw = _window_terms(phi, site, geom)
    return DenseOperator(SiteSupport(site - 1, site + 1), _window_block(raw, impurity, j, k, geom))


# ---------------------------------------------------------------------------
# model description files

def load_model(path) -> tuple[ChainGeometry, NNInteraction, ImpuritySpec]:
    """Read a chain model from a JSON description file.

    Keys: L (half-length), D (local dimension), then bond terms as either
    `bond_matrix` (one D^2 x D^2 matrix replicated on every bond) or `bonds`
    (map from left bond site to a matrix; may override `bond_matrix`), and an
    optional `impurities` list with entries
    {"site": int, "coupling": float, "hermitian": matrix-or-name} or
    {"site": int, "coupling": float, "eigenvalues": [...], "projectors": [...]}.
    Matrix entries are numbers or [re, im] pairs, rows in row-major site order.
    Unknown keys, at the top level or in an impurity entry, are rejected.
    Errors carry the JSON path of the offending node (or line/column for
    syntax errors).
    """
    path = str(path)
    doc = read_json_object(path, ModelFormatError, ("L", "D", "bond_matrix", "bonds", "impurities"))

    half_length = read_field(doc, "L", INTEGER, path, ModelFormatError)
    local_dim = read_field(doc, "D", INTEGER, path, ModelFormatError)
    try:
        geom = ChainGeometry(half_length, local_dim)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc

    d2 = local_dim ** 2
    uniform = None
    if doc.get("bond_matrix") is not None:
        uniform = read_matrix(doc["bond_matrix"], d2, fmt_path(path, "bond_matrix"), ModelFormatError)
    bonds = {}
    for key, val in read_field(doc, "bonds", OBJECT, path, ModelFormatError, {}).items():
        try:
            x = int(key)
        except ValueError:
            raise ModelFormatError(f"{fmt_path(path, 'bonds')}: key {key!r} is not an integer site") from None
        bonds[x] = read_matrix(val, d2, fmt_path(path, "bonds", key), ModelFormatError)
    try:
        phi = NNInteraction(geom, uniform_bond=uniform, bonds=bonds)
    except (ValueError, SupportError) as exc:
        raise ModelFormatError(f"{fmt_path(path, 'bonds')}: {exc}") from exc

    impurities = []
    couplings = {}
    for i, entry in enumerate(read_field(doc, "impurities", LIST, path, ModelFormatError, [])):
        where = fmt_path(path, "impurities", i)
        check_keys(entry, where, ModelFormatError, ("site", "coupling", "hermitian", "eigenvalues", "projectors"))
        site = read_field(entry, "site", INTEGER, where, ModelFormatError)
        try:
            geom.check_site(site)
        except SupportError as exc:
            raise ModelFormatError(f"{fmt_path(where, 'site')}: {exc}") from exc
        coupling = read_field(entry, "coupling", NUMBER, where, ModelFormatError)
        try:
            if "hermitian" in entry:
                matrix = read_matrix(entry["hermitian"], local_dim, fmt_path(where, "hermitian"), ModelFormatError)
                impurity = SiteImpurity.from_hermitian(site, matrix)
            elif "eigenvalues" in entry or "projectors" in entry:
                evals = read_field(entry, "eigenvalues", NUMBERS, where, ModelFormatError)
                projs = read_field(entry, "projectors", LIST, where, ModelFormatError)
                if len(evals) != local_dim:
                    raise ModelFormatError(f"{fmt_path(where, 'eigenvalues')}: expected {local_dim} numbers")
                if len(projs) != local_dim:
                    raise ModelFormatError(f"{fmt_path(where, 'projectors')}: expected {local_dim} matrices")
                pmats = np.stack([
                    read_matrix(p, local_dim, fmt_path(where, "projectors", j), ModelFormatError)
                    for j, p in enumerate(projs)
                ])
                impurity = SiteImpurity(site, np.array(evals, dtype=float), pmats)
            else:
                raise ModelFormatError(f"{where}: need either 'hermitian' or 'eigenvalues' + 'projectors'")
        except ModelFormatError:
            raise
        except (ValueError, HermiticityError) as exc:
            raise ModelFormatError(f"{where}: {exc}") from exc
        impurities.append(impurity)
        if site in couplings:
            raise ModelFormatError(f"{fmt_path(where, 'site')}: duplicate impurity site {site}")
        couplings[site] = coupling
    try:
        imp = ImpuritySpec(impurities, couplings)
    except ValueError as exc:
        raise ModelFormatError(f"{fmt_path(path, 'impurities')}: {exc}") from exc
    return geom, phi, imp
