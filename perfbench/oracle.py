"""Correctness gate: every reported number recomputed by an independent route.

Nothing here calls lrchain.  Hamiltonians are assembled by index arithmetic
instead of Kronecker products, evolution uses `scipy.linalg.expm` instead of
an eigendecomposition, spectral norms are the square root of the top
`eigvalsh` of M^dag M instead of an SVD, partial traces use `einsum`, and
the bound constants are brute-force lattice sums.

Two floating-point routes to an "exact" dense-ED norm agree only down to the
floor of dense ED, which grows with ||H|| |t| ||A|| ||B||.  `agrees` allows
that floor plus a relative 1e-9, so a legitimate reordering of the arithmetic
passes and a wrong value does not.

Each `check_*` returns (units, failures): the number of units the report
holds (grid points, identity checks or realizations) and a list of
(unit index, message) for each unit that disagrees, index -1 for a defect of
the whole report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import string

import numpy as np
from scipy.linalg import expm

EPS = float(np.finfo(float).eps)
FLOOR_FACTOR = 4.0
REL_TOL = 1e-9
BOUND_REL_TOL = 1e-9
VIOLATION_TOL = 1e-9
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
CEILING = 2.0  # largest || [A, B] || for unit-norm A and B

IDENTITY_CHECKS = (
    "decoupled_blocking",
    "commuting_split",
    "offdiagonal_decomposition",
    "phase_conjugation",
    "interpolant_endpoint",
    "interpolant_derivative_fd",
    "interpolant_derivative_richardson",
    "local_projection_inequality",
)


# ---------------------------------------------------------------------------
# dense-ED building blocks


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value as sqrt(top eigenvalue of M^dag M)."""
    top = np.linalg.eigvalsh(m.conj().T @ m)[-1]
    return math.sqrt(max(float(top), 0.0))


def embed_index(m: np.ndarray, first: int, n_sites: int, d: int = 2) -> np.ndarray:
    """`m` acting on sites first.. of an n-site chain, padded by index arithmetic."""
    k = round(math.log(m.shape[0], d))
    left, right = d**first, d ** (n_sites - first - k)
    dim = left * m.shape[0] * right
    out = np.zeros((dim, dim), dtype=complex)
    il, im, jm, ir = np.meshgrid(
        np.arange(left), np.arange(m.shape[0]), np.arange(m.shape[0]), np.arange(right), indexing="ij"
    )
    rows = (il * m.shape[0] + im) * right + ir
    cols = (il * m.shape[0] + jm) * right + ir
    np.add.at(out, (rows.ravel(), cols.ravel()), np.broadcast_to(m[im, jm], rows.shape).ravel())
    return out


def chain_hamiltonian(half: int, bonds: dict, fields: dict) -> np.ndarray:
    """Sum of bond matrices (keyed by left site) and on-site matrices (keyed by site)."""
    n = 2 * half + 1
    h = sum(embed_index(m, x + half, n) for x, m in bonds.items())
    for x, m in fields.items():
        h = h + embed_index(m, x + half, n)
    return h


def floor_slack(h_norm: float, t: float, scale: float, dim: int) -> float:
    """Absolute disagreement two dense-ED routes may show: the float64 floor."""
    return FLOOR_FACTOR * EPS * dim * (h_norm * abs(t) + 1.0) * scale


def agrees(reported: float, oracle: float, slack: float, ceiling: float, rel: float = REL_TOL) -> bool:
    """Equal up to the floor; once the floor passes `ceiling`, the largest value
    the quantity can take, float64 resolves nothing and only the range is checked."""
    if slack >= ceiling:
        return 0.0 <= reported <= ceiling * (1.0 + rel)
    return abs(reported - oracle) <= slack + rel * abs(oracle)


def charge_sectors(h: np.ndarray) -> list:
    """Index sets of fixed total S^z that H does not mix, or one set if it mixes them.

    Heisenberg bonds and z-fields conserve the number of up spins, so their
    Hamiltonian is block diagonal in the computational basis grouped by bit
    count; splitting there is exact, not an approximation.
    """
    ups = np.array([bin(i).count("1") for i in range(h.shape[0])])
    if np.any(h[ups[:, None] != ups[None, :]]):
        return [np.arange(h.shape[0])]
    return [np.flatnonzero(ups == k) for k in np.unique(ups)]


def propagators(h: np.ndarray, times):
    """e^{itH} for each time; a grid t_k = (k + 1) t_0 costs one expm and a product per point."""
    if not times:
        return
    step = expm(1j * times[0] * h)
    if all(abs(t - (k + 1) * times[0]) <= 1e-12 * abs(t) for k, t in enumerate(times)):
        w = step
        for _ in times:
            yield w
            w = w @ step
    else:
        for t in times:
            yield expm(1j * t * h)


def edge_commutator_norms(h: np.ndarray, a_site: int, b_site: int, n_sites: int, times) -> tuple:
    """(||H||, [|| [e^{itH} A e^{-itH}, B] || per time]) for sz observables A, B.

    A and B are diagonal, so both keep H's charge sectors and the commutator
    norm is the largest over sectors; each sector is evolved by expm.  A time
    whose floor exceeds CEILING gets None: float64 cannot resolve it, and
    expm at such ||H|| |t| overflows.
    """
    a = np.diag(embed_index(PAULI_Z, a_site, n_sites)).real
    b = np.diag(embed_index(PAULI_Z, b_site, n_sites)).real
    sectors = [(idx, h[np.ix_(idx, idx)]) for idx in charge_sectors(h)]
    h_norm = max(float(np.max(np.abs(np.linalg.eigvalsh(block)))) for _, block in sectors)
    resolved = [t for t in times if floor_slack(h_norm, t, 1.0, h.shape[0]) < CEILING]
    norms = dict.fromkeys(resolved, 0.0)
    for idx, block in sectors:
        ai, bi = a[idx], b[idx]
        for t, w in zip(resolved, propagators(block, resolved)):
            evolved = (w * ai[None, :]) @ w.conj().T
            norms[t] = max(norms[t], spectral_norm(evolved * (bi[None, :] - bi[:, None])))
    return h_norm, [norms.get(t) for t in times]


def partial_trace_embed(m: np.ndarray, n_sites: int, keep: set, d: int = 2) -> np.ndarray:
    """Normalized trace over the sites not in `keep`, tensored back with identities."""
    letters = string.ascii_lowercase
    row = list(letters[:n_sites])
    col = list(letters[n_sites : 2 * n_sites])
    for site in range(n_sites):
        if site not in keep:
            col[site] = row[site]
    kept = sorted(keep)
    spec = "".join(row + col) + "->" + "".join(row[s] for s in kept) + "".join(col[s] for s in kept)
    block = np.einsum(spec, m.reshape((d,) * (2 * n_sites)))
    block = block.reshape(d ** len(kept), d ** len(kept)) / d ** (n_sites - len(kept))
    return embed_index(block, kept[0], n_sites, d)


# ---------------------------------------------------------------------------
# bound constants by brute-force lattice sums


def lattice_constants(mu: float, phi_norm: float, local_dim: int = 2) -> dict:
    x = np.arange(-200, 201, dtype=float)
    c_mu = float(np.sum(np.exp(-mu * np.abs(x)) / (1.0 + np.abs(x)) ** 2))
    n = np.arange(0, 301, dtype=float)[:, None]
    z = np.arange(-300, 301, dtype=float)[None, :]
    terms = np.exp(-mu * (np.abs(z) + np.abs(n - z) - n)) * (1.0 + n) ** 2
    terms /= (1.0 + np.abs(z)) ** 2 * (1.0 + np.abs(n - z)) ** 2
    k_mu = float(np.max(np.sum(terms, axis=1)))
    c0 = 10.0 * c_mu / k_mu
    pairs = local_dim * (local_dim - 1) // 2
    main = 444.0 * c0**2 * math.exp(5.0 * mu) / (mu * (1.0 - math.exp(-mu))) * phi_norm * pairs**2
    return {"C0": c0, "v": 8.0 * math.exp(mu) * k_mu * phi_norm, "mu": mu, "main_constant": main}


def _close(reported: float, expected: float) -> bool:
    return abs(reported - expected) <= BOUND_REL_TOL * abs(expected)


# ---------------------------------------------------------------------------
# per-entry-call checks


def _rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _parse_matrix(node) -> np.ndarray:
    return np.array([[complex(*v) if isinstance(v, list) else v for v in row] for row in node], dtype=complex)


def check_verify(config: dict, model: dict, csv_text: str) -> tuple:
    half = model["L"]
    n = 2 * half + 1
    bond = _parse_matrix(model["bond_matrix"])
    (imp,) = model["impurities"]
    coupling, site = imp["coupling"], imp["site"]
    field = coupling * _parse_matrix(imp["hermitian"])
    gap = 2.0  # sz impurity: eigenvalues +-1
    h = chain_hamiltonian(half, {x: bond for x in range(-half, half)}, {site: field})
    times = [float(t) for t in config["t_grid"]]
    h_norm, exact = edge_commutator_norms(h, 0, n - 1, n, times)

    k = lattice_constants(config["mu"], spectral_norm(bond))
    mu, v, c0, cm = k["mu"], k["v"], k["C0"], k["main_constant"]
    d = 2 * half
    reach = min(abs((site - 3) - half), abs((site + 3) + half))
    failures = []
    rows = _rows(csv_text)
    if len(rows) != len(times):
        return len(times), [(-1, f"{len(rows)} rows for {len(times)} grid times")]
    for i, (row, t, ref) in enumerate(zip(rows, times, exact)):
        vt = v * t
        expected = {
            "apriori": c0 * math.expm1(vt) * math.exp(-mu * d),
            "main": cm / (coupling * gap) * vt * math.exp(vt) * mu * d * math.exp(-mu * d),
            "corollary": cm / gap * mu * d * (1.0 + vt) / coupling * math.exp(vt) * math.exp(-mu * d),
            "single_impurity": cm / (coupling * gap) * vt * math.exp(vt) * mu * reach * math.exp(-mu * d),
        }
        problems = []
        if float(row["t"]) != t or int(row["dAB"]) != d or int(row["N"]) != 1:
            problems.append("grid point or geometry columns")
        value = float(row["exact_norm"])
        if not agrees(value, ref, floor_slack(h_norm, t, 1.0, h.shape[0]), CEILING):
            problems.append(f"exact_norm {value!r} vs independent {ref!r}")
        for name, want in expected.items():
            got = float(row[name])
            if not _close(got, want):
                problems.append(f"{name} {got!r} vs independent {want!r}")
            if name != "apriori" and row[f"{name}_applicable"] != "true":
                problems.append(f"{name} marked not applicable")
            if value > got + VIOLATION_TOL:
                problems.append(f"exact norm above the {name} bound")
        if problems:
            failures.append((i, f"t={t}: " + "; ".join(problems)))
    return len(times), failures


_LHS = re.compile(r"= (\S+) vs eps \* norm = (\S+) on")


def check_identities(config: dict, model: dict, csv_text: str, report_doc: dict) -> tuple:
    half = model["L"]
    n = 2 * half + 1
    bonds = {int(x): _parse_matrix(m) for x, m in model["bonds"].items()}
    (imp,) = model["impurities"]
    h = chain_hamiltonian(half, bonds, {imp["site"]: imp["coupling"] * _parse_matrix(imp["hermitian"])})
    failures = []
    rows = _rows(csv_text)
    names = [r["check"] for r in rows]
    if names != list(IDENTITY_CHECKS):
        return len(IDENTITY_CHECKS), [(-1, f"checks {names}")]
    for i, row in enumerate(rows):
        if row["status"] != "pass" or float(row["residual"]) > float(row["threshold"]):
            failures.append((i, f"{row['check']}: status {row['status']}, residual {row['residual']}"))

    # ||(id - E_keep)(tau_t(A))||, keep = the observable's site and its right neighbour
    t = max(abs(float(s)) for s in config["t_grid"])
    detail = report_doc["checks"][IDENTITY_CHECKS.index("local_projection_inequality")]["detail"]
    match = _LHS.search(detail)
    w = expm(1j * t * h)
    a = embed_index(PAULI_Z, 0, n)
    evolved = w @ a @ w.conj().T
    lhs = spectral_norm(evolved - partial_trace_embed(evolved, n, {0, 1}))
    i = IDENTITY_CHECKS.index("local_projection_inequality")
    if match is None:
        failures.append((i, f"unparsed detail {detail!r}"))
    else:
        got, eps_norm = float(match.group(1)), float(match.group(2))
        if not agrees(got, lhs, floor_slack(spectral_norm(h), t, 1.0, h.shape[0]), CEILING):
            failures.append((i, f"||(id - E)(A_t)|| {got!r} vs independent {lhs!r}"))
        if eps_norm + 1e-9 < lhs:
            failures.append((i, f"eps * norm {eps_norm!r} below independent {lhs!r}"))
    return len(IDENTITY_CHECKS), sorted(set(failures))


MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def check_disorder(config: dict, csv_text: str, report_doc: dict) -> tuple:
    mu, j, a, b, half = config["mu"], config["J"], config["a"], config["b"], config["L"]
    count = config["n_realizations"]
    times = [float(t) for t in config["t_grid"]]
    n = 2 * half + 1
    spacing = math.ceil(max(1.0 / mu, 2.0))
    event_sites = [x for x in range(-half - 3, half + 4) if x % spacing == 0]
    field_sites = [x for x in event_sites if -half <= x <= half]
    k = lattice_constants(mu, 3.0 * j)
    epsilon = k["main_constant"] * (1.0 + k["v"] * max(times)) * n
    decay = math.exp(-2.0 * mu * half) * math.exp(-(n ** (1.0 - b)) * math.log(n))
    bounds = {t: math.exp(k["v"] * t) * decay for t in times}
    bond = j * np.array([[-1, 0, 0, 0], [0, 1, -2, 0], [0, -2, 1, 0], [0, 0, 0, -1]], dtype=complex)
    bare = chain_hamiltonian(half, {x: bond for x in range(-half, half)}, {})
    z_diag = {x: np.diag(embed_index(PAULI_Z, x + half, n)).real for x in field_sites}

    failures = []
    if not _close(report_doc["epsilon"], epsilon):
        failures.append((-1, f"epsilon {report_doc['epsilon']!r} vs independent {epsilon!r}"))
    rows = _rows(csv_text)
    if len(rows) != count * len(times):
        return count, failures + [(-1, f"{len(rows)} rows for {count} realizations")]
    for r in range(count):
        child = splitmix64(config["seed"], r)
        u = np.random.Generator(np.random.Philox(key=child)).random(len(event_sites))
        fields = dict(zip(event_sites, (1.0 - u) ** (-1.0 / a)))
        event = sum(fields[x] >= epsilon * n for x in event_sites) >= n ** (1.0 - b)
        h = bare + np.diag(sum(fields[x] * z_diag[x] for x in field_sites)).astype(complex)
        h_norm, exact = edge_commutator_norms(h, 0, n - 1, n, times)
        problems = []
        for ti, (t, ref) in enumerate(zip(times, exact)):
            row = rows[r * len(times) + ti]
            if int(row["realization"]) != r or int(row["seed_child"]) != child or float(row["t"]) != t:
                problems.append("realization, child seed or time column")
            if row["event"] != ("true" if event else "false"):
                problems.append(f"event flag {row['event']}")
            value = float(row["exact_norm"])
            if not agrees(value, ref, floor_slack(h_norm, t, 1.0, h.shape[0]), CEILING):
                problems.append(f"exact_norm {value!r} vs independent {ref!r}")
            if not _close(float(row["bound"]), bounds[t]):
                problems.append(f"bound {row['bound']} vs independent {bounds[t]!r}")
            applicable = event and 2 * half >= 7
            violated = applicable and value > bounds[t] + VIOLATION_TOL
            if row["applicable"] != ("true" if applicable else "false") or row["violated"] != (
                "true" if violated else "false"
            ):
                problems.append("applicable/violated flags")
        if problems:
            failures.append((r, f"realization {r}: " + "; ".join(problems)))
    return count, failures


def check(kind: str, workdir: str, csv_text: str, json_text: str) -> tuple:
    """Dispatch on the entry kind; inputs are read back from the workload's files."""
    with open(f"{workdir}/config.json") as fh:
        config = json.load(fh)
    report_doc = json.loads(json_text)
    if kind == "disorder":
        return check_disorder(config, csv_text, report_doc)
    with open(f"{workdir}/model.json") as fh:
        model = json.load(fh)
    if kind == "verify":
        return check_verify(config, model, csv_text)
    return check_identities(config, model, csv_text, report_doc)
