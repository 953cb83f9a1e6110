"""The benchmark's workloads: seeded input files for lrchain's three entry calls.

Each workload writes the model/config JSON files the `lrchain` command line
would read, derived only from the seed, and names the entry call and thread
count that consume them.  Why each workload exists is recorded in
BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

SZ = [[1, 0], [0, -1]]
SEED_LIMIT = 1 << 64

VERIFY_L = 4
VERIFY_COUPLING = 50.0
VERIFY_JITTER = 0.05  # the seed moves the coupling within 50 +- 0.05
VERIFY_TIMES = tuple(2.0 * k / 41 for k in range(1, 42))
VERIFY_BOUNDS = ["apriori", "main", "corollary", "single_impurity"]

IDENTITIES_L = 3
IDENTITIES_COUPLING = 5.0
IDENTITIES_TIMES = (0.25, 0.5)

DISORDER = {"mu": 1.0, "J": 1.0, "a": 0.25, "b": 0.5, "L": 3, "n_realizations": 200, "t_grid": [0.5]}


# Runnable by name but not listed in BENCHMARK.json: all listed workloads
# share one run length under a fixed time budget, and three of them leave
# each run long enough for a steady median.  It is the threads=1 control for
# disorder-L3-mt; that workload's byte-stability check runs its inputs at
# threads=1 anyway.
UNLISTED = ("disorder-L3",)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify", "identities" or "disorder"
    threads: int


def workloads() -> dict:
    items = [
        Workload("verify-L4", "verify", 1),
        Workload("identities-L3", "identities", 1),
        Workload("disorder-L3", "disorder", 1),
        Workload("disorder-L3-mt", "disorder", len(os.sched_getaffinity(0))),
    ]
    return {w.name: w for w in items}


def heisenberg_bond(j: float) -> np.ndarray:
    """-J (sx sx + sy sy + sz sz), written out entrywise."""
    return -j * np.array(
        [[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex
    )


def random_unit_bonds(half_length: int, seed: int) -> dict:
    """Random Hermitian bonds of unit spectral norm, as in demos/proof_identities.py."""
    rng = np.random.default_rng(seed)
    bonds = {}
    for x in range(-half_length, half_length):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = 0.5 * (m + m.conj().T)
        bonds[x] = m / np.linalg.norm(m, 2)
    return bonds


def verify_coupling(seed: int) -> float:
    u = np.random.default_rng(seed).random()
    return VERIFY_COUPLING + VERIFY_JITTER * (2.0 * u - 1.0)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def write_inputs(w: Workload, seed: int, workdir: str) -> str:
    """Write the input files for one workload; returns the config path."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    os.makedirs(workdir, exist_ok=True)
    config = os.path.join(workdir, "config.json")
    if w.kind == "disorder":
        return _write(config, dict(DISORDER, seed=seed))
    if w.kind == "verify":
        half, times, bounds = VERIFY_L, VERIFY_TIMES, VERIFY_BOUNDS
        model = {
            "L": half,
            "D": 2,
            "bond_matrix": _matrix_json(heisenberg_bond(1.0)),
            "impurities": [{"site": 0, "coupling": verify_coupling(seed), "hermitian": SZ}],
        }
    else:
        half, times, bounds = IDENTITIES_L, IDENTITIES_TIMES, ["apriori", "main"]
        bonds = random_unit_bonds(half, seed)
        model = {
            "L": half,
            "D": 2,
            "bonds": {str(x): _matrix_json(m) for x, m in bonds.items()},
            "impurities": [{"site": 0, "coupling": IDENTITIES_COUPLING, "hermitian": SZ}],
        }
    _write(os.path.join(workdir, "model.json"), model)
    return _write(
        config,
        {
            "model": "model.json",
            "mu": 1.0,
            "observable_a": {"site": -half, "op": "sz"},
            "observable_b": {"site": half, "op": "sz"},
            "t_grid": list(times),
            "bounds": bounds,
            "out": "report",
            "seed": seed,
        },
    )
