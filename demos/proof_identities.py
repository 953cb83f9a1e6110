"""Identity-suite demo: the algebraic skeleton of the impurity-improved bound.

Builds a random-bond chain with one strong impurity and replays the exact
identities the improved commutator bound rests on:

  * decoupling the chain at the impurity site makes the two halves commute,
    so opposite-side observables stay commuting under the decoupled flow;
  * the decoupled generator splits into commuting left/right halves;
  * the difference between the full and decoupled generators is a sum of
    transition blocks between impurity eigenspaces;
  * the removed on-site coupling acts on each block as a pure phase;
  * the interpolating double commutator connecting full and decoupled
    evolutions vanishes at the endpoint s = t, and its analytic s-derivative
    matches a central finite difference.

Each check prints its residual and threshold.  Run:

    python3 demos/proof_identities.py
"""

import sys

import numpy as np

from lrchain import ExperimentConfig, ImpuritySpec, NNInteraction, run_identities
from lrchain.geometry import ChainGeometry
from lrchain.harness import ObservableSpec
from lrchain.operators import PAULI

HALF_LENGTH = 3
COUPLING = 5.0
SEED = 2024


def random_bonds(geom: ChainGeometry, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    bonds = {}
    for x in range(-geom.half_length, geom.half_length):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = 0.5 * (m + m.conj().T)
        bonds[x] = m / np.linalg.norm(m, 2)
    return bonds


def main() -> int:
    geom = ChainGeometry(HALF_LENGTH, 2)
    phi = NNInteraction(geom, bonds=random_bonds(geom, SEED))
    imp = ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), COUPLING)
    cfg = ExperimentConfig(
        geom,
        phi,
        imp,
        1.0,
        ObservableSpec(-HALF_LENGTH, np.array(PAULI["sz"]), "sz"),
        ObservableSpec(HALF_LENGTH, np.array(PAULI["sz"]), "sz"),
        (0.25, 0.5),
    )
    print(
        f"chain -{HALF_LENGTH}..{HALF_LENGTH}, random unit-norm bonds (seed {SEED}), "
        f"impurity diag(1,-1) at site 0 with coupling {COUPLING}"
    )
    print()
    report = run_identities(cfg)
    for line in report.summary_lines():
        print(line)
    print()
    print(f"all checks passed: {report.ok}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
