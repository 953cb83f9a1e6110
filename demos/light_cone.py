"""Light-cone demo: exact commutator growth against the impurity-free bound.

Evolves a single-site observable on a Heisenberg chain and measures
|| [evolved A, B] || for observable pairs at increasing separation.  Inside
the effective light cone the norm saturates near its algebraic maximum
2 ||A|| ||B||; outside it is exponentially small.  The analytic bound
C0 (e^{v|t|} - 1) e^{-mu d} is loose at this scale but never crossed.

Run:  python3 demos/light_cone.py
"""

import numpy as np

from lrchain import (
    ChainGeometry,
    ImpuritySpec,
    LRParameters,
    NNInteraction,
    apriori_bound,
    build_perturbed_hamiltonian,
    heisenberg_bond,
)
from lrchain.dynamics import commutator_norm_table
from lrchain.operators import PAULI, DenseOperator

HALF_LENGTH = 4
MU = 1.0
J = 1.0


def main() -> None:
    geom = ChainGeometry(HALF_LENGTH, 2)
    phi = NNInteraction(geom, bonds={x: heisenberg_bond(J) for x in range(-HALF_LENGTH, HALF_LENGTH)})
    imp = ImpuritySpec.empty()
    h = build_perturbed_hamiltonian(phi, imp, geom)
    params = LRParameters.compute(MU, phi.strength)

    print(f"Heisenberg chain, sites -{HALF_LENGTH}..{HALF_LENGTH}, J = {J}, bond norm {phi.strength:.6g}")
    print(
        f"derived parameters at mu = {MU}: c_mu = {params.c_mu:.6f}, K_mu = {params.K_mu:.6f}, "
        f"C0 = {params.C0:.6f}, v = {params.v:.4f}"
    )
    print()
    print("exact || [tau_t(sz at -x), sz at +x] ||  (bound = C0 (e^{v t} - 1) e^{-mu d}, d = 2x)")
    header = f"{'t':>6} | " + " | ".join(f"d={2 * x:>2}" for x in range(1, HALF_LENGTH + 1))
    print(header)
    print("-" * len(header))
    times = (0.02, 0.05, 0.1, 0.2, 0.4, 0.8)
    scan = tuple(float(t) for t in np.linspace(0.01, 1.0, 25))
    # one table per observable pair over every time below: each pair is
    # rotated into the eigenbasis once
    norms = {}
    for x in range(1, HALF_LENGTH + 1):
        a = DenseOperator.single_site(-x, PAULI["sz"])
        b = DenseOperator.single_site(x, PAULI["sz"])
        row = commutator_norm_table(h, [np.zeros(geom.total_dim)], a, b, geom, times + scan)[0][0]
        norms[x] = dict(zip(times + scan, row))
    for t in times:
        cells = [f"{norms[x][t]:8.2e}" for x in range(1, HALF_LENGTH + 1)]
        print(f"{t:6.2f} | " + " | ".join(cells))
    print()
    print("same grid, analytic bound (valid for any chain with this bond norm):")
    for t in times:
        cells = [f"{apriori_bound(params, t, 2 * x):8.2e}" for x in range(1, HALF_LENGTH + 1)]
        print(f"{t:6.2f} | " + " | ".join(cells))
    print()
    worst = 0.0
    for t in scan:
        for x in range(1, HALF_LENGTH + 1):
            worst = max(worst, norms[x][t] - apriori_bound(params, t, 2 * x))
    print(f"max (exact - bound) over a 25-point time grid and all separations: {worst:.3e}  (<= 0 expected)")


if __name__ == "__main__":
    main()
