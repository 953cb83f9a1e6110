"""Crossover demo: where the impurity-improved bound beats the impurity-free one.

For one impurity between the observables the improved bound carries a
factor  constant / (|coupling| * gap)  in exchange for a slightly different
time/space profile.  The ratio improved / impurity-free is bounded below by

    constant * mu * d / (C0 * |coupling| * gap),

so the improvement is a large-coupling statement: on an L = 4 Heisenberg
chain (J = 1, mu = 1, gap 2) the crossover coupling is a few 1e6.  This
script scans couplings, locates the crossover, and then lets the
verification harness find and report the improvement points at a coupling
safely past it.

Run:  python3 demos/improvement_crossover.py
"""

import numpy as np

from lrchain import (
    ChainGeometry,
    ImpuritySpec,
    LRParameters,
    NNInteraction,
    apriori_bound,
    heisenberg_bond,
    main_bound,
    main_constant,
    run_verify,
)
from lrchain.geometry import SiteSupport
from lrchain.harness import ExperimentConfig, ObservableSpec
from lrchain.operators import PAULI

HALF_LENGTH = 4
MU = 1.0
GAP = 2.0


def main() -> None:
    geom = ChainGeometry(HALF_LENGTH, 2)
    phi = NNInteraction(geom, bonds={x: heisenberg_bond(1.0) for x in range(-HALF_LENGTH, HALF_LENGTH)})
    params = LRParameters.compute(MU, phi.strength)
    constant = main_constant(params, 2)
    d = 2 * HALF_LENGTH
    sup_a, sup_b = SiteSupport.single(-HALF_LENGTH), SiteSupport.single(HALF_LENGTH)
    t = 1.0 / params.v  # v*t = 1, where the ratio is near its floor

    print(f"improved-bound constant = {constant:.6e}, C0 = {params.C0:.6f}, v = {params.v:.4f}")
    floor_coupling = constant * d / (params.C0 * GAP)
    print(f"analytic crossover coupling  constant * d / (C0 * gap) = {floor_coupling:.4e}")
    print("(that floor is the t -> 0 limit; at v*t = 1 the ratio carries an extra factor e/(e-1) ~ 1.58)")
    print()
    print(f"{'coupling':>12} | {'improved':>12} | {'impurity-free':>13} | {'ratio':>10}")
    for coupling in (1e2, 1e4, 1e6, floor_coupling, 1e7, 1e8, 1e9):
        imp = ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), coupling)
        improved = main_bound(params, 2, sup_a, sup_b, imp, t).value
        baseline = apriori_bound(params, t, d)
        marker = "  <- improved wins" if improved < baseline else ""
        print(
            f"{coupling:12.4e} | {improved:12.4e} | {baseline:13.4e} | "
            f"{improved / baseline:10.3e}{marker}"
        )
    print()

    coupling = 1e8
    print(f"harness run at coupling {coupling:.0e} (times around 1/v):")
    cfg = ExperimentConfig(
        geom,
        phi,
        ImpuritySpec.uniform([0], np.diag([1.0, -1.0]), coupling),
        MU,
        ObservableSpec(-HALF_LENGTH, np.array(PAULI["sz"]), "sz"),
        ObservableSpec(HALF_LENGTH, np.array(PAULI["sz"]), "sz"),
        tuple(float(x) for x in np.linspace(0.2 / params.v, 5.0 / params.v, 8)),
        bound_set=("apriori", "main"),
    )
    report = run_verify(cfg)
    for line in report.summary_lines():
        print(line)


if __name__ == "__main__":
    main()
