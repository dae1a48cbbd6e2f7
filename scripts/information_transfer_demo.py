#!/usr/bin/env python3
"""Compare what different couplings let a probe learn about the object.

For one pointer POVM and probe state, evaluates the induced object observable
under three couplings: identity (nothing happens), a Haar product coupling
(the object is disturbed but the induced observable is trivial, so the
pointer statistics carry no information), and the flip coupling (the induced
observable equals the pointer itself: full transfer). Prints the triviality
deviation and the disturbance of a sample state for each.
"""

import argparse

import numpy as np

from entkit.bipartite import DensityOperator
from entkit.fixtures import haar_product, random_povm
from entkit.linalg import DEFAULT_SEED, random_state, split_seed, swap_unitary
from entkit.measurement import (
    MeasurementScheme,
    disturbance,
    measured_observable,
    outcome_probabilities,
    triviality_deviation,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    d = args.dim
    pointer = random_povm(d, 2, split_seed(args.seed, "pointer"))
    phi0 = random_state(d, split_seed(args.seed, "probe"))
    product_coupling, _, _ = haar_product(d, d, split_seed(args.seed, "coupling"))
    couplings = [
        ("identity", np.eye(d * d)),
        ("haar product", product_coupling),
        ("flip", swap_unitary(d)),
    ]
    state_a = random_state(d, split_seed(args.seed, "state-a"))
    state_b = random_state(d, split_seed(args.seed, "state-b"))

    print(f"pointer: {len(pointer.outcomes)} outcomes on dim {d}")
    print(f"{'coupling':14s} {'trivial dev':>12s} {'disturbance':>12s}  p(state A) vs p(state B)")
    for name, u in couplings:
        scheme = MeasurementScheme(d, d, phi0, u, pointer)
        induced = measured_observable(scheme)
        dev = triviality_deviation(induced)
        dist = disturbance(scheme, DensityOperator.from_pure(state_a))
        pa = outcome_probabilities(scheme, state_a)
        pb = outcome_probabilities(scheme, state_b)
        print(
            f"{name:14s} {dev:12.3e} {dist:12.3e}  "
            f"{np.round(pa, 4).tolist()} vs {np.round(pb, 4).tolist()}"
        )
    print(
        "\nidentical distributions for different states mean the pointer learned "
        "nothing; the flip copies the pointer statistics exactly."
    )


if __name__ == "__main__":
    main()
