#!/usr/bin/env python3
"""Profile the entanglement forced along paths to non-entangling couplings.

Sweeps the exponential path to several endpoints and writes one profile CSV
per endpoint. The flip endpoints show the obstruction: the endpoint itself
maps products to products, yet the interior of the path entangles. A path
with a local generator A⊗I + I⊗B stays product everywhere (flat zero
profile); note that the principal-branch path to a Haar product endpoint is
generally not of that kind, so even a product endpoint can force interior
entanglement on this particular path.
"""

import argparse
import os

import numpy as np

from entkit.dynamics import entanglement_profile, geodesic_path, path_from_generator
from entkit.fixtures import cnot, haar_product
from entkit.linalg import (
    DEFAULT_SEED,
    random_hermitian,
    split_seed,
    swap_unitary,
    tensor_product,
)
from entkit.serialize import profile_csv, write_atomic


def paths(seed):
    yield "swap_d2", 2, 2, geodesic_path(swap_unitary(2), 2, 2)
    yield "swap_d3", 3, 3, geodesic_path(swap_unitary(3), 3, 3)
    yield "cnot", 2, 2, geodesic_path(cnot(), 2, 2)
    u, _, _ = haar_product(2, 2, split_seed(seed, "endpoint"))
    yield "haar_product_d2", 2, 2, geodesic_path(u, 2, 2)
    a = random_hermitian(2, split_seed(seed, "gen-a"), scale=np.pi / 2)
    b = random_hermitian(2, split_seed(seed, "gen-b"), scale=np.pi / 2)
    h = tensor_product(a, np.eye(2)) + tensor_product(np.eye(2), b)
    yield "local_generator_d2", 2, 2, path_from_generator(h, 2, 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=64)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out-dir", default="profiles")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for name, d1, d2, path in paths(args.seed):
        probe_init = np.eye(d2)[0]
        profile = entanglement_profile(
            path, probe_init, n_steps=args.steps, seed=args.seed, n_inputs=8
        )
        out = os.path.join(args.out_dir, f"{name}.csv")
        write_atomic(out, profile_csv(profile.points))
        best = profile.max_point()
        print(
            f"{name:18s} peak {best.max_entropy_bits:.4f} bits at t={best.t:.4f} "
            f"({best.maximizing_input_id}), "
            f"interior entangling: {profile.interior_entangling} -> {out}"
        )


if __name__ == "__main__":
    main()
