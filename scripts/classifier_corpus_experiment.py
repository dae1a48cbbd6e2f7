#!/usr/bin/env python3
"""Cross-validate the certificate classifier against the operator-entanglement oracle.

Runs the full labeled corpus (products, dressed swaps, generics, diagonal
couplings over several dimension pairs), compares the classifier verdict with
the closed-form oracle of ``verify.oracle_non_entangling`` per family, and
prints an agreement table with worst reconstruction errors.
"""

import argparse
import collections
import time

from entkit.classify import Product, SwapForm, classify_unitary, reconstruction_error
from entkit.linalg import DEFAULT_SEED, DEFAULT_TOL, split_seed
from entkit.verify import classifier_corpus, oracle_non_entangling


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    stats = collections.defaultdict(lambda: {"n": 0, "agree": 0, "worst_rec": 0.0})
    start = time.perf_counter()
    for label, d1, d2, u in classifier_corpus(args.seed):
        family = label.split(":", 1)[0]
        form = classify_unitary(u, d1, d2, DEFAULT_TOL, split_seed(args.seed, label))
        oracle = oracle_non_entangling(u, d1, d2, DEFAULT_TOL)
        entry = stats[family]
        entry["n"] += 1
        entry["agree"] += isinstance(form, (Product, SwapForm)) == oracle
        if isinstance(form, (Product, SwapForm)):
            entry["worst_rec"] = max(entry["worst_rec"], reconstruction_error(form, u))
    elapsed = time.perf_counter() - start

    print(f"{'family':14s} {'n':>5s} {'agree':>6s} {'worst reconstruction':>22s}")
    total = agree = 0
    for family, entry in sorted(stats.items()):
        total += entry["n"]
        agree += entry["agree"]
        print(
            f"{family:14s} {entry['n']:5d} {entry['agree']:6d} {entry['worst_rec']:22.3e}"
        )
    print(f"{'all':14s} {total:5d} {agree:6d}   ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
