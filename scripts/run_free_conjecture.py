"""Vanishing check for the free-algebra subcomplex, weight by weight.

For the free algebra on d generators, restricts the tensor boundary to the
subspaces spanned by bracket-independent words and computes homology inside
each weight block.  Expected: H_1 matches the graded free Lie dimension
count and everything above degree 1 vanishes.

Run:  python3 scripts/run_free_conjecture.py [d [W]]
"""

import sys
import time

from leibhom.homology import conjecture_check, weight_budget


def main():
    d = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    w = int(sys.argv[2]) if len(sys.argv) > 2 else None
    t0 = time.perf_counter()
    rep = conjecture_check(d, w)
    dt = time.perf_counter() - t0
    print(f"free algebra on {d} generator(s), weights 1..{rep.max_weight} "
          f"(budget {weight_budget(d)})")
    print(f"{'weight':>6} {'h1':>4} {'expected':>8} {'higher':>20} ok")
    for v in rep.weights:
        print(f"{v.weight:>6} {v.h1:>4} {v.expected_h1:>8} "
              f"{str(list(v.higher)):>20} {'yes' if v.ok else 'NO'}")
    print(f"verdict: {rep.verdict}   ({dt:.2f}s)")
    return 0 if rep.verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
