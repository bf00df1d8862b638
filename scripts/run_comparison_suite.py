"""Tensor complex vs enveloping-algebra complex across the standard corpus.

Builds the degree-1-product projection for each algebra of tests/corpus.py
and coefficient system, verifies it is a chain map, and prints the induced
maps' behaviour in low degrees.

Run:  python3 scripts/run_comparison_suite.py [N]
"""

import sys
from pathlib import Path

from leibhom.homology import ce_projection, trivial_coefficients
from leibhom.leibcore import lie_quotient

# the corpus the test suite shares
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from corpus import CORPUS, character_module, quotient_adjoint_module  # noqa: E402


def coefficient_systems(g):
    yield "trivial", trivial_coefficients()
    qdata = lie_quotient(g)
    for name, mod in (("ad(g_Lie)", quotient_adjoint_module(qdata)),
                      ("character", character_module(qdata))):
        if mod is not None:
            yield name, mod


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    bad = []
    for gname, g in CORPUS.items():
        for cname, coeffs in coefficient_systems(g):
            _, _, rep = ce_projection(g, coeffs, n)
            verdicts = [rep.h0_iso, rep.h1_iso,
                        rep.hl2_to_h2_surjective, rep.h2_to_hl2_injective]
            flat = " ".join("-" if v is None else ("ok" if v else "NO")
                            for v in verdicts)
            print(f"{gname:>9} {cname:>10}  tensor {list(rep.loday_homology)} "
                  f"envelope {list(rep.ce_homology)}  "
                  f"[h0 h1 onto2 into2] {flat}")
            if any(v is False for v in verdicts):
                bad.append((gname, cname))
    if bad:
        print("FAILED:", bad)
        return 1
    print("all comparison verdicts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
