#!/usr/bin/env python3
"""Trace the key-form chain of one germ, level by level.

Prints every form of the full chain with its pole order (the degree of
the substituted series, which is keyed by semidegrees) and whether the
essential subsequence keeps it; then the verdict of the decision pipeline.
Useful when a chain does something surprising and the one-line CLI answer
is not enough.

Example:
    python3 scripts/chain_trace.py --series "u^(3/5) + u^2" --r 8
"""

import argparse
import sys

from germcontract import (
    essential_key_forms,
    format_puiseux,
    generic_dps_from_curve,
    is_algebraic,
    is_polynomial,
    local_to_degreewise,
    parse_puiseux,
    semidegree_eval,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--series", required=True, help='local series, e.g. "u^(3/5) + u^2"')
    ap.add_argument("--r", type=int, required=True, help="number of extra blow-ups")
    args = ap.parse_args(argv)

    curve = parse_puiseux(args.series)
    g = generic_dps_from_curve(local_to_degreewise(curve), args.r)
    keys = essential_key_forms(g, want_all=True)

    print(f"germ: {format_puiseux(curve)}   r = {args.r}")
    print(f"generic series exponents: "
          + ", ".join(str(e) for e in g.formal_exponents()))
    print(f"formal pairs: {g.formal_pairs}   polydromy: {g.cumulative_p()[-1]}")
    print()

    for j, f in enumerate(keys.all_forms):
        tags = []
        tags.append("essential" if f in keys.forms else "absorbed")
        if not is_polynomial(f):
            tags.append("negative x-power")
        print(f"g_{j} = {f.format()}")
        print(f"      pole order {semidegree_eval(f, g)}  [{', '.join(tags)}]")
    print()
    print("essential chain: " + "; ".join(f.format() for f in keys.forms))
    print("pole orders: " + ", ".join(str(w) for w in keys.omegas))
    print("alphas: " + ", ".join(str(a) for a in keys.alphas))

    rep = is_algebraic(curve, args.r)
    if not rep.contractible:
        print("verdict: not contractible")
    elif rep.algebraic:
        print("verdict: contractible, algebraic")
        print(f"witness curve: {rep.witness_curve.format()} = 0 "
              f"in P{tuple(rep.wp_weights)}")
    else:
        print("verdict: contractible, no algebraic contraction for this curve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
