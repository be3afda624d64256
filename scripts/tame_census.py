#!/usr/bin/env python3
"""Census of tame modules at small rank: classification data and dimensions.

Usage: python3 scripts/tame_census.py B:2:2 --max-size 6
"""

import argparse
import sys

from ospchar import Algebra, is_tame, kw_character
from ospchar.hook import hook_partitions
from ospchar.rootdata import root_str


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("algebra", help="B:m:n or D:m:n")
    parser.add_argument("--max-size", type=int, default=6)
    args = parser.parse_args()

    alg = Algebra.parse(args.algebra)
    print(f"# {alg.osp_name()}  hook partitions with |lambda| <= {args.max_size}")
    print(f"{'lambda':<22}{'k':>3}{'tame':>6}{'j':>4}{'dim':>10}  T")
    total = tame_count = 0
    for lam in hook_partitions(alg.n, alg.m, args.max_size):
        rep = is_tame(lam, alg)
        total += 1
        if rep.tame:
            tame_count += 1
            cr = kw_character(lam, alg)
            ts = ",".join(map(root_str, cr.T_used))
            print(f"{str(lam):<22}{rep.atypicality_k:>3}{'yes':>6}{rep.j_lambda:>4}"
                  f"{cr.dimension:>10}  {{{ts}}}")
        else:
            print(f"{str(lam):<22}{rep.atypicality_k:>3}{'no':>6}{'-':>4}{'-':>10}")
    print(f"# {tame_count}/{total} tame")
    return 0


if __name__ == "__main__":
    sys.exit(main())
