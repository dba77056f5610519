#!/usr/bin/env python3
"""Survey the enumeration: structure counts by two independent methods.

Exits 1 when the two methods disagree on any carrier size, or when a
count differs from its published value.
"""

import sys
import time

from preord.oracle import enumerate_preorders, enumerate_preorders_by_closure

# preorders, posets and equivalences on n = 0..4 labelled points:
# OEIS A000798, A001035 and A000110
PUBLISHED = [(1, 1, 1), (1, 1, 1), (4, 3, 2), (29, 19, 5), (355, 219, 15)]


def main() -> int:
    print(f"{'n':>2} {'preorders':>10} {'posets':>8} {'equivalences':>13} "
          f"{'closure method':>15} {'seconds':>8}")
    failed = False
    for n in range(5):
        started = time.monotonic()
        preorders = list(enumerate_preorders(n))
        posets = sum(1 for p in preorders if p.is_partial_order())
        equivalences = sum(1 for p in preorders if p.is_equivalence())
        by_closure = len(enumerate_preorders_by_closure(n))
        elapsed = time.monotonic() - started
        counts = (len(preorders), posets, equivalences)
        ok = by_closure == len(preorders) and counts == PUBLISHED[n]
        failed |= not ok
        agreement = "ok" if ok else "MISMATCH"
        print(f"{n:>2} {len(preorders):>10} {posets:>8} {equivalences:>13} "
              f"{by_closure:>10} {agreement} {elapsed:>7.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
