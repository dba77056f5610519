#!/usr/bin/env python3
"""Survey the enumeration: structure counts by two independent methods.

Exits 1 when the two methods disagree on any carrier size.
"""

import sys
import time

from preord.oracle import enumerate_preorders, enumerate_preorders_by_closure


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
        ok = by_closure == len(preorders)
        failed |= not ok
        agreement = "ok" if ok else "MISMATCH"
        print(f"{n:>2} {len(preorders):>10} {posets:>8} {equivalences:>13} "
              f"{by_closure:>10} {agreement} {elapsed:>7.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
