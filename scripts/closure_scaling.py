"""Run the closure at sizes the tier-1 tests never reach, and check it.

For each (dim, depth) case, runs ``detect_paradox(diagonal_family(dim),
depth)`` and prints how many projectors the closure stored and how long
the call took.  The family is logical and classical, so every verdict
must be "no paradox", and the stored counts are fixed by the family: a
closure that stores more or fewer entries, or finds a paradox, exits 1.

Usage: PYTHONPATH=src python scripts/closure_scaling.py
"""

import time

from ppscontext.generate import diagonal_family
from ppscontext.paradox import detect_paradox

#: (dim, depth, stored projectors) of each case.
CASES = ((10, 2, 732), (12, 2, 1432), (10, 3, 1022))


def run(cases=CASES) -> int:
    failed = 0
    for dim, depth, want in cases:
        start = time.perf_counter()
        verdict = detect_paradox(diagonal_family(dim), depth)
        seconds = time.perf_counter() - start
        stored = len(verdict.assignment)
        ok = stored == want and verdict.is_logical and not verdict.is_paradox
        failed += not ok
        outcome = "paradox" if verdict.is_paradox else "no paradox"
        print(
            f"d={dim} depth={depth}: {stored} stored (want {want}), {outcome}, "
            f"{seconds:.3f} s{'' if ok else '  FAILED'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(run())
