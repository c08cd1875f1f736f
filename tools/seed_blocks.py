"""Print the seeded claims of the acceptance gate on several seed blocks.

The gate checks criteria 3 to 7 on seeds 0 to 9 only.  This script takes
each one's measurement from ``tests/test_acceptance.py`` (``SEEDED``) and
runs it on the blocks of ten seeds that start at 0, 10, 20 and 30
(``BLOCKS``), and prints one PASS/FAIL line per claim and block, then the
wall time.  It exits 1 when any line reads FAIL.  Replicating a claim over
independent seed streams is Law, "Simulation Modeling and Analysis", ch. 9.

Run from anywhere, with the standard library only:

    python3 tools/seed_blocks.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import SEEDS, SEEDED, verdict_line  # noqa: E402

BLOCKS = (0, 10, 20, 30)   # the first seed of each block


def main() -> int:
    started = time.perf_counter()
    failed = False
    for number, (label, measure) in SEEDED.items():
        for seed_base in BLOCKS:
            ok, detail = measure(seed_base)
            failed = failed or not ok
            print(f"seeds {seed_base}-{seed_base + SEEDS - 1}: {verdict_line(number, label, ok, detail)}",
                  flush=True)
    print(f"wall time {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
