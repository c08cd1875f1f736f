"""Check that the working tree's ``src/`` gives the same results as a revision's.

    python3 tools/same_results.py REV

The script extracts ``src/`` of the git revision ``REV`` with ``git
archive`` into a temporary directory.  Then it runs every cell of the
``var_tbb_strength``, ``var_r_strength`` and ``attacker_ratio_5`` presets
at seeds 0-2 twice: once against that copy and once against ``src/`` of
the working tree, one subprocess each, the two at once.  Each run keeps
its session log, and each side prints the SHA-256 digest of each run's
``run(...).to_json()``.  The script compares the digests run by run,
prints how many runs are the same and how many differ, names each run
that differs, and exits 1 on any difference, or 2 when a side fails to
run.  It uses only the standard library.  On a 2-core host it takes
about a minute.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("var_tbb_strength", "var_r_strength", "attacker_ratio_5")
SEEDS = range(3)

# Run in each subprocess: one line per run, its key and its digest.
SIDE = f"""
import hashlib
from wfdsim.cli import build_devices, preset
from wfdsim.learning import SECONDS_PER_DAY
from wfdsim.simulation import run
for name in {PRESETS!r}:
    cfg = preset(name)
    for value in cfg.grid:
        for mode in cfg.modes:
            devices = build_devices(cfg, mode, value)
            for seed in {tuple(SEEDS)!r}:
                result = run(devices, cfg.horizon_days * SECONDS_PER_DAY, seed, log_sessions=True)
                digest = hashlib.sha256(result.to_json().encode()).hexdigest()
                print(name, value, mode.value, seed, digest, flush=True)
"""


def start(src: Path) -> subprocess.Popen:
    # ``python -c`` imports first from its working directory
    return subprocess.Popen([sys.executable, "-c", SIDE], cwd=src, stdout=subprocess.PIPE, text=True)


def digests(side: subprocess.Popen) -> dict[str, str] | None:
    """The digests ``side`` printed by run, or None when it failed."""
    out, _ = side.communicate()
    return dict(line.rsplit(" ", 1) for line in out.splitlines()) if side.returncode == 0 else None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_results.py REV", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", "--format=tar", argv[0], "src"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        sides = [start(Path(tmp) / "src"), start(ROOT / "src")]
        theirs, ours = (digests(side) for side in sides)
    if theirs is None or ours is None:
        print("a side failed to run", file=sys.stderr)
        return 2
    keys = theirs.keys() | ours.keys()
    differ = sorted(key for key in keys if theirs.get(key) != ours.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(keys) - len(differ)} runs the same, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
