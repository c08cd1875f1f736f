"""Check that the working tree's ``src/`` gives the same results as before.

    python3 tools/same_results.py REV        # against src/ of git revision REV
    python3 tools/same_results.py --check    # against the committed manifest
    python3 tools/same_results.py --write    # rewrite the manifest from src/

Each mode runs every cell of the ``var_tbb_strength``, ``var_r_strength``
and ``attacker_ratio_5`` presets at seeds 0-2 against ``src/`` of the
working tree, in one subprocess.  Each run keeps its session log, and the
subprocess prints one line per run: preset, grid value, mode, seed and the
SHA-256 digest of ``run(...).to_json()``.

``REV`` extracts ``src/`` of that revision with ``git archive`` into a
temporary directory and runs it too, the two sides at once.  ``--check``
reads the other side from ``MANIFEST`` (``tools/same_results.txt``), the
lines ``--write`` printed for the commit that wrote it.  Both compare the
digests run by run, name each run that differs, print how many runs are
the same and how many differ, and exit 1 on any difference, or 2 when a
side fails to run.  An intended change of results rewrites the manifest
in the same commit, so its diff names every run that changed.  The script
uses only the standard library.  On a 2-core host a side takes about
30 s.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "same_results.txt"
PRESETS = ("var_tbb_strength", "var_r_strength", "attacker_ratio_5")
SEEDS = range(3)
USAGE = "usage: python3 tools/same_results.py REV | --check | --write"

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


def digests(lines: str) -> dict[str, str]:
    return dict(line.rsplit(" ", 1) for line in lines.splitlines())


def finish(side: subprocess.Popen) -> str | None:
    """The lines ``side`` printed, or None when it failed."""
    out, _ = side.communicate()
    return out if side.returncode == 0 else None


def revision_src(rev: str, tmp: str) -> Path | None:
    """Extract ``src/`` of ``rev`` under ``tmp``; None when git cannot."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return None
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tmp)
    return Path(tmp) / "src"


def compare(theirs: dict[str, str], ours: dict[str, str]) -> int:
    keys = theirs.keys() | ours.keys()
    differ = sorted(key for key in keys if theirs.get(key) != ours.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(keys) - len(differ)} runs the same, {len(differ)} differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1 or (argv[0].startswith("-") and argv[0] not in ("--check", "--write")):
        print(USAGE, file=sys.stderr)
        return 2
    mode = argv[0]
    if mode == "--write":
        ours = finish(start(ROOT / "src"))
        if ours is None:
            print("the working tree failed to run", file=sys.stderr)
            return 2
        MANIFEST.write_text(ours)
        print(f"wrote {len(ours.splitlines())} runs to {MANIFEST.relative_to(ROOT)}")
        return 0
    if mode == "--check":
        theirs, ours = MANIFEST.read_text(), finish(start(ROOT / "src"))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            src = revision_src(mode, tmp)
            if src is None:
                return 2
            sides = [start(src), start(ROOT / "src")]
            theirs, ours = (finish(side) for side in sides)
    if theirs is None or ours is None:
        print("a side failed to run", file=sys.stderr)
        return 2
    return compare(digests(theirs), digests(ours))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
