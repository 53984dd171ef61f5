"""Extract a git revision of this repository into a directory.

Shared by the scripts that compare a revision with the checkout
(``cli_sweep.py --against`` and ``bench_pairs.py``). The revision's files
are written with ``git archive``, so they are exactly the committed ones.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into the existing directory ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
