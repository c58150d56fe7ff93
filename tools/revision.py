"""Check a git revision out beside the working tree, for the tools here."""

from __future__ import annotations

import contextlib
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def worktree(rev, dest):
    """A detached `git worktree` of rev at dest, removed on exit."""
    subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach",
                    "--quiet", str(dest), rev], check=True)
    try:
        yield Path(dest)
    finally:
        subprocess.run(["git", "-C", str(REPO), "worktree", "remove",
                        "--force", str(dest)], check=True)
