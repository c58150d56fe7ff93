"""Extract the files of a git revision beside the working tree, for the
tools here."""

from __future__ import annotations

import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def extract(rev, dest):
    """The files of rev at dest, created, from `git archive rev | tar -x`.

    Writes nothing under .git; the caller removes dest.
    """
    dest = Path(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {rev} with git archive")
    return dest
