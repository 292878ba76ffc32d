"""Rewriting small files in place.

``Path.write_text`` opens with ``O_TRUNC``, cutting the file to zero bytes
before writing it again. ext4 (and other file systems with delayed
allocation) treat truncate-to-zero followed by a rewrite as a replace and
start writing the new data back to the disk when the file is closed, so
every such rewrite waits on the disk. The databases and farm stores
rewrite the same small JSON documents many times per operation.

``rewrite_text`` writes over the old bytes instead and then cuts the file
to the new length, which leaves writeback to the page cache. Neither form
is atomic: a crash mid-write can leave a damaged document either way.
"""
from __future__ import annotations

import os
from pathlib import Path


def rewrite_text(path: str | Path, text: str) -> None:
    """Make ``path`` hold exactly ``text`` in UTF-8, creating it if missing."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()
