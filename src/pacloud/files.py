"""Small files: in-place rewrites, append-only journals, pruned directories.

``Path.write_text`` opens with ``O_TRUNC``, cutting the file to zero bytes
before writing it again. ext4 (and other file systems with delayed
allocation) treat truncate-to-zero followed by a rewrite as a replace and
start writing the new data back to the disk when the file is closed, so
every such rewrite waits on the disk. The client database rewrites the
same small JSON documents many times per operation.

``rewrite_text`` writes over the old bytes instead and then cuts the file
to the new length, which leaves writeback to the page cache. Neither form
is atomic: a crash mid-write can leave a damaged document either way.

The farm's record store changes a little state many times per run, so
it keeps a ``Journal`` instead: one JSON line per change, appended
through a handle kept open and flushed after each line. A process crash
loses at most the line being written. That torn last line is dropped
when the journal is read, and cut off before the next append.

Every JSON document read across a process boundary (a wire or journal
line, a store or database document, a job file) is decoded by
``from_json``, which raises ``ValueError`` for anything else, a document
nested too deeply to decode, the non-JSON constants ``NaN`` and
``Infinity`` and a number too large for a float (``1e400``) included. An
integer too large for a float decodes as an ``int``: a decoder that wants
a float still checks it.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, NoReturn

from .errors import FarmStateError


def rewrite_text(path: str | Path, text: str) -> None:
    """Make ``path`` hold exactly ``text`` in UTF-8, creating it if missing."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def prune_empty_dirs(directory: Path, root: Path) -> None:
    """Remove ``directory`` and its parents below ``root`` while empty."""
    while root in directory.parents:
        try:
            directory.rmdir()
        except OSError:
            return
        directory = directory.parent


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _refuse_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number too large for a float: {text:.60}")
    return value


# Built once: ``json.loads`` with any keyword builds a decoder per call.
_DECODER = json.JSONDecoder(
    parse_float=_finite_float, parse_constant=_refuse_constant
)


def json_line(doc: Any) -> bytes:
    """``doc`` as one compact JSON line, the form of a ``Journal``'s lines
    and of the wire's requests and responses."""
    return (_COMPACT.encode(doc) + "\n").encode("utf-8")


def from_json(data: str | bytes) -> Any:
    """The one JSON document ``data`` holds, bytes read as strict UTF-8;
    ``ValueError`` if it holds none, one nested too deeply to decode,
    ``NaN``, ``Infinity`` or ``-Infinity``, which are not JSON, or a number
    that no float holds."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")  # UnicodeDecodeError is a ValueError
    try:
        return _DECODER.decode(data)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


class Journal:
    """An append-only file of JSON documents, one per line.

    Call ``read`` once before the first ``append``: it finds where the
    last whole line ends, and the first append cuts the file back to it.
    The append handle is opened on that first append and stays open until
    ``close``; appending after ``close`` opens it again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.size = 0  # bytes up to the end of the last whole line
        self._fh = None

    def read(self) -> list[Any]:
        """The documents on file, in order, without a torn last line.

        The last line is torn when it lacks its newline or does not
        parse. Any earlier line that does not parse is damage a crash
        cannot cause, and raises ``FarmStateError``.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        *lines, _ = data.split(b"\n")
        docs = []
        self.size = 0
        for number, line in enumerate(lines, 1):
            try:
                docs.append(from_json(line))
            except ValueError:
                if number == len(lines):
                    break
                raise FarmStateError(
                    f"{self.path}: line {number} is not JSON"
                ) from None
            self.size += len(line) + 1
        return docs

    def append(self, doc: Any) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
            self._fh.truncate(self.size)
        data = json_line(doc)
        self._fh.write(data)
        self._fh.flush()
        self.size += len(data)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
