"""Whole-file I/O: the one module that opens files.

Every page, truth file, session record, run file and report that prodex
reads or writes goes through these functions. Each takes a str or PathLike
path and works on the str path with ``os.open``, so a loop over thousands
of pages builds no ``Path`` and no text wrapper per file (BENCH_36.json
has the measurement).

The text rules are those of ``Path.read_text`` and ``Path.write_text`` with
``encoding="utf-8"`` on a POSIX system: UTF-8, universal newlines on read
(``\\r\\n`` and ``\\r`` read as ``\\n``), and ``\\n`` written as it is.
``write_text`` writes in place; ``write_atomic`` and ``atomic_writer`` write
``<name>.tmp`` and rename it into place, so an interrupted write leaves at
most a stray ``.tmp`` file, never a torn one.
"""

from __future__ import annotations

import errno
import os
import stat
from contextlib import contextmanager

_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def read_text(path) -> str:
    """The text of the file ``path``: what ``Path(path).read_text(encoding="utf-8")``
    returns, or the exception it raises."""
    fd = os.open(path, _READ)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        data = os.read(fd, info.st_size + 1)
        if len(data) != info.st_size:  # a short read, or a file that grew: read to its end
            chunks = [data]
            while chunk := os.read(fd, 1 << 20):
                chunks.append(chunk)
            data = b"".join(chunks)
    finally:
        os.close(fd)
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, as UTF-8. A lone surrogate, which
    UTF-8 cannot hold, raises UnicodeEncodeError before the file is touched."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, _WRITE, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through ``<name>.tmp`` and a rename. A lone
    surrogate is written as its ``\\udXXX`` escape, which JSON text, the
    only text written with one, reads back as the same character."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        write_text(tmp, text)
    except UnicodeEncodeError:
        write_text(tmp, text.encode("utf-8", "backslashreplace").decode("utf-8"))
    os.replace(tmp, path)


@contextmanager
def atomic_writer(path):
    """A text file that streams to ``<name>.tmp`` and is renamed to ``path``
    when the block ends; a block that raises leaves the ``.tmp`` file and
    ``path`` as it was."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh
    os.replace(tmp, path)
