"""File I/O shared by every reader and writer: one "read this file or
raise" helper, and atomic writing (temp + rename) so readers never see
partial output."""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib

from .errors import DataError

# what reading and parsing a missing, unreadable or corrupt file raises: OS
# errors, bad UTF-8, JSON or numbers (ValueError), missing or mistyped fields
# (LookupError, TypeError, AttributeError), short binary records
# (struct.error) and broken deflate streams (zlib.error)
_CORRUPT = (OSError, ValueError, LookupError, TypeError, AttributeError, struct.error, zlib.error)


def read_file(path, what: str, parse, error=DataError):
    """Read `path` and return `parse(blob)` of its bytes. A file that cannot
    be read, or whose bytes `parse` trips over, raises one `error` that names
    the file and `what` it should hold; errors `parse` raises on purpose
    pass through unchanged."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
        return parse(blob)
    except _CORRUPT as exc:
        raise error(f"{path}: cannot read {what} ({type(exc).__name__}: {exc})") from exc


def json_document(blob: bytes):
    """A UTF-8 JSON document."""
    return json.loads(blob.decode("utf-8"))


def _default_mode() -> int:
    # the mode a plain open() would give; mkstemp always creates 0600
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_text(path, text: str) -> None:
    """`text` encoded as UTF-8, written atomically with no newline
    translation."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, doc) -> None:
    """`doc` as JSON (indent 2, sorted keys, trailing newline), written
    atomically: the one form of every JSON file the package writes."""
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, seed: int, header: str, rows) -> None:
    """A `# seed=` line, the `header` line and one line per row of `rows`
    (each row already comma-joined), written atomically: the one form of
    every CSV file the package writes."""
    atomic_write_text(path, "\n".join([f"# seed={seed}", header, *rows]) + "\n")


def atomic_write_bytes(path, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.chmod(tmp, _default_mode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
