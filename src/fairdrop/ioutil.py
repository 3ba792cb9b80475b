"""File helpers shared by model and schema files and the CLI: atomic writes,
and integers read strictly from JSON documents."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` via a sibling temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_integer(value, what: str) -> int:
    """An integer read from a JSON document: an int or a float without a
    fraction.  Anything else, a bool or a string included, is a ValueError
    naming ``what``."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)
