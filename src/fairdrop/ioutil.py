"""File helpers shared by model and schema files and the CLI: atomic writes,
and integers and numbers read strictly from JSON documents or configs."""

from __future__ import annotations

import os
import sys
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` via a sibling temp file and rename, in open()'s mode."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)  # no call reads it without setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


def json_numbers(value, what: str):
    """A number or nested lists of numbers read from a JSON document, given
    back unchanged: ints and floats.  Anything else in it, a bool, a string
    or a null included, is a ValueError naming ``what``."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{what} must hold only numbers, got {item!r}")
    return value


def has_type(value, kind) -> bool:
    """Whether a config value is of ``kind``: ``int``, ``float`` (any finite
    int or float), ``str`` or ``list`` (of ints).  A bool is none of them."""
    if isinstance(value, bool):
        return False
    if kind is float:
        # NaN, the infinities and integers past float range all fail the bound
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and all(has_type(v, int) for v in value)
    return isinstance(value, kind)
