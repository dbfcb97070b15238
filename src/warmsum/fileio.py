"""Whole-file reads and writes: every text file splits into lines by one rule,
and since the experiment runner resumes from any artifact that exists, a file
cut short by an interrupted run must never take its name."""

from __future__ import annotations

import os

from .errors import DataError


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split at newlines only ("\\r\\n" and "\\r"
    are newlines too), without the empty string after a final one."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not valid UTF-8 ({e})") from None
    return text.removesuffix("\n").split("\n") if text else []


def write_atomic(path, data: bytes | str) -> None:
    """Write to a temporary file beside `path`, then rename it into place."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
