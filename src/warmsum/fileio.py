"""Whole-file writes: the experiment runner resumes from any artifact that
exists, so a file cut short by an interrupted run must never take its name."""

from __future__ import annotations

import os


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
