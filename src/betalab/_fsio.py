"""File writing shared by serialization and the CLI: every file is written
atomically, and every CSV by write_csv, so a fixed config and seed give
the same bytes."""
from __future__ import annotations

import os
import tempfile


def write_text_atomic(path: str, text: str) -> None:
    """Write text to `path` via a temp file in the same directory + rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips a double exactly."""
    return repr(float(x))


def write_csv(path: str, header: str, rows) -> None:
    """Write `header`, then one line per row, floats through fmt and the
    rest through str, joined by commas, and a final newline; atomically."""
    lines = [header] + [",".join([fmt(x) if isinstance(x, float) else str(x)
                                  for x in row]) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")
