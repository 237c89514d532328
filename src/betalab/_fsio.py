"""File writing shared by serialization and the CLI: every file is written
atomically, and every CSV by write_csv, so a fixed config and seed give
the same bytes."""
from __future__ import annotations

import os


class WriteError(OSError):
    """What write_text_atomic raises for an OSError; filename is the path."""


def write_text_atomic(path: str, text: str) -> None:
    """Write text to `path` via a new sibling file (mode 0o666 & ~umask)."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise WriteError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips a double exactly."""
    return repr(float(x))


def write_csv(path: str, header: str, rows) -> None:
    """Write `header`, then one line per row, floats through fmt and the
    rest through str, joined by commas, and a final newline; atomically."""
    lines = [header] + [",".join([fmt(x) if isinstance(x, float) else str(x)
                                  for x in row]) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")
