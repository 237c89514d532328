"""File writing shared by serialization and the CLI: the files of one call
are written all or none, and every CSV is rendered by csv_text, so a fixed
config and seed give the same bytes."""
from __future__ import annotations

import contextlib
import os


class WriteError(OSError):
    """What write_files raises for an OSError; filename is the path."""


def write_files(directory: str, files: dict) -> None:
    """Write each text of `files` (name -> text) to its name in `directory`,
    all or none.  Every text goes to a new sibling temp file (mode 0o666 &
    ~umask) before any is renamed into place; if a write or a rename fails,
    the temp files and the files already renamed are removed."""
    staged, placed, path = [], [], directory
    try:
        for name, text in files.items():
            path = os.path.join(directory, name)
            staged.append((f"{path}.{os.urandom(8).hex()}.tmp", path))
            with open(staged[-1][0], "x") as fh:
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except OSError as exc:
        for leftover in [tmp for tmp, _ in staged] + placed:
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        raise WriteError(exc.errno, exc.strerror, path) from exc


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips a double exactly."""
    return repr(float(x))


def csv_text(header: str, rows) -> str:
    """`header`, then one line per row, floats through fmt and the rest
    through str, joined by commas, and a final newline."""
    lines = [header] + [",".join([fmt(x) if isinstance(x, float) else str(x)
                                  for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: str, rows) -> None:
    """Write csv_text(header, rows) to `path` through write_files."""
    directory, name = os.path.split(path)
    write_files(directory, {name: csv_text(header, rows)})
