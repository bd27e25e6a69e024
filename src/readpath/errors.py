"""Shared exception types and the readers of input files."""

from __future__ import annotations

from pathlib import Path


class InputError(Exception):
    """Bad user-supplied data or configuration (manifest rows, missing files,
    infeasible constraints). The CLI maps these to exit status 1; anything
    else that escapes is treated as an internal failure (exit status 2)."""


def read_text(path: Path | str, newline: str | None = None) -> str:
    """The UTF-8 text of an input file, with ``newline`` as for `open`. A
    file that cannot be read or is not UTF-8 is an InputError naming it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_bytes(path: Path | str) -> bytes:
    """The bytes of an input file. A file that cannot be read (such as a
    directory in its place) is an InputError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
