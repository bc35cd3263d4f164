"""Escaping and small text-format helpers shared by the file formats.

All plain-text formats in this package are tab-separated with
backslash-escaped fields, so strings containing tabs, newlines,
backslashes, or non-printable bytes stay diffable and round-trip
losslessly.
"""
from __future__ import annotations


def escape_field(s: str) -> str:
    """Backslash-escape a string into printable ASCII (reversible)."""
    return s.encode("unicode_escape").decode("ascii")


def unescape_field(s: str) -> str:
    """Inverse of :func:`escape_field`."""
    try:
        return s.encode("ascii").decode("unicode_escape")
    except UnicodeError as exc:
        raise ValueError(f"malformed escaped field {s!r}") from exc


def counted_rows(lines: list[str], start: int, count: int, path):
    """Yield ``(line number, line)`` for the ``count`` body lines from index
    ``start``, then raise a ValueError naming the file if there are fewer,
    or the first line past them if there are more."""
    body = lines[start : start + count]
    yield from enumerate(body, start=start + 1)
    if len(body) != count:
        raise ValueError(f"{path}: truncated: {count} rows counted, {len(body)} found")
    if len(lines) > start + count:
        extra = lines[start + count]
        raise ValueError(f"{path}: line {start + count + 1}: row past the {count} counted {extra!r}")
