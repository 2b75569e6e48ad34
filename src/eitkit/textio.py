"""Text rules shared by every eitkit file format; each format's own layout
lives in the module that reads it.

* Files are UTF-8; one that does not decode raises :class:`FormatError`
  (or the caller's subclass).
* Lines starting with ``#`` are comments; comment and blank lines carry no data.
* ``[name]`` section headers match case-insensitively. A name the format does
  not know, a repeated header, and data before the first header are errors;
  so is a key given twice in one section.
* Floats are written with 17 significant digits, so they read back exactly.
* Parse errors carry the 1-based line number, and the field where there is one.
* Record sections (the mesh format's) are converted a column at a time
  (:func:`records`); a line is looked at on its own only to name the first
  bad one. Other sections are read one line at a time, in one pass.
"""

from __future__ import annotations

import numpy as np

from .errors import EitError, FormatError


def read_lines(path, error=FormatError) -> list[tuple[int, str]]:
    """Every line of a UTF-8 text file as ``(line_no, stripped text)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return [(line_no, line.strip()) for line_no, line in enumerate(raw, start=1)]


def data_lines(lines) -> list[tuple[int, str]]:
    """The lines left after dropping blank and ``#`` comment lines."""
    return [(line_no, text) for line_no, text in lines if text and not text.startswith("#")]


class Section(list):
    """A section's ``(line_no, text)`` data lines; ``line_no`` is the line
    of its ``[name]`` header (None for the preamble)."""

    def __init__(self, line_no: int | None = None):
        super().__init__()
        self.line_no = line_no


def sections(lines, names, error=FormatError, preamble=None) -> dict[str, Section]:
    """The data lines grouped by section, for the lower-case section
    ``names``; lines before the first header form section ``preamble``
    when one is given. Each section is one slice of the data lines, cut at
    the header lines."""
    data = data_lines(lines)
    heads = [k for k, (_, text) in enumerate(data) if text.startswith("[")]
    groups: dict[str, Section] = {}
    if data and heads[:1] != [0]:
        if preamble is None:
            line_no, text = data[0]
            raise error(f"data before any section header: {text!r}", line_no=line_no)
        groups[preamble] = Section()
        groups[preamble].extend(data[:heads[0] if heads else len(data)])
    for head, end in zip(heads, heads[1:] + [len(data)]):
        line_no, text = data[head]
        name = text[1:-1].strip().lower() if text.endswith("]") else None
        if name not in names:
            raise error(f"unknown section {text!r}", line_no=line_no)
        if name in groups:
            raise error(f"section [{name}] repeated", line_no=line_no)
        groups[name] = Section(line_no)
        groups[name].extend(data[head + 1:end])
    return groups


def key_value(line_no: int, text: str) -> tuple[str, str]:
    """Split a ``key = value`` line into its stripped halves."""
    key, sep, value = text.partition("=")
    if not sep:
        raise FormatError(f"expected 'key = value', got {text!r}", line_no=line_no)
    return key.strip(), value.strip()


def put_once(mapping: dict, key, value, line_no: int, what: str = "key") -> None:
    """``mapping[key] = value``; a key already there is a line-numbered error."""
    if key in mapping:
        raise FormatError(f"{what} {key!r} repeated", line_no=line_no)
    mapping[key] = value


def convert(token: str, kind, line_no: int, field: str | None = None, error=FormatError):
    """``kind(token)``, raising a line-numbered error that names the field."""
    try:
        return kind(token)
    except ValueError:
        raise error(f"expected {kind.__name__}, got {token!r}", line_no=line_no, field=field) from None


def _at_line(line_no: int, check, *args):
    """``check(*args)``; an :class:`EitError` it raises is raised again as a
    :class:`FormatError` at ``line_no``, chained to it."""
    try:
        return check(*args)
    except EitError as exc:
        raise FormatError(str(exc), line_no=line_no) from exc


def _fits_int64(value: int) -> bool:
    return -(2**63) <= value < 2**63


def records(lines, name: str, fields, kinds, error=FormatError) -> list[list]:
    """The whitespace-separated record lines of section ``name`` as one list
    per field, each field converted by its kind; int fields are ids and must
    fit in a signed 64-bit integer.

    The whole section is read in columns: every line is split, the field
    counts are checked together, each field column is converted by one
    ``map`` and each int column is range-checked on its min and max. Only
    when that fails is it walked line by line, to raise the error of the
    first bad line: its field count, then its fields from left to right,
    then their range.
    """
    rows = [text.split() for _, text in lines]
    try:
        if set(map(len, rows)) <= {len(fields)}:
            out = [list(map(kind, column)) for kind, column in zip(kinds, zip(*rows))]
            if all(kind is not int or _fits_int64(min(column)) and _fits_int64(max(column))
                   for kind, column in zip(kinds, out)):
                return out or [[] for _ in kinds]
    except ValueError:
        pass  # a token does not convert: the walk names it
    for (line_no, _), parts in zip(lines, rows):
        if len(parts) != len(fields):
            raise error(f"{name} line needs '{' '.join(fields)}', got {len(parts)} fields", line_no=line_no)
        row = [convert(p, k, line_no, f, error) for p, k, f in zip(parts, kinds, fields)]
        for value, k, f in zip(row, kinds, fields):
            if k is int and not _fits_int64(value):
                raise error(f"id {value} does not fit in a signed 64-bit integer", line_no=line_no, field=f)
    raise AssertionError("not reached: the walk raises wherever the column pass failed")


def float_rows(lines) -> np.ndarray:
    """Comma-separated float rows as one 2-D array (``(0,)`` when empty).
    A NaN or an infinity is an error at the first row that holds one, found
    by one ``np.isfinite`` pass over the array."""
    rows: list[list[float]] = []
    for line_no, text in lines:
        try:
            row = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise FormatError(f"bad float: {exc}", line_no=line_no) from None
        if rows and len(row) != len(rows[0]):
            raise FormatError(
                f"ragged rows: {len(row)} fields, the first row has {len(rows[0])}", line_no=line_no
            )
        rows.append(row)
    table = np.array(rows)
    finite = np.isfinite(table)
    bad = np.flatnonzero(~finite.all(axis=-1))
    if bad.size:
        k = bad[0]
        raise FormatError(f"non-finite value {float(table[k][~finite[k]][0])!r}", line_no=lines[k][0])
    return table


def format_row(values) -> str:
    """One comma-separated row of 17-significant-digit floats."""
    return ",".join(f"{v:.17g}" for v in values)


def write_lines(path, lines, header_lines=()) -> None:
    """Write ``header_lines`` as ``# `` comments, then ``lines``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {h}\n" for h in header_lines)
        fh.writelines(f"{line}\n" for line in lines)
