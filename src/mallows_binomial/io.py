"""CSV file formats for judge panels.

A panel is two files: a ratings file with header ``obj_1..obj_J`` and one
integer row per judge, and a header-less rankings file with one row per
judge listing object labels most preferred first.  Object labels are
1-based in files and 0-based in memory: this module converts the labels and
``obj_`` names of panel files, and the CLI converts the consensus rankings
of its documents (``cli._fit_document`` and ``cli._cmd_simulate``).  Parse
errors name the offending file and its physical line, blank lines counted.
Every file is written to a temporary file beside its path and renamed into
place, so a failed write never leaves a half-written file.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import os

import numpy as np

from .model import Dataset, _count

__all__ = [
    "read_ratings",
    "read_rankings",
    "read_dataset",
    "write_ratings",
    "write_rankings",
]


def _read_rows(path) -> tuple[array.array, list[list[str]]]:
    """The physical line each non-blank row of a CSV file starts on, and the rows."""
    lines, rows = array.array("q"), []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        start = 1
        for row in reader:
            row = [cell.strip() for cell in row]
            if any(row):
                lines.append(start)
                rows.append(row)
            # a quoted cell may span lines: the next row starts after them
            start = reader.line_num + 1
    if not rows:
        raise ValueError(f"{path}: file is empty")
    return lines, rows


def _parse_int_row(path, line_no: int, row: list[str], width: int) -> list[int]:
    if len(row) != width:
        raise ValueError(
            f"{path}, line {line_no}: expected {width} columns, got {len(row)}"
        )
    values = []
    for col, cell in enumerate(row, start=1):
        try:
            values.append(int(cell))
        except ValueError:
            raise ValueError(
                f"{path}, line {line_no}, column {col}: {cell!r} is not an integer"
            ) from None
    return values


def _parse_int_rows(path, lines, rows: list[list[str]], width: int) -> np.ndarray:
    parsed = [_parse_int_row(path, line_no, row, width) for line_no, row in zip(lines, rows)]
    return np.array(parsed, dtype=np.int64)


def read_ratings(path) -> np.ndarray:
    """Read a ratings CSV into an ``I x J`` integer matrix (0-based objects).

    The first line must be the header ``obj_1,...,obj_J``; each later line
    holds one judge's integer ratings.
    """
    lines, (header, *rows) = _read_rows(path)
    expected = [f"obj_{j}" for j in range(1, len(header) + 1)]
    if header != expected:
        raise ValueError(
            f"{path}, line {lines[0]}: expected header {','.join(expected)}, "
            f"got {','.join(header)}"
        )
    if not rows:
        raise ValueError(f"{path}: no judge rows after the header")
    return _parse_int_rows(path, lines[1:], rows, len(header))


def read_rankings(path, n_objects: int | None = None) -> np.ndarray:
    """Read a rankings CSV into an ``I x J`` matrix of 0-based object indices.

    No header: each line lists one judge's 1-based object labels, most
    preferred first, and must use every label ``1..J`` exactly once.
    """
    lines, rows = _read_rows(path)
    width = n_objects if n_objects is not None else len(rows[0])
    parsed = _parse_int_rows(path, lines, rows, width)
    bad = np.flatnonzero(np.any(np.sort(parsed, axis=1) != np.arange(1, width + 1), axis=1))
    if bad.size:
        raise ValueError(
            f"{path}, line {lines[bad[0]]}: ranking {parsed[bad[0]].tolist()} must use each "
            f"label 1..{width} exactly once"
        )
    return parsed - 1


def read_dataset(ratings_path, rankings_path, max_rating: int) -> Dataset:
    """Read and cross-validate a paired panel into a :class:`Dataset`."""
    ratings = read_ratings(ratings_path)
    rankings = read_rankings(rankings_path, n_objects=ratings.shape[1])
    if ratings.shape[0] != rankings.shape[0]:
        raise ValueError(
            f"{ratings_path} has {ratings.shape[0]} judges but "
            f"{rankings_path} has {rankings.shape[0]}"
        )
    max_rating = _count(max_rating, "max_rating")
    bad = np.argwhere((ratings < 0) | (ratings > max_rating))
    if bad.size:
        i, j = bad[0]
        # read_ratings returns the matrix alone, and only this message needs
        # the judge's line number: read the file again for it
        line_no = _read_rows(ratings_path)[0][i + 1]
        raise ValueError(
            f"{ratings_path}, line {line_no}: rating {ratings[i, j]} for object "
            f"obj_{j + 1} is outside 0..{max_rating}"
        )
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)


@contextlib.contextmanager
def _replacing(*paths):
    """Yield a fresh temporary path beside each of ``paths``; once the block
    has written them all, rename each into place, in order.

    On any failure every temporary file is removed.  Each rename is atomic,
    but two renames are never atomic together: a failure between them leaves
    the earlier paths new and the later ones old.
    """
    temporaries = []
    for path in paths:
        directory, name = os.path.split(os.path.abspath(path))
        temporaries.append(
            os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        )
    try:
        yield temporaries
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    except BaseException:
        for temporary in temporaries:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
        raise


def _write_atomically(path, text: str) -> None:
    """Write ``text`` to a fresh file beside ``path``, then rename it into place.

    Readers of ``path`` see the old file or the complete new one, never a
    partial write; on any failure the temporary file is removed.
    """
    with _replacing(path) as (temporary,):
        with open(temporary, "x", newline="") as handle:
            handle.write(text)


def _write_csv(path, rows, header=None) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    _write_atomically(path, buffer.getvalue())


def write_ratings(path, ratings) -> None:
    """Write a ratings matrix with the ``obj_1..obj_J`` header."""
    ratings = np.asarray(ratings)
    _write_csv(path, ratings.tolist(), [f"obj_{j}" for j in range(1, ratings.shape[1] + 1)])


def write_rankings(path, rankings) -> None:
    """Write 0-based ranking rows as 1-based labels, no header."""
    _write_csv(path, (np.asarray(rankings) + 1).tolist())
