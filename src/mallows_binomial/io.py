"""CSV file formats for judge panels.

A panel is two files: a ratings file with header ``obj_1..obj_J`` and one
integer row per judge, and a header-less rankings file with one row per
judge listing object labels most preferred first.  Object labels are
1-based in files and 0-based in memory; the conversion lives entirely in
this module.  Parse errors name the offending file and line.  Every file is
written to a temporary file beside its path and renamed into place, so a
failed write never leaves a half-written file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os

import numpy as np

from .model import Dataset

__all__ = [
    "read_ratings",
    "read_rankings",
    "read_dataset",
    "write_ratings",
    "write_rankings",
]


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = [[cell.strip() for cell in row] for row in csv.reader(handle)]
    rows = [row for row in rows if row and any(cell for cell in row)]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    return rows


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


def read_ratings(path) -> np.ndarray:
    """Read a ratings CSV into an ``I x J`` integer matrix (0-based objects).

    The first line must be the header ``obj_1,...,obj_J``; each later line
    holds one judge's integer ratings.
    """
    rows = _read_rows(path)
    header = rows[0]
    expected = [f"obj_{j}" for j in range(1, len(header) + 1)]
    if header != expected:
        raise ValueError(
            f"{path}, line 1: expected header {','.join(expected)}, got {','.join(header)}"
        )
    if len(rows) == 1:
        raise ValueError(f"{path}: no judge rows after the header")
    width = len(header)
    return np.array(
        [_parse_int_row(path, line_no, row, width) for line_no, row in enumerate(rows[1:], 2)],
        dtype=np.int64,
    )


def read_rankings(path, n_objects: int | None = None) -> np.ndarray:
    """Read a rankings CSV into an ``I x J`` matrix of 0-based object indices.

    No header: each line lists one judge's 1-based object labels, most
    preferred first, and must use every label ``1..J`` exactly once.
    """
    rows = _read_rows(path)
    width = n_objects if n_objects is not None else len(rows[0])
    parsed = np.array(
        [_parse_int_row(path, line_no, row, width) for line_no, row in enumerate(rows, 1)],
        dtype=np.int64,
    )
    for line_no, row in enumerate(parsed, 1):
        if sorted(row.tolist()) != list(range(1, width + 1)):
            raise ValueError(
                f"{path}, line {line_no}: ranking {row.tolist()} must use each "
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
    max_rating = int(max_rating)
    bad = np.argwhere((ratings < 0) | (ratings > max_rating))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"{ratings_path}, line {i + 2}: rating {ratings[i, j]} for object "
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
