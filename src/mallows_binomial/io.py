"""CSV file formats for judge panels.

A panel is two files: a ratings file with header ``obj_1..obj_J`` and one
integer row per judge, and a header-less rankings file with one row per
judge listing object labels most preferred first.  Object labels are
1-based in files and 0-based in memory: this module converts the labels and
``obj_`` names of panel files, and the CLI converts the consensus rankings
of its documents (``cli._fit_document`` and ``cli._cmd_simulate``).

A plain file, only ASCII digits, commas and newlines under an exact header,
is read as a digit matrix: numpy passes over its bytes find the separators
and add up each cell's digits by place.  Any other file, or one that fails a
check (an empty cell, a cell over 18 characters, a width change), is read
again by the row parser.  Its cells are an optional sign and ASCII digits,
and its errors, the csv module's included, are ``ValueError``s naming the
file and the physical line the row starts on, blank lines counted.  The
row parser decodes UTF-8, spelling any other byte as its ``\\xNN`` escape,
and drops a leading byte-order mark, which spreadsheet exports write.  The
writers take 2-D integer matrices only and build a file's bytes the same
way: digit slots filled by place, leading zeros and unused sign slots
masked out, giving the bytes ``csv.writer`` gives.  Every file is written
to a temporary file beside its path and renamed into place, so a failed
write never leaves a half-written file.
"""

from __future__ import annotations

import array
import contextlib
import csv
import os
import re

import numpy as np

from .model import Dataset, _checked_dataset, _first_non_permutation, _first_outside, _max_rating

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
    # a byte that is not UTF-8 becomes its \xNN escape, for the checks to name
    with open(path, newline="", encoding="utf-8-sig", errors="backslashreplace") as handle:
        reader = csv.reader(handle)
        start = 1
        try:
            for row in reader:
                row = [cell.strip() for cell in row]
                if any(row):
                    lines.append(start)
                    rows.append(row)
                # a quoted cell may span lines: the next row starts after them
                start = reader.line_num + 1
        except csv.Error as error:  # such as a cell over the field size limit
            raise ValueError(f"{path}, line {start}: {error}") from None
    if not rows:
        raise ValueError(f"{path}: file is empty")
    return lines, rows


def _header(width: int) -> str:
    return ",".join(f"obj_{j}" for j in range(1, width + 1))


def _parse_int_rows(path, lines, rows: list[list[str]], width: int) -> np.ndarray:
    """The row parser's matrix: every row ``width`` cells, each an optional sign
    and ASCII digits (``int`` alone also takes ``1_0`` and other scripts' digits).
    """
    values = np.empty((len(rows), width), np.int64)
    for row_values, line_no, row in zip(values, lines, rows):
        where = f"{path}, line {line_no}"
        if len(row) != width:
            raise ValueError(f"{where}: expected {width} columns, got {len(row)}")
        for col, cell in enumerate(row, start=1):
            if not re.fullmatch("[+-]?[0-9]+", cell):
                raise ValueError(f"{where}, column {col}: {cell!r} is not an integer")
            value = int(cell)
            if not -(2**63) <= value < 2**63:
                raise ValueError(f"{where}, column {col}: {cell!r} is not a 64-bit integer")
            row_values[col - 1] = value
    return values


def _digit_cells(body: bytes, width: int | None) -> np.ndarray | None:
    """The rows of ``body``, only ASCII digits, commas and newlines, else None.

    Blank lines are dropped, as the row parser drops them, and each cell ends
    at a comma or newline.  The digits of every cell are read right-aligned,
    one place ``k`` at a time, most significant first, into ``value * 10 +
    digit``.  An empty cell, a cell over 18 characters (int64 holds every
    18-digit number), or a row whose width differs from ``width`` (or from
    the first row's) gives None.
    """
    text = np.frombuffer(body if body.endswith(b"\n") else body + b"\n", np.uint8)
    newline = text == ord("\n")
    blank = newline.copy()
    blank[1:] &= newline[:-1]  # a newline first or after a newline ends a blank line
    if blank.any():
        text, newline = text[~blank], newline[~blank]
    ends = np.flatnonzero(newline | (text == ord(",")))
    lengths = np.diff(ends, prepend=-1)
    lengths -= 1
    longest = lengths.max()
    if lengths.min() == 0 or longest > 18:
        return None
    rows = np.count_nonzero(newline)
    if width is None:
        width = int(np.searchsorted(ends, newline.argmax())) + 1
    if ends.size != rows * width or not newline[ends[width - 1 :: width]].all():
        return None
    values = np.zeros(ends.size, np.int64)
    place = ends  # walks each cell from its 10**(longest - 1) digit to its units
    place -= longest
    for k in range(longest - 1, -1, -1):
        digits = text[place] - ord("0")
        digits[lengths <= k] = 0  # before a shorter cell's first digit
        values *= 10
        values += digits
        place += 1
    return values.reshape(rows, width)


def _read_plain(path, header: bool, width: int | None = None) -> np.ndarray | None:
    """A plain file's rows read as a digit matrix (:func:`_digit_cells`), else
    None: an exact header if ``header`` (it sets ``width``), then only ASCII
    digits, commas and newlines, in cells the digit matrix takes.
    """
    with open(path, "rb") as handle:
        body = handle.read()
    if header:
        head, _, body = body.partition(b"\n")
        width = head.count(b",") + 1
        if head != _header(width).encode():
            return None
    if body.translate(None, b"0123456789,\n") or not body.strip(b"\n"):
        return None
    return _digit_cells(body, width)


def read_ratings(path) -> np.ndarray:
    """Read a ratings CSV into an ``I x J`` integer matrix (0-based objects).

    The first line must be the header ``obj_1,...,obj_J``; each later line
    holds one judge's integer ratings.
    """
    ratings = _read_plain(path, header=True)
    if ratings is not None:
        return ratings
    lines, (header, *rows) = _read_rows(path)
    got, expected = ",".join(header), _header(len(header))
    if got != expected:
        raise ValueError(f"{path}, line {lines[0]}: expected header {expected}, got {got}")
    if not rows:
        raise ValueError(f"{path}: no judge rows after the header")
    return _parse_int_rows(path, lines[1:], rows, len(header))


def read_rankings(path, n_objects: int | None = None) -> np.ndarray:
    """Read a rankings CSV into an ``I x J`` matrix of 0-based object indices.

    No header: each line lists one judge's 1-based object labels, most
    preferred first, and must use every label ``1..J`` exactly once.
    """
    parsed = _read_plain(path, header=False, width=n_objects)
    if parsed is None:
        lines, rows = _read_rows(path)
        width = n_objects if n_objects is not None else len(rows[0])
        parsed = _parse_int_rows(path, lines, rows, width)
    rankings = parsed - 1
    bad = _first_non_permutation(rankings)
    if bad is not None:
        # a plain file's rows are the row parser's rows: read it again for the line
        raise ValueError(
            f"{path}, line {_read_rows(path)[0][bad]}: ranking {parsed[bad].tolist()} "
            f"must use each label 1..{parsed.shape[1]} exactly once"
        )
    return rankings


def read_dataset(ratings_path, rankings_path, max_rating: int) -> Dataset:
    """Read and cross-validate a paired panel into a :class:`Dataset`."""
    ratings = read_ratings(ratings_path)
    rankings = read_rankings(rankings_path, n_objects=ratings.shape[1])
    if ratings.shape[0] != rankings.shape[0]:
        raise ValueError(
            f"{ratings_path} has {ratings.shape[0]} judges but "
            f"{rankings_path} has {rankings.shape[0]}"
        )
    max_rating = _max_rating(max_rating)
    bad = _first_outside(ratings, max_rating)
    if bad is not None:
        i, j = bad
        # read_ratings returns the matrix alone, and only this message needs
        # the judge's line number: read the file again for it
        line_no = _read_rows(ratings_path)[0][i + 1]
        raise ValueError(
            f"{ratings_path}, line {line_no}: rating {ratings[i, j]} for object "
            f"obj_{j + 1} is outside 0..{max_rating}"
        )
    # every check Dataset makes is made above, with the file's line in each message
    return _checked_dataset(ratings, rankings, max_rating)


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


def _integer_matrix(matrix) -> np.ndarray:
    """``matrix`` as an array, refused unless the readers can read it back."""
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "iu":
        raise ValueError(f"can only write integer matrices, got dtype {matrix.dtype}")
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ValueError(f"can only write a non-empty 2-D matrix, got shape {matrix.shape}")
    if matrix.dtype.kind == "u" and matrix.max() > 2**63 - 1:
        raise ValueError(f"can only write 64-bit integers, got {matrix.max()}")
    return matrix


def _write_digits(path, matrix: np.ndarray, header: str = "") -> None:
    """Write ``header``, then an integer matrix as CSV rows: cells as ``str``
    spells them, ``,`` between cells and ``\\n`` after each row.

    Each cell gets a sign slot, ``d`` digit slots (``d`` digits spell the
    largest magnitude) and a separator slot; the file is the slots left once
    leading zeros and unused sign slots are masked out.
    """
    negative = matrix < 0
    magnitude = matrix.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # |-2**63| fits uint64
    top = int(magnitude.max())
    # every power 10**k below top fits top's type
    magnitude = magnitude.astype(np.min_scalar_type(top))
    d = len(str(top))
    slots = np.empty(matrix.shape + (d + 2,), np.uint8)
    keep = np.empty(slots.shape, bool)
    slots[..., 0], keep[..., 0] = ord("-"), negative
    for k in range(d):
        slots[..., d - k] = magnitude // 10**k % 10 + ord("0")
        keep[..., d - k] = magnitude >= 10**k
    keep[..., d] = True  # zero is spelt 0
    slots[..., -1], keep[..., -1] = ord(","), True
    slots[:, -1, -1] = ord("\n")
    with _replacing(path) as (temporary,):
        with open(temporary, "xb") as handle:
            handle.write(header.encode())
            handle.write(slots[keep])


def write_ratings(path, ratings) -> None:
    """Write an integer ratings matrix with the ``obj_1..obj_J`` header."""
    ratings = _integer_matrix(ratings)
    _write_digits(path, ratings, _header(ratings.shape[1]) + "\n")


def write_rankings(path, rankings) -> None:
    """Write 0-based integer ranking rows as 1-based labels, no header.

    Every row must be a permutation of ``0..J-1``, as :func:`read_rankings`
    requires of what it reads back.
    """
    rankings = _integer_matrix(rankings)
    low, high, n = rankings.min(), rankings.max(), rankings.shape[1]
    if low < 0 or high >= n:
        raise ValueError(f"ranking label {low if low < 0 else high} is outside 0..{n - 1}")
    row = _first_non_permutation(rankings)
    if row is not None:
        raise ValueError(
            f"ranking row {row} is not a permutation of 0..{n - 1}: {rankings[row].tolist()}"
        )
    _write_digits(path, np.add(rankings, 1, dtype=np.int64))
