"""CSV import/export of field cochains.

Columns: degree, base coordinate per axis, the spanned axes as a digit
string, the fiber component index, and the value as re/im.  Rows are sorted
by cell index then component; values are printed with 17 significant digits
so the round trip is bit exact.  The writer streams the rows in chunks of
cells, so a large field is never held as text in memory.

The reader takes the exact header, then one row per line: fields may be
quoted, integers may carry a sign or surrounding spaces and must fit in 64
bits, and values are anything numpy parses as a float (including nan and
inf).  It rejects blank and comment lines, rows of the wrong length or
degree, axes that name no cell of that degree, component indices out of
range, base coordinates off a box (a torus wraps them), non-zero imaginary
parts for a real fiber, and files that leave a (cell, component) pair
unset.  When a pair appears twice, the later row wins.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .calculus import Cochain, FiberSpec
from .errors import ConfigError
from .mesh import CubicalComplex

# cells formatted per write; bounds the text held in memory by the writer
_CHUNK_CELLS = 4096


def _header(d: int) -> list:
    return ["degree"] + [f"base{i}" for i in range(d)] + ["axes", "component_index", "re", "im"]


def _row_dtype(d: int) -> np.dtype:
    # axes are wider than any valid digit string, so a long value cannot be
    # truncated into a valid one
    kinds = ["i8"] * (1 + d) + [f"U{d + 2}", "i8", "f8", "f8"]
    return np.dtype(list(zip(_header(d), kinds)))


def emit_field_csv(psi: Cochain, path) -> None:
    """Write a cochain as CSV; see the module docstring for the layout."""
    cx = psi.complex
    offset = 0
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_header(cx.d)) + "\r\n")
        for axes in cx.axis_subsets(psi.degree):
            axes_str = "".join(str(a) for a in axes)
            bases = cx.block_bases(psi.degree, axes)
            for start in range(0, bases.shape[1], _CHUNK_CELLS):
                stop = min(start + _CHUNK_CELLS, bases.shape[1])
                prefixes = [
                    f"{psi.degree},{','.join(map(str, base))},{axes_str},"
                    for base in bases[:, start:stop].T.tolist()
                ]
                rows = psi.values[offset + start : offset + stop].tolist()
                handle.writelines(
                    f"{prefix}{comp},{v.real:.17g},{v.imag:.17g}\r\n"
                    for prefix, row in zip(prefixes, rows)
                    for comp, v in enumerate(row)
                )
            offset += bases.shape[1]


def load_field_csv(cx: CubicalComplex, degree: int, fiber: FiberSpec, path) -> Cochain:
    """Read a cochain written by emit_field_csv; see the module docstring."""
    path = Path(path)
    try:
        with open(path) as handle:
            header = next(csv.reader([handle.readline()]), None)
            # physical lines after the header, a last line without newline included
            lines, last = 0, "\n"
            for chunk in iter(lambda: handle.read(1 << 20), ""):
                lines += chunk.count("\n")
                last = chunk[-1]
            lines += last != "\n"
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field CSV {path}: {exc}") from exc
    if header != _header(cx.d):
        raise ConfigError(f"unexpected CSV header in {path}")
    try:
        with warnings.catch_warnings():
            # a body of blank lines parses to no rows; the count below rejects it
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(
                path, dtype=_row_dtype(cx.d), delimiter=",", comments=None,
                quotechar='"', skiprows=1, ndmin=1,
            )
    except (OSError, ValueError) as exc:
        raise ConfigError(f"malformed CSV row in {path}: {exc}") from exc
    if len(rows) != lines:
        raise ConfigError(f"blank lines or quoted line breaks in field CSV {path}")
    bad = rows["degree"] != degree
    if bad.any():
        raise ConfigError(
            f"CSV row of degree {rows['degree'][bad][0]} does not match field degree {degree}"
        )
    comp = rows["component_index"]
    bad = (comp < 0) | (comp >= fiber.components)
    if bad.any():
        raise ConfigError(f"component index {comp[bad][0]} out of range")
    if not fiber.is_complex and (rows["im"] != 0.0).any():
        raise ConfigError("imaginary parts in a CSV for a real fiber")

    bases = np.stack([rows[f"base{i}"] for i in range(cx.d)])
    idx = np.full(len(rows), -1, dtype=np.int64)
    for axes in cx.axis_subsets(degree):
        mask = rows["axes"] == "".join(str(a) for a in axes)
        idx[mask] = cx.cell_indices(degree, axes, bases[:, mask])
    if (idx < 0).any():
        bad_axes = rows["axes"][idx < 0][0]
        raise ConfigError(f"CSV axes {bad_axes!r} name no cell of degree {degree}")

    # the row that sets each (cell, component) pair last, -1 where none does
    n = cx.cell_count(degree)
    last_row = np.full(n * fiber.components, -1, dtype=np.int64)
    np.maximum.at(last_row, idx * fiber.components + comp, np.arange(len(rows)))
    if (last_row < 0).any():
        raise ConfigError(f"field CSV {path} does not cover every cell and component")
    re = rows["re"][last_row]
    if fiber.is_complex:
        # the same arithmetic as the scalar re + 1j * im, so an infinite im
        # gives the same nan real part
        with np.errstate(invalid="ignore"):
            values = re + 1j * rows["im"][last_row]
    else:
        values = re
    return Cochain(cx, degree, fiber, values.reshape(n, fiber.components))
