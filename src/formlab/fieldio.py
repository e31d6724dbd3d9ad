"""CSV import/export of field cochains.

Columns: degree, base coordinate per axis, the spanned axes as a digit
string, the fiber component index, and the value as re/im.  Rows are sorted
by cell index then component; values are printed with 17 significant digits
so the round trip is bit exact.  The writer streams the rows in chunks of
cells, so the rows of a large field are never held as text in memory.  The
base coordinates are formatted once per block extents, as one "b0,b1,...,"
string per cell (on a torus every block of a degree shares them), and each
block has one template for the rows of a cell (per component: that string
and the value as %.17g, two of them on complex fibers); each chunk is
formatted with the template by a single `%` over the chunk's strings and
values.  The format is unchanged: the bytes are those of formatting each
value with f"{v:.17g}".

The reader takes the exact header, then one row per line: fields may be
quoted, integers may carry a sign or surrounding spaces and must fit in 64
bits, and values are anything numpy parses as a float (including nan and
inf).  It rejects blank and comment lines, rows of the wrong length or
degree, axes that name no cell of that degree, component indices out of
range, base coordinates that name no cell (outside [0, n) on a torus, as
a torus of another size would write them), non-zero imaginary parts for a
real fiber, and files that leave a (cell, component) pair unset.  When a
pair appears twice, the later row wins.  The reader passes over the file
twice: a chunked pass counts its lines, which catches the blank lines and
quoted line breaks that `np.loadtxt` skips or joins, and `np.loadtxt` then
reads the rows.  That counting pass keeps the reader's memory bounded, as
the writer's chunks do: counting inside one pass, through a generator of
lines, is slower than the two passes, and holding the text in a StringIO
costs several times the file in memory.
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
    d, k = cx.d, psi.fiber.components
    # per row: the base coordinates as one string, then re (and im on complex
    # fibers); a float's imaginary part is always +0.0, printed as 0
    im = ",%.17g" if psi.fiber.is_complex else ",0"
    width = 2 + psi.fiber.is_complex
    formatted = {}  # block extents -> the "b0,b1,...," string of each base, in C order
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_header(d)) + "\r\n")
        for axes in cx.axis_subsets(psi.degree):
            prefix = f"{psi.degree},%s" + "".join(str(a) for a in axes) + ","
            cell = "".join(f"{prefix}{comp},%.17g{im}\r\n" for comp in range(k))
            bases = cx.block_bases(psi.degree, axes)
            extents = tuple(bases[:, -1] + 1)  # the last base in C order
            if extents not in formatted:
                text = ("%d," * d + "\n") * bases.shape[1] % tuple(bases.T.ravel().tolist())
                formatted[extents] = np.array(text.split("\n")[:-1], dtype=object)
            # the index of the block's first cell, its base the origin
            offset = cx.cell_indices(psi.degree, axes, bases[:, :1])[0]
            for start in range(0, bases.shape[1], _CHUNK_CELLS):
                stop = min(start + _CHUNK_CELLS, bases.shape[1])
                values = psi.values[offset + start : offset + stop]
                args = np.empty((stop - start, k, width), dtype=object)
                args[:, :, 0] = formatted[extents][start:stop, None]
                args[:, :, 1] = values.real
                if psi.fiber.is_complex:
                    args[:, :, 2] = values.imag
                handle.write(cell * (stop - start) % tuple(args.ravel().tolist()))


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
    if fiber.is_complex:
        # set the parts apart: re + 1j * im would turn an infinite im into a nan re
        values = np.empty(len(last_row), dtype=np.complex128)
        values.real = rows["re"][last_row]
        values.imag = rows["im"][last_row]
    else:
        values = rows["re"][last_row]
    return Cochain(cx, degree, fiber, values.reshape(n, fiber.components))
