"""CSV import/export of field cochains.

Columns: degree, base coordinate per axis, the spanned axes as a digit
string, the fiber component index, and the value as re/im.  Rows are sorted
by cell index then component; values are printed with 17 significant digits
so the round trip is bit exact.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .calculus import Cochain, FiberSpec
from .errors import ConfigError
from .mesh import CubicalComplex


def _header(d: int) -> list:
    return ["degree"] + [f"base{i}" for i in range(d)] + ["axes", "component_index", "re", "im"]


def emit_field_csv(psi: Cochain, path) -> None:
    """Write a cochain as CSV; see the module docstring for the layout."""
    cx = psi.complex
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_header(cx.d))
        for idx in range(cx.cell_count(psi.degree)):
            cell = cx.cell(psi.degree, idx)
            axes = "".join(str(a) for a in cell.axes)
            for comp in range(psi.fiber.components):
                v = complex(psi.values[idx, comp])
                writer.writerow(
                    [psi.degree, *cell.base, axes, comp, f"{v.real:.17g}", f"{v.imag:.17g}"]
                )


def load_field_csv(cx: CubicalComplex, degree: int, fiber: FiberSpec, path) -> Cochain:
    """Read a cochain written by emit_field_csv."""
    path = Path(path)
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read field CSV {path}: {exc}") from exc
    values = np.zeros((cx.cell_count(degree), fiber.components), dtype=fiber.dtype)
    seen = np.zeros(values.shape, dtype=bool)
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _header(cx.d):
            raise ConfigError(f"unexpected CSV header in {path}")
        # one try around the whole loop: entering it costs nothing per row
        try:
            for row in reader:
                if len(row) != len(header):
                    raise ConfigError(f"malformed CSV row in {path}: {row!r}")
                row_degree = int(row[0])
                if row_degree != degree:
                    raise ConfigError(
                        f"CSV row of degree {row_degree} does not match field degree {degree}"
                    )
                base = tuple(int(b) for b in row[1 : 1 + cx.d])
                axes = tuple(int(ch) for ch in row[1 + cx.d])
                comp = int(row[2 + cx.d])
                re, im = float(row[3 + cx.d]), float(row[4 + cx.d])
                if not fiber.is_complex and im != 0.0:
                    raise ConfigError("imaginary parts in a CSV for a real fiber")
                idx = cx.cell_index(degree, base, axes)
                if not 0 <= comp < fiber.components:
                    raise ConfigError(f"component index {comp} out of range")
                values[idx, comp] = re + 1j * im if fiber.is_complex else re
                seen[idx, comp] = True
        except ValueError as exc:
            raise ConfigError(f"malformed CSV row in {path}: {row!r} ({exc})") from exc
    if not seen.all():
        raise ConfigError(f"field CSV {path} does not cover every cell and component")
    return Cochain(cx, degree, fiber, values)
