"""Cubical cell complexes on flat d-dimensional tori and boxes.

Cells are elementary cubes (base vertex, sorted axis subset); the canonical
orientation of every cell is the lexicographic order of its axes, so a chain
coefficient of -1 means the reversed cell.  Indexing groups cells by axis
subset (lexicographic) and enumerates base vertices in C order, which makes
every operator below reproducible bit for bit.  The block table of each
degree is the one statement of this layout: it maps each axis subset to its
block's index offset, its extents (on a box, one cell longer off its axes),
and the primal volume and star factor that its cells share.  A cell's index
is its block's offset plus the C-order rank of its base in the block's
extents, by `cell_indices` alone; no base wraps there, on a torus as on
a box (the complement wraps a torus partner's base, its geometry, first).
Indices, grid views, complement partners, the metric and the mesh rules
all read the table.

Each convention is written once.  The boundary is written as the signed
shift maps of the block grids (`CubicalComplex._shift_terms`): the
coboundary of cochains, d and its transpose, applies them directly
(`add_coboundary`, for `calculus.d` and the free-field solver), and they
fill the face table of each degree (`face_table`, for the chain boundary
and the boundary-squared check) row by row.  The scipy matrices
`boundary_matrix` and `coboundary_matrix` (for the tests and the
benchmark's replay) read that table as it stands.  The complement is
written as `complement(p, back)`, which serves the Hodge star (back 0) and
the intersection pairing (back 1).  Only the scipy matrices need scipy.

A chain is a sparse integer vector, built from (cells, coefs) arrays and
held as read-only int64 ones: distinct cells, ascending, nonzero coefs.
The boundary, the intersection pairing and `calculus.integrate` read them.

Conventions fixed here and relied on elsewhere:

* boundary of a p-cube (v, A), A = (a_1 < ... < a_p):
      sum_t (-1)^(t-1) [ (v + e_{a_t}, A \\ a_t) - (v, A \\ a_t) ]
  which satisfies boundary . boundary = 0 exactly over the integers.
* the complement of a p-cell (v, A) is the (d-p)-cell
  (v - back on the axes outside A, comp A), signed by the permutation sign
  of (A, comp A).  With back 1 the two cells cross transversally exactly
  once with that sign: this is the convention under which the
  intersection pairing is adjoint to the boundary, hence homology
  invariant.  With back 0 it is the equal-base dual cell of the Hodge star.
"""

from __future__ import annotations

import math
import numbers
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from ._records import record
from .errors import ConfigError, DomainError, parse_integers, parse_list, parse_number, parse_object

if TYPE_CHECKING:
    import scipy.sparse as sp


def perm_sign(seq) -> int:
    """Sign of the permutation given as a sequence of distinct integers."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class CubicalComplex:
    """A cubical mesh on a flat torus or box with a diagonal metric."""

    def __init__(self, shape, spacing=None, topology: str = "torus"):
        shape = tuple(parse_number(int, n, "a 'shape' entry") for n in shape)
        if len(shape) not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {len(shape)}")
        if any(n < 2 for n in shape):
            raise ConfigError(f"every shape entry must be >= 2, got {shape}")
        if spacing is None:
            spacing = (1.0,) * len(shape)
        elif isinstance(spacing, (list, tuple)):
            spacing = tuple(parse_number(float, h, "a 'spacing' entry") for h in spacing)
        else:  # one number for every axis
            spacing = (parse_number(float, spacing, "'spacing'"),) * len(shape)
        if len(spacing) != len(shape):
            raise ConfigError("spacing must have one entry per axis")
        if not all(h > 0 for h in spacing):  # NaN fails too
            raise ConfigError(f"spacing entries must be positive, got {spacing}")
        if topology not in ("torus", "box"):
            raise ConfigError(f"topology must be 'torus' or 'box', got {topology!r}")
        self.shape = shape
        self.spacing = spacing
        self.topology = topology
        self.d = len(shape)
        # the block table: per degree, each axis subset maps to (index
        # offset, extents, primal volume, star factor)
        self._blocks = {}
        for p in range(self.d + 1):
            offset, blocks = 0, {}
            for axes in combinations(range(self.d), p):
                extents = tuple(
                    n + (0 if (i in axes or topology == "torus") else 1) for i, n in enumerate(shape)
                )
                volume = math.prod((spacing[a] for a in axes), start=1.0)
                star = math.prod((h for i, h in enumerate(spacing) if i not in axes), start=1.0)
                for a in axes:
                    star /= spacing[a]
                blocks[axes] = (offset, extents, volume, star)
                offset += math.prod(extents)
            self._blocks[p] = blocks
        # an infinite spacing, or one whose products over- or underflow,
        # would turn the star, the action and the solver into inf and nan
        metric = [x for blocks in self._blocks.values() for row in blocks.values() for x in row[2:]]
        if not all(0 < x < math.inf for x in metric):
            raise ConfigError(
                f"spacing {spacing} gives a cell volume or star factor that is not "
                "a finite positive number"
            )
        # checked before anything is allocated: one numpy array holds at most
        # 2**63 - 1 bytes, and the widest array per cell is the degree-3 face
        # table's 6 int64 entries (a fiber has at most 4 floats)
        most = max(self.cell_count(p) for p in self._blocks)
        if most * 48 > 2**63 - 1:
            raise ConfigError(f"mesh shape {shape} has {most} cells of one degree: too many to hold")
        self._faces = {}
        self._shifts = {}
        self._complement = {}

    # -- cells -------------------------------------------------------------

    def axis_subsets(self, degree: int):
        return tuple(self._blocks[degree])

    def cell_count(self, degree: int) -> int:
        if not 0 <= degree <= self.d:
            raise DomainError(f"no cells of degree {degree} in dimension {self.d}")
        offset, extents, *_ = next(reversed(self._blocks[degree].values()))
        return offset + math.prod(extents)

    def _block(self, degree: int, axes) -> tuple:
        """The block table row of the p-cells on `axes`."""
        try:
            return self._blocks[degree][tuple(axes)]
        except KeyError:
            raise DomainError(f"no degree-{degree} cells with axes {tuple(axes)}") from None

    def cell_indices(self, degree: int, axes, bases) -> np.ndarray:
        """Indices of the cells spanning `axes` at the base coordinates given
        as the columns of a (d, m) integer array (one base as a (d,) array
        gives one index): the one rule that names a cell.  Nothing wraps, on
        a torus as on a box: a base outside its block, past int64 too, is a
        DomainError that names the first such base; so is a short or long base.
        """
        offset, extents, *_ = self._block(degree, axes)
        if len(bases) != self.d:
            raise DomainError(f"a cell base needs {self.d} coordinates, got {len(bases)}")
        try:
            return offset + np.ravel_multi_index(np.asarray(bases, dtype=np.int64), extents)
        except (ValueError, OverflowError):  # named in Python ints, past int64 too
            columns = (tuple(map(int, b)) for b in np.asarray(bases, dtype=object).reshape(self.d, -1).T)
            base = next(b for b in columns if not all(0 <= x < n for x, n in zip(b, extents)))
            raise DomainError(f"base {base} lies outside the block of axes {tuple(axes)}") from None

    def block_bases(self, degree: int, axes) -> np.ndarray:
        """Base coordinates (d, count) of the cells spanning `axes`, in index order."""
        return np.indices(self._block(degree, axes)[1]).reshape(self.d, -1)

    # -- incidence ---------------------------------------------------------

    def face_table(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """The incidence of the degree-p cells as (faces, signs), each (2p, n_p).

        Column j holds the 2p faces of p-cell j in ascending index order and
        their incidence signs, so faces[t] is the t-th smallest face of every
        cell.  Each term of `_shift_terms(p - 1)` writes its face indices
        and its sign into its row, at the cells it covers.  Faces are int32
        whenever the (p-1)-cell indices fit, signs int8.  Read-only.
        """
        if degree not in self._faces:
            if not 1 <= degree <= self.d:
                raise DomainError(f"no boundary operator for degree {degree}")
            n_faces, n_cells = self.cell_count(degree - 1), self.cell_count(degree)
            index = np.arange(n_faces, dtype=np.int32 if n_faces < 2**31 else np.int64)
            faces = np.empty((2 * degree, n_cells), dtype=index.dtype)
            signs = np.empty((2 * degree, n_cells), dtype=np.int8)
            face_grids = self._grid_views(degree - 1, index)
            face_rows, sign_rows = self._grid_views(degree, faces), self._grid_views(degree, signs)
            for row, axes, cell_slice, face_axes, face_slice, add in self._shift_terms(degree - 1):
                face_rows[axes][row][cell_slice] = face_grids[face_axes][face_slice]
                sign_rows[axes][row][cell_slice] = 1 if add else -1
            faces.setflags(write=False)
            signs.setflags(write=False)
            self._faces[degree] = (faces, signs)
        return self._faces[degree]

    def coboundary_matrix(self, degree: int) -> sp.csr_matrix:
        """Float transpose of boundary_matrix(degree+1), (n_{p+1}, n_p): the
        face table of degree p+1 read as CSR rows, already canonical.  The
        reference that the shift maps of add_coboundary are tested against."""
        # scipy loads on first use: no command needs incidence as a matrix
        import scipy.sparse as sp

        faces, signs = self.face_table(degree + 1)
        width, n = faces.shape
        indptr = np.arange(0, width * n + 1, width)
        data = signs.T.astype(np.float64).ravel()
        return sp.csr_matrix((data, faces.T.ravel(), indptr), shape=(n, self.cell_count(degree)))

    def boundary_matrix(self, degree: int) -> sp.csr_matrix:
        """Integer incidence matrix of shape (n_{p-1}, n_p)."""
        return self.coboundary_matrix(degree - 1).astype(np.int64).T.tocsr()

    def _shift_terms(self, degree: int) -> tuple:
        """The coboundary from degree p to p+1 as signed shift maps.

        Each term (row, A, cell_slice, F, face_slice, add) pairs the cells of block
        A (a (p+1)-axis subset) picked by cell_slice with their faces in block
        F = A \\ a_t picked by face_slice, both indexing the block grids;
        `add` is true where that face's sign is +1.  The lower face (v, F)
        sits at the same grid place, the upper one a step further along a_t.
        On a torus the wrap slab (v_{a_t} = n - 1, upper face at base 0) is
        a term of its own; on a box the face block is one cell longer along
        a_t.  Per block the terms run over decreasing t (ascending face
        block), in pairs that cover every cell once.  Each term carries the
        row of the face table of degree p+1 that it fills: of each pair, the
        lower face index (on the wrap slab, the upper face at base 0) takes
        the first of t's two rows.
        """
        if degree not in self._shifts:

            def along(a, sl):
                return (Ellipsis,) + (slice(None),) * a + (sl,) + (slice(None),) * (self.d - 1 - a)

            terms = []
            for axes in self._blocks[degree + 1]:
                for t in reversed(range(degree + 1)):
                    a, n = axes[t], self.shape[axes[t]]
                    up = t % 2 == 0  # the upper face has sign (-1)^t
                    row = 2 * (degree - t)
                    if self.topology == "torus":
                        inner, last = slice(0, n - 1), slice(n - 1, n)
                        pairs = [(row, inner, inner, not up), (row + 1, inner, slice(1, n), up),
                                 (row, last, slice(0, 1), up), (row + 1, last, last, not up)]
                    else:
                        pairs = [(row, slice(None), slice(0, n), not up),
                                 (row + 1, slice(None), slice(1, n + 1), up)]
                    face = axes[:t] + axes[t + 1 :]
                    terms += [(r, axes, along(a, c), face, along(a, f), add) for r, c, f, add in pairs]
            self._shifts[degree] = tuple(terms)
        return self._shifts[degree]

    def _grid_views(self, degree: int, arr: np.ndarray) -> dict:
        """Views of arr's last axis (one entry per degree-p cell) as block grids."""
        if arr.shape[-1] != self.cell_count(degree):
            raise DomainError(
                f"expected {self.cell_count(degree)} degree-{degree} cells on the last axis, "
                f"got {arr.shape[-1]}"
            )
        lead = arr.shape[:-1]
        # splitting one axis is always a view, so writes reach arr
        return {
            axes: arr[..., offset : offset + math.prod(extents)].reshape(lead + extents)
            for axes, (offset, extents, *_) in self._blocks[degree].items()
        }

    def add_coboundary(self, degree: int, x: np.ndarray, out: np.ndarray, transpose: bool = False) -> None:
        """Add d x to out in place, or d^T x when transpose is set.

        x and out hold cochains along their last axis: degree p and p+1 for
        d, p+1 and p for d^T, with any leading axes (fiber components,
        solver columns).  Each term of `_shift_terms` is one in-place add or
        subtract of strided block slices, with no gather and no matrix.  The
        terms run in face-table row order, so adding a real d x to zeros
        gives the CSR product with coboundary_matrix(p) to the bit.
        """
        if not 0 <= degree < self.d:
            raise DomainError(f"no coboundary from degree {degree} in dimension {self.d}")
        cells = self._grid_views(degree + 1, x if transpose else out)
        faces = self._grid_views(degree, out if transpose else x)
        for _, axes, cell_slice, face_axes, face_slice, add in self._shift_terms(degree):
            target, term = cells[axes][cell_slice], faces[face_axes][face_slice]
            if transpose:
                target, term = term, target
            (np.add if add else np.subtract)(target, term, out=target)

    # -- metric / duality --------------------------------------------------

    def _repeat(self, degree: int, column: int) -> np.ndarray:
        """A column of the block table, repeated over each block's cells."""
        blocks = self._blocks[degree].values()
        return np.repeat([row[column] for row in blocks], [math.prod(row[1]) for row in blocks])

    def primal_volumes(self, degree: int) -> np.ndarray:
        return self._repeat(degree, 2)

    def star_factors(self, degree: int) -> np.ndarray:
        """Dual/primal volume ratio per cell (defined on any topology)."""
        return self._repeat(degree, 3)

    def complement(self, degree: int, back: int) -> tuple[np.ndarray, np.ndarray]:
        """The signed complement map of the degree-p cells as (signs, partner).

        The partner of the p-cell (v, A) is the (d-p)-cell (v - back on the
        axes outside A, comp A), wrapped on a torus and -1 where a box has no
        such cell; its sign is the permutation sign of (A, comp A).  back=0
        is the equal-base dual of the Hodge star, back=1 the cell that (v, A)
        crosses in the intersection pairing.  Read-only; signs int8.
        """
        if (degree, back) not in self._complement:
            n = self.cell_count(degree)
            signs = np.empty(n, dtype=np.int8)
            partner = np.full(n, -1, dtype=np.int64)
            for axes, (offset, extents, *_) in self._blocks[degree].items():
                comp = tuple(i for i in range(self.d) if i not in axes)
                base = np.indices(extents).reshape(self.d, -1)
                base[list(comp)] -= back
                cols = slice(offset, offset + base.shape[1])
                signs[cols] = perm_sign(axes + comp)
                comp_extents = np.array(self._block(self.d - degree, comp)[1])[:, None]
                if self.topology == "torus":  # geometry: v - 1 at v = 0 is the cell at n - 1
                    base += comp_extents * (base < 0)
                    partner[cols] = self.cell_indices(self.d - degree, comp, base)
                else:  # a partner outside its block stays -1
                    inside = ((base >= 0) & (base < comp_extents)).all(axis=0)
                    partner[cols][inside] = self.cell_indices(self.d - degree, comp, base[:, inside])
            signs.setflags(write=False)
            partner.setflags(write=False)
            self._complement[degree, back] = (signs, partner)
        return self._complement[degree, back]


class Chain:
    """An integer-weighted formal sum of cells of one degree, given as
    `cells` (from `CubicalComplex.cell_indices`) and one coefficient each in
    `coefs`; repeated cells add up.  Held in normal form (module docstring);
    a coefficient outside +-(2**63 - 1) is a DomainError, so negation never wraps.
    """

    __slots__ = ("complex", "degree", "cells", "coefs")

    def __init__(self, complex: CubicalComplex, degree: int, cells=(), coefs=()):
        if not 0 <= degree <= complex.d:
            raise DomainError(f"no chains of degree {degree} in dimension {complex.d}")
        try:
            cells = np.asarray(cells, dtype=np.int64).ravel()
            coefs = np.asarray(coefs, dtype=np.int64).ravel()
            if coefs.size != cells.size:
                raise DomainError(f"{cells.size} cells need as many coefficients, got {coefs.size}")
            bad = cells[(cells < 0) | (cells >= complex.cell_count(degree))]
            if bad.size:
                raise DomainError(f"cell index {bad[0]} out of range for degree {degree}")
            order = np.argsort(cells, kind="stable")
            cells, coefs = cells[order], coefs[order]
            starts = np.flatnonzero(np.diff(cells, prepend=-1))
            if starts.size < cells.size:
                # Python-int sums, so that a sum past int64 raises
                cells = cells[starts]
                coefs = np.add.reduceat(coefs.astype(object), starts).astype(np.int64)
            if (coefs == -(2**63)).any():
                raise OverflowError
        except OverflowError:
            raise DomainError("chain cells and coefficients must lie within +-(2**63 - 1)") from None
        nonzero = coefs != 0
        self.complex = complex
        self.degree = degree
        self.cells, self.coefs = cells[nonzero], coefs[nonzero]
        self.cells.setflags(write=False)
        self.coefs.setflags(write=False)

    def __bool__(self) -> bool:
        return bool(self.cells.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.complex is other.complex
            and self.degree == other.degree
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.coefs, other.coefs)
        )

    def _binop(self, other, sign):
        if not isinstance(other, Chain):
            return NotImplemented
        if other.complex is not self.complex or other.degree != self.degree:
            raise DomainError("chains must live on the same complex and degree")
        cells = np.concatenate([self.cells, other.cells])
        coefs = np.concatenate([self.coefs, sign * other.coefs])
        return Chain(self.complex, self.degree, cells=cells, coefs=coefs)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, numbers.Integral):
            return NotImplemented  # a float is not truncated
        coefs = int(scalar) * self.coefs.astype(object)
        return Chain(self.complex, self.degree, cells=self.cells, coefs=coefs)

    def __repr__(self):
        return f"Chain(degree={self.degree}, cells={self.cells.size})"


def boundary(chain: Chain) -> Chain:
    """Integer boundary; boundary(boundary(c)) is exactly zero."""
    if chain.degree == 0:
        raise DomainError("0-chains have no boundary")
    faces, signs = chain.complex.face_table(chain.degree)
    coefs = signs[:, chain.cells] * chain.coefs
    return Chain(chain.complex, chain.degree - 1, cells=faces[:, chain.cells], coefs=coefs)


def is_cycle(chain: Chain) -> bool:
    if chain.degree == 0:
        return True
    return not boundary(chain)


@record()
class Cobordism:
    """A (q+1)-chain whose boundary is target - source, exactly.

    `target`, source + boundary(filling), is set by `__post_init__`: it
    follows from the fields, so equality compares those alone."""

    complex: CubicalComplex
    filling: Chain
    source: Chain

    def __post_init__(self):
        if self.filling.degree != self.source.degree + 1:
            raise DomainError("a cobordism's filling must lie one degree above its source")
        object.__setattr__(self, "target", self.source + boundary(self.filling))


def named_cycle(complex: CubicalComplex, spec: dict) -> Chain:
    """Construct a chain from a spec dictionary.

    Supported kinds:
      {"kind": "loop", "axis": a, "offsets": [transverse coords in axis order]}
      {"kind": "plane", "normal": n, "offset": o}
      {"kind": "cells", "items": [{"degree": p, "base": [..], "axes": [..], "coef": c}]}

    Loop and plane specs produce cycles on torus topology.  A spec holds the
    keys shown (`coef` may go), each list is a JSON array under `errors.parse_list`,
    and every number is an integer under `errors.parse_number`.
    """
    parse_object(spec, "chain spec", ("kind",), ("axis", "offsets", "normal", "offset", "items"))
    kind = spec["kind"]
    if kind == "loop":
        parse_object(spec, "a loop spec", ("kind", "axis", "offsets"))
        axis = parse_number(int, spec["axis"], "loop 'axis'")
        if not 0 <= axis < complex.d:
            raise ConfigError(f"loop axis {axis} out of range")
        offsets = parse_integers(spec["offsets"], "loop 'offsets'", complex.d - 1)
        return _unit_chain(complex, (axis,), offsets, f"loop offsets {offsets}")
    if kind == "plane":
        parse_object(spec, "a plane spec", ("kind", "normal", "offset"))
        normal = parse_number(int, spec["normal"], "plane 'normal'")
        if not 0 <= normal < complex.d:
            raise ConfigError(f"plane normal {normal} out of range")
        offset = parse_number(int, spec["offset"], "plane 'offset'")
        axes = tuple(i for i in range(complex.d) if i != normal)
        return _unit_chain(complex, axes, [offset], f"plane offset {offset}")
    if kind == "cells":
        items = parse_object(spec, "a cells spec", ("kind", "items"))["items"]
        items = parse_list(items, "cells spec 'items'")
        if not items:
            raise ConfigError("cells spec needs a non-empty 'items' list")
        cells, coefs, degrees = [], [], []
        for item in items:
            parse_object(item, "chain item", ("degree", "base", "axes"), ("coef",))
            degrees.append(parse_number(int, item["degree"], "chain item 'degree'"))
            if degrees[-1] != degrees[0]:
                raise DomainError("all cells of a chain must share one degree")
            base = parse_integers(item["base"], "chain item 'base'")
            axes = parse_integers(item["axes"], "chain item 'axes'")
            cells.append(complex.cell_indices(degrees[0], axes, base))
            coefs.append(parse_number(int, item.get("coef", 1), "chain item 'coef'"))
        return Chain(complex, degrees[0], cells=cells, coefs=coefs)
    raise ConfigError(f"unknown chain spec kind {kind!r}")


def _grid_chain(complex: CubicalComplex, axes, extents, origin=0, coef=1) -> Chain:
    """The cells on `axes` based at origin + np.indices(extents), each with coefficient `coef`."""
    bases = np.indices(extents).reshape(complex.d, -1) + np.reshape(origin, (-1, 1))
    cells = complex.cell_indices(len(axes), axes, bases)
    return Chain(complex, len(axes), cells, np.full_like(cells, coef))


def _unit_chain(complex: CubicalComplex, axes: tuple, offsets, what: str) -> Chain:
    """The cells spanning `axes` at `offsets` on the other axes (in axis
    order), each with coefficient 1.  The block table decides which offsets
    name cells; a ConfigError naming `what` where one does not."""
    extents = [n if i in axes else 1 for i, n in enumerate(complex.shape)]
    origin = np.zeros(complex.d, dtype=np.int64)
    try:
        origin[[i for i in range(complex.d) if i not in axes]] = np.array(offsets, dtype=np.int64)
        return _grid_chain(complex, axes, extents, origin)
    except (DomainError, OverflowError):  # OverflowError: an offset past int64
        raise ConfigError(f"{what} out of range") from None


def intersection_number(a: Chain, b: Chain) -> int:
    """Signed count of transversal crossings of complementary-degree chains.

    Each p-cell of a crosses its `CubicalComplex.complement(p, 1)` partner
    once, with the sign given there.  Bilinear; vanishes when one argument
    is a boundary and the other a cycle.
    """
    if a.complex is not b.complex:
        raise DomainError("chains must live on the same complex")
    cx = a.complex
    if a.degree + b.degree != cx.d:
        raise DomainError(
            f"degrees must be complementary: {a.degree} + {b.degree} != {cx.d}"
        )
    if not b:
        return 0
    signs, partner = cx.complement(a.degree, 1)
    partners = partner[a.cells]
    # b's cells ascend and are distinct, so one search gives membership and position
    at = np.searchsorted(b.cells, partners).clip(max=b.cells.size - 1)
    hit = b.cells[at] == partners
    crossings = zip(a.coefs[hit].tolist(), b.coefs[at[hit]].tolist(), signs[a.cells[hit]].tolist())
    # Python ints: coefficients reach 2**53, so an int64 product can overflow
    return sum(i * j * s for i, j, s in crossings)
