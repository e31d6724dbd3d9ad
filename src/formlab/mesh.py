"""Cubical cell complexes on flat d-dimensional tori and boxes.

Cells are elementary cubes (base vertex, sorted axis subset); the canonical
orientation of every cell is the lexicographic order of its axes, so a chain
coefficient of -1 means the reversed cell.  Indexing groups cells by axis
subset (lexicographic) and enumerates base vertices in C order, which makes
every operator below reproducible bit for bit.

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

A chain is a sparse integer vector: read-only int64 arrays of its distinct
cell indices, ascending, and of their nonzero coefficients.  The boundary,
the intersection pairing and `calculus.integrate` read those arrays.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, parse_number

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


@dataclass(frozen=True)
class Cell:
    """An oriented elementary cube of the mesh."""

    degree: int
    base: tuple
    axes: tuple

    def __post_init__(self):
        if tuple(sorted(set(self.axes))) != tuple(self.axes):
            raise DomainError(f"cell axes must be strictly increasing, got {self.axes}")
        if len(self.axes) != self.degree:
            raise DomainError("cell degree must equal the number of spanned axes")


class CubicalComplex:
    """A cubical mesh on a flat torus or box with a diagonal metric."""

    def __init__(self, shape, spacing=None, topology: str = "torus"):
        shape = tuple(parse_number(int, n, "a shape entry") for n in shape)
        if len(shape) not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {len(shape)}")
        if any(n < 2 for n in shape):
            raise ConfigError(f"every shape entry must be >= 2, got {shape}")
        if spacing is None:
            spacing = (1.0,) * len(shape)
        elif np.isscalar(spacing):
            spacing = (parse_number(float, spacing, "the spacing"),) * len(shape)
        else:
            spacing = tuple(parse_number(float, h, "a spacing entry") for h in spacing)
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
        self._subsets = {
            p: tuple(combinations(range(self.d), p)) for p in range(self.d + 1)
        }
        # an infinite spacing, or one whose products over- or underflow,
        # would turn the star, the action and the solver into inf and nan
        if not all(0 < x < math.inf for p in self._subsets for m in self._metric(p) for x in m):
            raise ConfigError(
                f"spacing {spacing} gives a cell volume or star factor that is not "
                "a finite positive number"
            )
        # per degree: extents, C-order strides and index offset of each subset block
        self._blocks = {}
        self._counts = {}
        for p in range(self.d + 1):
            offset = 0
            blocks = {}
            for axes in self._subsets[p]:
                extents = tuple(
                    self.shape[i] + (0 if (i in axes or self.topology == "torus") else 1)
                    for i in range(self.d)
                )
                strides = []
                acc = 1
                for n in reversed(extents):
                    strides.append(acc)
                    acc *= n
                blocks[axes] = (offset, extents, tuple(reversed(strides)))
                offset += acc
            self._blocks[p] = blocks
            self._counts[p] = offset
        # checked before anything is allocated: one numpy array holds at most
        # 2**63 - 1 bytes, and the widest array per cell is the degree-3 face
        # table's 6 int64 entries (a fiber has at most 4 floats)
        most = max(self._counts.values())
        if most * 48 > 2**63 - 1:
            raise ConfigError(f"mesh shape {shape} has {most} cells of one degree: too many to hold")
        self._block_starts = {
            p: [self._blocks[p][axes][0] for axes in self._subsets[p]]
            for p in range(self.d + 1)
        }
        self._faces = {}
        self._shifts = {}
        self._complement = {}

    # -- cells -------------------------------------------------------------

    def axis_subsets(self, degree: int):
        return self._subsets[degree]

    def cell_count(self, degree: int) -> int:
        if not 0 <= degree <= self.d:
            raise DomainError(f"no cells of degree {degree} in dimension {self.d}")
        return self._counts[degree]

    def cell_index(self, degree: int, base, axes) -> int:
        axes = tuple(axes)
        try:
            offset, extents, strides = self._blocks[degree][axes]
        except KeyError:
            raise DomainError(f"no degree-{degree} cells with axes {axes}") from None
        if len(base) != self.d:
            raise DomainError(f"a cell base needs {self.d} coordinates, got {len(base)}")
        idx = offset
        for i, (b, n, s) in enumerate(zip(base, extents, strides)):
            b = int(b)
            if self.topology == "torus":
                b %= self.shape[i]
            elif not 0 <= b < n:
                raise DomainError(f"base coordinate {b} out of range on axis {i}")
            idx += b * s
        return idx

    def cell(self, degree: int, index: int) -> Cell:
        if not 0 <= index < self.cell_count(degree):
            raise DomainError(f"cell index {index} out of range for degree {degree}")
        starts = self._block_starts[degree]
        k = bisect_right(starts, index) - 1
        axes = self._subsets[degree][k]
        offset, extents, strides = self._blocks[degree][axes]
        rem = index - offset
        base = []
        for s in strides:
            base.append(rem // s)
            rem %= s
        return Cell(degree, tuple(base), axes)

    def cell_indices(self, degree: int, axes, bases) -> np.ndarray:
        """Vectorised cell_index: indices of the cells spanning `axes` at the
        base coordinates given as the columns of a (d, m) integer array.

        Unlike cell_index it never wraps: a base outside the block's extents
        is an error on a torus too.
        """
        axes = tuple(axes)
        try:
            offset, extents, strides = self._blocks[degree][axes]
        except KeyError:
            raise DomainError(f"no degree-{degree} cells with axes {axes}") from None
        bases = np.asarray(bases, dtype=np.int64)
        if ((bases < 0) | (bases >= np.array(extents)[:, None])).any():
            raise DomainError(f"base coordinates out of range for axes {axes}")
        return offset + np.array(strides) @ bases

    def block_bases(self, degree: int, axes) -> np.ndarray:
        """Base coordinates (d, count) of the cells spanning `axes`, in index order."""
        extents = self._blocks[degree][tuple(axes)][1]
        return np.indices(extents).reshape(self.d, -1)

    # -- incidence ---------------------------------------------------------

    def face_table(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """The incidence of the degree-p cells as (faces, signs), each (2p, n_p).

        Column j holds the 2p faces of p-cell j in ascending index order and
        their incidence signs, so faces[t] is the t-th smallest face of every
        cell.  Each term of `_shift_terms(p - 1)` writes its face indices
        and its sign into one row, at the cells it covers.  Faces are int32
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
            # the row of each term, as _shift_terms lays them out
            group = 4 if self.topology == "torus" else 2
            terms = self._shift_terms(degree - 1)
            for i, (axes, cell_slice, face_axes, face_slice, add) in enumerate(terms):
                row = i // group % degree * 2 + i % 2
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

        Each term (A, cell_slice, F, face_slice, add) pairs the cells of block
        A (a (p+1)-axis subset) picked by cell_slice with their faces in block
        F = A \\ a_t picked by face_slice, both indexing the block grids;
        `add` is true where that face's sign is +1.  The lower face (v, F)
        sits at the same grid place, the upper one a step further along a_t.
        On a torus the wrap slab (v_{a_t} = n - 1, upper face at base 0) is
        a term of its own; on a box the face block is one cell longer along
        a_t.  Per block the terms run over decreasing t (ascending face
        block), in pairs that cover every cell once, lower face index first
        (upper, at base 0, first on the wrap slab).  So term i fills row
        i // g % (p + 1) * 2 + i % 2 of the face table of degree p+1, with
        g = 4 terms per t on a torus and 2 on a box.
        """
        if degree not in self._shifts:

            def along(a, sl):
                return (Ellipsis,) + (slice(None),) * a + (sl,) + (slice(None),) * (self.d - 1 - a)

            terms = []
            for axes in self._subsets[degree + 1]:
                for t in reversed(range(degree + 1)):
                    a, n = axes[t], self.shape[axes[t]]
                    up = t % 2 == 0  # the upper face has sign (-1)^t
                    if self.topology == "torus":
                        inner, last = slice(0, n - 1), slice(n - 1, n)
                        pairs = [(inner, inner, not up), (inner, slice(1, n), up),
                                 (last, slice(0, 1), up), (last, last, not up)]
                    else:
                        pairs = [(slice(None), slice(0, n), not up), (slice(None), slice(1, n + 1), up)]
                    face = axes[:t] + axes[t + 1 :]
                    terms += [(axes, along(a, c), face, along(a, f), add) for c, f, add in pairs]
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
            for axes, (offset, extents, _) in self._blocks[degree].items()
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
        for axes, cell_slice, face_axes, face_slice, add in self._shift_terms(degree):
            target, term = cells[axes][cell_slice], faces[face_axes][face_slice]
            if transpose:
                target, term = term, target
            (np.add if add else np.subtract)(target, term, out=target)

    # -- metric / duality --------------------------------------------------

    def _metric(self, degree: int) -> list:
        """(primal volume, star factor) of each axis subset of degree p."""
        metric = []
        for axes in self._subsets[degree]:
            v = 1.0
            for a in axes:
                v *= self.spacing[a]
            f = 1.0
            for b in range(self.d):
                if b not in axes:
                    f *= self.spacing[b]
            for a in axes:
                f /= self.spacing[a]
            metric.append((v, f))
        return metric

    def _per_cell(self, degree: int, values) -> np.ndarray:
        out = np.empty(self.cell_count(degree))
        for axes, value in zip(self._subsets[degree], values):
            offset, extents, _ = self._blocks[degree][axes]
            out[offset : offset + math.prod(extents)] = value
        return out

    def primal_volumes(self, degree: int) -> np.ndarray:
        return self._per_cell(degree, [v for v, _ in self._metric(degree)])

    def star_factors(self, degree: int) -> np.ndarray:
        """Dual/primal volume ratio per cell (defined on any topology)."""
        return self._per_cell(degree, [f for _, f in self._metric(degree)])

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
            partner = np.empty(n, dtype=np.int64)
            for axes in self._subsets[degree]:
                offset = self._blocks[degree][axes][0]
                comp = tuple(i for i in range(self.d) if i not in axes)
                comp_offset, extents, strides = self._blocks[self.d - degree][comp]
                base = self.block_bases(degree, axes)
                base[list(comp)] -= back
                if self.topology == "torus":
                    base %= np.array(self.shape)[:, None]
                inside = ((base >= 0) & (base < np.array(extents)[:, None])).all(axis=0)
                cols = slice(offset, offset + base.shape[1])
                signs[cols] = perm_sign(axes + comp)
                partner[cols] = np.where(inside, comp_offset + np.array(strides) @ base, -1)
            signs.setflags(write=False)
            partner.setflags(write=False)
            self._complement[degree, back] = (signs, partner)
        return self._complement[degree, back]


class Chain:
    """An integer-weighted formal sum of cells of one degree, given as a
    {cell index: coefficient} dict or as `cells` and `coefs` sequences, in
    which repeated cells add up.  Held in normal form (module docstring); a
    coefficient outside +-(2**63 - 1) is a DomainError, so negation never wraps.
    """

    __slots__ = ("complex", "degree", "cells", "coefs")

    def __init__(self, complex: CubicalComplex, degree: int, coeffs=None, *, cells=(), coefs=()):
        if not 0 <= degree <= complex.d:
            raise DomainError(f"no chains of degree {degree} in dimension {complex.d}")
        if coeffs:
            cells, coefs = list(coeffs), list(coeffs.values())
        try:
            cells = np.asarray(cells, dtype=np.int64).ravel()
            bad = cells[(cells < 0) | (cells >= complex.cell_count(degree))]
            if bad.size:
                raise DomainError(f"cell index {bad[0]} out of range for degree {degree}")
            order = np.argsort(cells, kind="stable")
            cells, coefs = cells[order], np.asarray(coefs, dtype=np.int64).ravel()[order]
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


@dataclass(frozen=True)
class Cobordism:
    """A (q+1)-chain whose boundary is target - source, exactly."""

    complex: CubicalComplex
    filling: Chain
    source: Chain
    target: Chain = field(init=False)

    def __post_init__(self):
        # the sum raises DomainError unless the filling is one degree above the source
        object.__setattr__(self, "target", self.source + boundary(self.filling))


def named_cycle(complex: CubicalComplex, spec: dict) -> Chain:
    """Construct a chain from a spec dictionary.

    Supported kinds:
      {"kind": "loop", "axis": a, "offsets": [transverse coords in axis order]}
      {"kind": "plane", "normal": n, "offset": o}
      {"kind": "cells", "items": [{"degree": p, "base": [..], "axes": [..], "coef": c}]}

    Loop and plane specs produce cycles on torus topology.  Every number of
    a spec is an integer under `errors.parse_number`.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"chain spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if kind == "loop":
        axis = parse_number(int, spec["axis"], "loop 'axis'")
        if not 0 <= axis < complex.d:
            raise ConfigError(f"loop axis {axis} out of range")
        offsets = [parse_number(int, off, "loop 'offsets'") for off in spec["offsets"]]
        others = [i for i in range(complex.d) if i != axis]
        if len(offsets) != len(others):
            raise ConfigError(
                f"loop offsets must give the {len(others)} transverse coordinates"
            )
        for i, off in zip(others, offsets):
            if not 0 <= off < complex.shape[i]:
                raise ConfigError(f"loop offset {off} out of range on axis {i}")
        bases = np.zeros((complex.d, complex.shape[axis]), dtype=np.int64)
        bases[axis] = np.arange(complex.shape[axis])
        bases[others] = np.array(offsets, dtype=np.int64)[:, None]
        cells = complex.cell_indices(1, (axis,), bases)
        return Chain(complex, 1, cells=cells, coefs=np.ones_like(cells))
    if kind == "plane":
        normal = parse_number(int, spec["normal"], "plane 'normal'")
        if not 0 <= normal < complex.d:
            raise ConfigError(f"plane normal {normal} out of range")
        offset = parse_number(int, spec["offset"], "plane 'offset'")
        if not 0 <= offset < complex.shape[normal]:
            raise ConfigError(f"plane offset {offset} out of range")
        axes = tuple(i for i in range(complex.d) if i != normal)
        extents = [1 if i == normal else n for i, n in enumerate(complex.shape)]
        bases = np.indices(extents).reshape(complex.d, -1)
        bases[normal] = offset
        cells = complex.cell_indices(complex.d - 1, axes, bases)
        return Chain(complex, complex.d - 1, cells=cells, coefs=np.ones_like(cells))
    if kind == "cells":
        items = spec.get("items")
        if not items:
            raise ConfigError("cells spec needs a non-empty 'items' list")
        degree = parse_number(int, items[0]["degree"], "chain item 'degree'")
        cells, coefs = [], []
        for item in items:
            if parse_number(int, item["degree"], "chain item 'degree'") != degree:
                raise DomainError("all cells of a chain must share one degree")
            base = [parse_number(int, b, "chain item 'base'") for b in item["base"]]
            axes = [parse_number(int, a, "chain item 'axes'") for a in item["axes"]]
            cells.append(complex.cell_index(degree, base, axes))
            coefs.append(parse_number(int, item.get("coef", 1), "chain item 'coef'"))
        return Chain(complex, degree, cells=cells, coefs=coefs)
    raise ConfigError(f"unknown chain spec kind {kind!r}")


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
    signs, partner = cx.complement(a.degree, 1)
    partners = partner[a.cells]
    hit = np.isin(partners, b.cells)
    at = np.searchsorted(b.cells, partners[hit])
    crossings = zip(a.coefs[hit].tolist(), b.coefs[at].tolist(), signs[a.cells[hit]].tolist())
    # Python ints: coefficients reach 2**53, so an int64 product can overflow
    return sum(i * j * s for i, j, s in crossings)
