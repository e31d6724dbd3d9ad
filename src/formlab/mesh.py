"""Cubical cell complexes on flat d-dimensional tori and boxes.

Cells are elementary cubes (base vertex, sorted axis subset); the canonical
orientation of every cell is the lexicographic order of its axes, so a chain
coefficient of -1 means the reversed cell.  Indexing groups cells by axis
subset (lexicographic) and enumerates base vertices in C order, which makes
every operator below reproducible bit for bit.

Incidence is held as the face table of each degree (its 2p sorted faces
and their signs per p-cell, see `CubicalComplex.face_table`); the chain
boundary and the boundary-squared check work on it.  The coboundary of
cochains, d and its transpose, is applied by `CubicalComplex.add_coboundary`
as signed shift maps of the block grids, in the table's face order, for
`calculus.d` and the free-field solver.  Both run on numpy alone.  The scipy
matrices `boundary_matrix` and `coboundary_matrix` are views of the table
for the tests and the benchmark's replay.

Conventions fixed here and relied on elsewhere:

* boundary of a p-cube (v, A), A = (a_1 < ... < a_p):
      sum_t (-1)^(t-1) [ (v + e_{a_t}, A \\ a_t) - (v, A \\ a_t) ]
  which satisfies boundary . boundary = 0 exactly over the integers.
* a p-cell (v, A) and the complementary (d-p)-cell at base
  (v - 1 on the axes outside A) cross transversally exactly once; the
  crossing sign is the permutation sign of (A, complement of A).  This is
  the convention under which the intersection pairing is adjoint to the
  boundary, hence homology invariant.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, GeometryError

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
    orientation: int = 1

    def __post_init__(self):
        if tuple(sorted(set(self.axes))) != tuple(self.axes):
            raise DomainError(f"cell axes must be strictly increasing, got {self.axes}")
        if len(self.axes) != self.degree:
            raise DomainError("cell degree must equal the number of spanned axes")
        if self.orientation not in (1, -1):
            raise DomainError("orientation must be +1 or -1")


class CubicalComplex:
    """A cubical mesh on a flat torus or box with a diagonal metric."""

    def __init__(self, shape, spacing=None, topology: str = "torus"):
        shape = tuple(int(n) for n in shape)
        if len(shape) not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {len(shape)}")
        if any(n < 2 for n in shape):
            raise ConfigError(f"every shape entry must be >= 2, got {shape}")
        if spacing is None:
            spacing = (1.0,) * len(shape)
        elif np.isscalar(spacing):
            spacing = (float(spacing),) * len(shape)
        else:
            spacing = tuple(float(h) for h in spacing)
        if len(spacing) != len(shape):
            raise ConfigError("spacing must have one entry per axis")
        if any(h <= 0 for h in spacing):
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
        self._block_starts = {
            p: [self._blocks[p][axes][0] for axes in self._subsets[p]]
            for p in range(self.d + 1)
        }
        self._faces = {}
        self._shifts = {}
        self._star = {}

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
        idx = offset
        for i, (b, n, s) in enumerate(zip(base, extents, strides)):
            b = int(b)
            if self.topology == "torus":
                b %= self.shape[i]
            elif not 0 <= b < n:
                raise DomainError(f"base coordinate {b} out of range on axis {i}")
            idx += b * s
        return idx

    def index_of(self, cell: Cell) -> int:
        return self.cell_index(cell.degree, cell.base, cell.axes)

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
        cell.  Built block by block with no per-cell objects: for the cells
        (v, A) of one axis subset and each a_t in A, the lower face
        (v, A \\ a_t) is base . strides in the face block and the upper face
        is one stride further along a_t (wrapping to 0 on a torus); the upper
        face has sign (-1)^(t-1) and the lower one its negative, as in the
        module docstring.  The face blocks of A come in the order of
        decreasing t, so sorting a column only orders each lower/upper pair.
        Read-only; indices are int32 whenever they fit, signs int8.
        """
        if degree < 1 or degree > self.d:
            raise DomainError(f"no boundary operator for degree {degree}")
        if degree not in self._faces:
            n = self.cell_count(degree)
            index_dtype = np.int32 if self.cell_count(degree - 1) < 2**31 else np.int64
            faces = np.empty((2 * degree, n), dtype=index_dtype)
            signs = np.empty((2 * degree, n), dtype=np.int8)
            for axes in self._subsets[degree]:
                offset = self._blocks[degree][axes][0]
                base = self.block_bases(degree, axes)
                cols = slice(offset, offset + base.shape[1])
                for t, a in enumerate(axes):
                    sub_offset, _, sub_strides = self._blocks[degree - 1][axes[:t] + axes[t + 1 :]]
                    # the face block is at least as long as this one on every axis
                    lower = sub_offset + np.array(sub_strides) @ base
                    upper = lower + sub_strides[a]
                    if self.topology == "torus":
                        upper[base[a] == self.shape[a] - 1] -= self.shape[a] * sub_strides[a]
                    sign = -1 if t % 2 else 1
                    row = 2 * (degree - 1 - t)
                    faces[row, cols] = np.minimum(lower, upper)
                    faces[row + 1, cols] = np.maximum(lower, upper)
                    signs[row, cols] = np.where(upper < lower, sign, -sign)
                    signs[row + 1, cols] = -signs[row, cols]
            faces.setflags(write=False)
            signs.setflags(write=False)
            self._faces[degree] = (faces, signs)
        return self._faces[degree]

    def _table_arrays(self, degree: int, dtype) -> tuple:
        """(data, indices, indptr) of face_table(degree), read cell by cell."""
        faces, signs = self.face_table(degree)
        per_cell, n = faces.shape
        indptr = np.arange(0, n * per_cell + 1, per_cell)
        return signs.T.astype(dtype).ravel(), faces.T.ravel(), indptr

    def boundary_matrix(self, degree: int) -> sp.csr_matrix:
        """Integer incidence matrix of shape (n_{p-1}, n_p), derived from the
        face table (whose columns are this matrix in CSC form)."""
        # scipy loads on first use: no command needs incidence as a matrix
        import scipy.sparse as sp

        arrays = self._table_arrays(degree, np.int64)
        shape = (self.cell_count(degree - 1), self.cell_count(degree))
        return sp.csc_matrix(arrays, shape=shape).tocsr()

    def coboundary_matrix(self, degree: int) -> sp.csr_matrix:
        """Float transpose of boundary_matrix(degree+1), (n_{p+1}, n_p): the
        face table of degree p+1 read as CSR rows.  The reference that the
        shift maps of add_coboundary are tested against."""
        import scipy.sparse as sp

        arrays = self._table_arrays(degree + 1, np.float64)
        shape = (self.cell_count(degree + 1), self.cell_count(degree))
        return sp.csr_matrix(arrays, shape=shape)

    def _shift_terms(self, degree: int) -> tuple:
        """The coboundary from degree p to p+1 as signed shift maps.

        Each term (A, cell_slice, F, face_slice, add) pairs the cells of block
        A (a (p+1)-axis subset) picked by cell_slice with their faces in block
        F = A \\ a_t picked by face_slice, both indexing the block grids;
        `add` is true where that face's sign is +1.  The lower face (v, F)
        sits at the same grid place, the upper one a step further along a_t.
        On a torus the wrap slab (v_{a_t} = n - 1, upper face at base 0) is
        a term of its own; on a box the face block is one cell longer along
        a_t.  Per cell, the terms come in face-table row order: decreasing t,
        lower before upper face except on the wrap slab.
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

    def primal_volumes(self, degree: int) -> np.ndarray:
        vols = np.empty(self.cell_count(degree))
        for axes in self._subsets[degree]:
            offset, extents, _ = self._blocks[degree][axes]
            n = int(np.prod(extents))
            v = 1.0
            for a in axes:
                v *= self.spacing[a]
            vols[offset : offset + n] = v
        return vols

    def star_factors(self, degree: int) -> np.ndarray:
        """Dual/primal volume ratio per cell (defined on any topology)."""
        n = self.cell_count(degree)
        factors = np.empty(n)
        for axes in self._subsets[degree]:
            offset, extents, _ = self._blocks[degree][axes]
            count = int(np.prod(extents))
            comp = tuple(i for i in range(self.d) if i not in axes)
            f = 1.0
            for b in comp:
                f *= self.spacing[b]
            for a in axes:
                f /= self.spacing[a]
            factors[offset : offset + count] = f
        return factors

    def _star_data(self, degree: int):
        """(signs, dual index map) of the reindexing part of the Hodge star.

        The dual of a p-cell (v, A) is indexed as the (d-p)-cell (v, comp A);
        the sign is the permutation sign of (A, comp A).  Torus only, since a
        box has different primal and complementary cell counts.
        """
        if self.topology != "torus":
            raise GeometryError("the Hodge star is only defined on torus meshes")
        if degree not in self._star:
            n = self.cell_count(degree)
            signs = np.empty(n, dtype=np.int64)
            dual = np.empty(n, dtype=np.int64)
            for axes in self._subsets[degree]:
                offset, extents, _ = self._blocks[degree][axes]
                count = int(np.prod(extents))
                comp = tuple(i for i in range(self.d) if i not in axes)
                s = perm_sign(list(axes) + list(comp))
                dual_offset = self._blocks[self.d - degree][comp][0]
                idx = np.arange(offset, offset + count)
                signs[idx] = s
                dual[idx] = np.arange(dual_offset, dual_offset + count)
            self._star[degree] = (signs, dual)
        return self._star[degree]

    def star_signs(self, degree: int) -> np.ndarray:
        return self._star_data(degree)[0]

    def star_index(self, degree: int) -> np.ndarray:
        return self._star_data(degree)[1]


class Chain:
    """An integer-weighted formal sum of cells of one degree."""

    __slots__ = ("complex", "degree", "coeffs")

    def __init__(self, complex: CubicalComplex, degree: int, coeffs=None):
        if not 0 <= degree <= complex.d:
            raise DomainError(f"no chains of degree {degree} in dimension {complex.d}")
        self.complex = complex
        self.degree = degree
        clean = {}
        n = complex.cell_count(degree)
        for idx, c in (coeffs or {}).items():
            idx = int(idx)
            c = int(c)
            if not 0 <= idx < n:
                raise DomainError(f"cell index {idx} out of range for degree {degree}")
            if c:
                clean[idx] = clean.get(idx, 0) + c
        self.coeffs = {k: v for k, v in clean.items() if v}

    @classmethod
    def from_cells(cls, complex: CubicalComplex, items) -> Chain:
        """Build a chain from (Cell, coefficient) pairs (all of one degree)."""
        coeffs = {}
        degree = None
        for cell, coef in items:
            if degree is None:
                degree = cell.degree
            elif cell.degree != degree:
                raise DomainError("all cells of a chain must share one degree")
            idx = complex.index_of(cell)
            coeffs[idx] = coeffs.get(idx, 0) + int(coef) * cell.orientation
        if degree is None:
            raise DomainError("cannot infer the degree of an empty cell list")
        return cls(complex, degree, coeffs)

    def items(self):
        return sorted(self.coeffs.items())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.complex is other.complex
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.complex), self.degree, tuple(self.items())))

    def _binop(self, other, sign):
        if not isinstance(other, Chain):
            return NotImplemented
        if other.complex is not self.complex or other.degree != self.degree:
            raise DomainError("chains must live on the same complex and degree")
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0) + sign * c
        return Chain(self.complex, self.degree, coeffs)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Chain(self.complex, self.degree, {k: -v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar: int):
        scalar = int(scalar)
        return Chain(self.complex, self.degree, {k: scalar * v for k, v in self.coeffs.items()})

    def __repr__(self):
        return f"Chain(degree={self.degree}, cells={len(self.coeffs)})"


def boundary(chain: Chain) -> Chain:
    """Integer boundary; boundary(boundary(c)) is exactly zero."""
    if chain.degree == 0:
        raise DomainError("0-chains have no boundary")
    cx = chain.complex
    faces, signs = cx.face_table(chain.degree)
    cells = np.fromiter(chain.coeffs, dtype=np.int64, count=len(chain.coeffs))
    coefs = np.fromiter(chain.coeffs.values(), dtype=np.int64, count=len(chain.coeffs))
    vec = np.zeros(cx.cell_count(chain.degree - 1), dtype=np.int64)
    np.add.at(vec, faces[:, cells], signs[:, cells] * coefs)
    nonzero = np.flatnonzero(vec)
    return Chain(cx, chain.degree - 1, dict(zip(nonzero.tolist(), vec[nonzero].tolist())))


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
    target: Chain = field(default=None)

    def __post_init__(self):
        if self.target is None:
            object.__setattr__(self, "target", self.source + boundary(self.filling))
        if self.filling.degree != self.source.degree + 1:
            raise DomainError("filling must be one degree above source and target")
        if boundary(self.filling) != self.target - self.source:
            raise DomainError("boundary(filling) must equal target - source exactly")


def named_cycle(complex: CubicalComplex, spec: dict) -> Chain:
    """Construct a chain from a spec dictionary.

    Supported kinds:
      {"kind": "loop", "axis": a, "offsets": [transverse coords in axis order]}
      {"kind": "plane", "normal": n, "offset": o}
      {"kind": "cells", "items": [{"degree": p, "base": [..], "axes": [..], "coef": c}]}

    Loop and plane specs produce cycles on torus topology.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"chain spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if kind == "loop":
        axis = int(spec["axis"])
        if not 0 <= axis < complex.d:
            raise ConfigError(f"loop axis {axis} out of range")
        offsets = list(spec["offsets"])
        others = [i for i in range(complex.d) if i != axis]
        if len(offsets) != len(others):
            raise ConfigError(
                f"loop offsets must give the {len(others)} transverse coordinates"
            )
        for i, off in zip(others, offsets):
            if not 0 <= int(off) < complex.shape[i]:
                raise ConfigError(f"loop offset {off} out of range on axis {i}")
        coeffs = {}
        for k in range(complex.shape[axis]):
            base = [0] * complex.d
            base[axis] = k
            for i, off in zip(others, offsets):
                base[i] = int(off)
            coeffs[complex.cell_index(1, base, (axis,))] = 1
        return Chain(complex, 1, coeffs)
    if kind == "plane":
        normal = int(spec["normal"])
        if not 0 <= normal < complex.d:
            raise ConfigError(f"plane normal {normal} out of range")
        offset = int(spec["offset"])
        if not 0 <= offset < complex.shape[normal]:
            raise ConfigError(f"plane offset {offset} out of range")
        axes = tuple(i for i in range(complex.d) if i != normal)
        ranges = [
            range(complex.shape[i]) if i != normal else (offset,)
            for i in range(complex.d)
        ]
        coeffs = {
            complex.cell_index(complex.d - 1, base, axes): 1
            for base in product(*ranges)
        }
        return Chain(complex, complex.d - 1, coeffs)
    if kind == "cells":
        items = spec.get("items")
        if not items:
            raise ConfigError("cells spec needs a non-empty 'items' list")
        cells = []
        for item in items:
            cell = Cell(int(item["degree"]), tuple(item["base"]), tuple(item["axes"]))
            cells.append((cell, int(item.get("coef", 1))))
        return Chain.from_cells(complex, cells)
    raise ConfigError(f"unknown chain spec kind {kind!r}")


def intersection_number(a: Chain, b: Chain) -> int:
    """Signed count of transversal crossings of complementary-degree chains.

    Bilinear; vanishes when one argument is a boundary and the other a cycle.
    """
    if a.complex is not b.complex:
        raise DomainError("chains must live on the same complex")
    cx = a.complex
    if a.degree + b.degree != cx.d:
        raise DomainError(
            f"degrees must be complementary: {a.degree} + {b.degree} != {cx.d}"
        )
    total = 0
    for idx, ca in a.coeffs.items():
        cell = cx.cell(a.degree, idx)
        comp = tuple(i for i in range(cx.d) if i not in cell.axes)
        partner = list(cell.base)
        for i in comp:
            partner[i] -= 1
        if cx.topology == "box" and any(partner[i] < 0 for i in comp):
            continue
        pidx = cx.cell_index(b.degree, partner, comp)
        cb = b.coeffs.get(pidx, 0)
        if cb:
            total += ca * cb * perm_sign(list(cell.axes) + list(comp))
    return total
