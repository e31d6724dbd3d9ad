"""Seeded inputs for the formlab benchmark workloads.

`generate(workload, seed, workdir)` writes every scenario config (and, for
defect_sweep, the field CSV) into `workdir` and returns the workload's pass:
the ordered list of CLI invocations, each with what its report must show.
The same seed always gives the same files, byte for byte.  Mesh sizes and
request counts are fixed per workload; the seed only moves positions and
values, so every pass of every seed does the same amount of work.

The generator does not import formlab: the expected crossing counts and
charged observables are derived here from the geometry and values it
writes, using the conventions of the README (cells are (base, sorted axes);
a p-cell (v, A) crosses the complementary cell based at v - 1 on the axes
outside A once, with the permutation sign of (A, complement of A)).
"""

from __future__ import annotations

import json
from itertools import combinations, product
from pathlib import Path

import numpy as np

WORKLOADS = ("check_suite", "solve_torus", "defect_sweep")

CHECK_SHAPES = {"so3": 8, "u2": 6}
SOLVE_SHAPES = {"so3": 20, "u2": 16}
SOLVE_FIXED_CELLS = 4
SOLVER_TOL = 1e-10
DEFECT_SHAPE = 24
DEFECT_SWEEPS = 8
DEFECT_CHARGES = 12
COMPOSE_ATOMS = 3


def generate(workload: str, seed: int, workdir) -> list:
    """Write the workload's inputs for `seed`; return its invocations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {
        "check_suite": _check_suite,
        "solve_torus": _solve_torus,
        "defect_sweep": _defect_sweep,
    }[workload](rng, workdir)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path.name


def _invocation(name, command, config, expect, field_csv=None) -> dict:
    return {
        "name": name,
        "command": command,
        "config": config,
        "field_csv": field_csv,
        "expect": expect,
    }


# -- group elements ----------------------------------------------------------


def _so3_coeffs(rng) -> list:
    """Coefficients of a rotation by an angle in [0.4, 2.6] rad (never the identity)."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.4, 2.6)
    # with (J_a)_bc = -eps_abc / sqrt(2), coeffs c rotate by |c| / sqrt(2)
    return [float(v) for v in np.sqrt(2.0) * angle * axis]


def so3_matrix(coeffs) -> np.ndarray:
    """The rotation exp(sum_a c_a J_a); also the adjoint matrix in the J basis."""
    w = np.asarray(coeffs, dtype=np.float64) / np.sqrt(2.0)
    theta = float(np.linalg.norm(w))
    k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]) / theta
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def _u2_coeffs(rng) -> list:
    """u(2) coefficients whose exponential is far from the identity."""
    c = rng.standard_normal(4)
    c *= rng.uniform(0.6, 1.8) / np.linalg.norm(c)
    return [float(v) for v in c]


def _compose_word(rng, names) -> tuple:
    """A valid word of non-identity atoms; returns (source, source degree, target degree).

    Atoms apply right to left and each flips the degree, so atom i must carry
    the degree its right neighbour maps to.
    """
    first = int(rng.integers(0, 2))
    atoms = []
    degree = first
    for _ in range(COMPOSE_ATOMS):
        atoms.append(f"{names[int(rng.integers(0, len(names)))]}[{degree}]")
        degree ^= 1
    return " . ".join(reversed(atoms)), first, degree


# -- check_suite -------------------------------------------------------------


def _check_suite(rng, workdir: Path) -> list:
    invocations = []
    for algebra in ("so3", "u2"):
        n = CHECK_SHAPES[algebra]
        coeffs = _so3_coeffs if algebra == "so3" else _u2_coeffs
        elements = {
            name: {"type": "exp", "algebra": algebra, "coeffs": coeffs(rng)}
            for name in ("g", "h", "k")
        }
        word, source, target = _compose_word(rng, sorted(elements))
        cfg = {
            "mesh": {"shape": [n, n, n], "topology": "torus"},
            "algebra": algebra,
            "field": {
                "degree": 1,
                "fiber": "algebra" if algebra == "so3" else "complex_pair",
                "init": {
                    "init": "random_gaussian",
                    "seed": int(rng.integers(0, 2**31)),
                    "stddev": 1.0,
                },
            },
            "group_elements": elements,
            "compose": word,
            "checks": ["all"],
            "seed": int(rng.integers(0, 2**31)),
        }
        config = _write_json(workdir / f"check_{algebra}.json", cfg)
        invocations.append(_invocation(f"check_{algebra}", "check", config, {}))
        expect = {"source_degree": source, "target_degree": target}
        if algebra == "so3":
            matrix = np.eye(3)
            for atom in word.split(" . "):
                matrix = matrix @ so3_matrix(elements[atom[0]]["coeffs"])
            expect["matrix"] = matrix.tolist()
        invocations.append(_invocation(f"compose_{algebra}", "compose", config, expect))
    return invocations


# -- solve_torus -------------------------------------------------------------


def _fixed_cells(rng, n: int, fiber_value) -> list:
    cells = set()
    while len(cells) < SOLVE_FIXED_CELLS:
        base = tuple(int(b) for b in rng.integers(0, n, size=3))
        cells.add((base, int(rng.integers(0, 3))))
    return [
        {"base": list(base), "axes": [axis], "value": fiber_value(rng)}
        for base, axis in sorted(cells)
    ]


def _solve_torus(rng, workdir: Path) -> list:
    fibers = {
        "so3": ("algebra", lambda r: [float(v) for v in r.uniform(-1, 1, 3)]),
        "u2": (
            "complex_pair",
            lambda r: [[float(v) for v in r.uniform(-1, 1, 2)] for _ in range(2)],
        ),
    }
    invocations = []
    for algebra, (fiber, value) in fibers.items():
        n = SOLVE_SHAPES[algebra]
        cfg = {
            "mesh": {"shape": [n, n, n], "topology": "torus"},
            "algebra": algebra,
            "field": {
                "degree": 1,
                "fiber": fiber,
                "init": {"init": "solve", "fixed": _fixed_cells(rng, n, value)},
            },
            "tolerances": {"solver": SOLVER_TOL},
            "seed": int(rng.integers(0, 2**31)),
        }
        config = _write_json(workdir / f"solve_{algebra}.json", cfg)
        invocations.append(
            _invocation(
                f"solve_{algebra}",
                "solve",
                config,
                {"solver_tol": SOLVER_TOL},
                field_csv=f"solve_{algebra}.csv",
            )
        )
    return invocations


# -- defect_sweep ------------------------------------------------------------


def _edge_index(n: int, base, axis: int) -> int:
    """Index of the 1-cell (base, (axis,)) on an n^3 torus (blocks by axis, C order)."""
    b0, b1, b2 = (int(b) % n for b in base)
    return axis * n**3 + (b0 * n + b1) * n + b2


def _perm_sign(seq) -> int:
    sign = 1
    for i, j in combinations(range(len(seq)), 2):
        if seq[i] > seq[j]:
            sign = -sign
    return sign


def crossing_number(n: int, one_chain: dict, two_chain: dict) -> int:
    """Signed crossings of a 1-chain with a 2-chain on the n^3 torus.

    Chains map (base, axes) to integer coefficients.  The 1-cell (v, (a,))
    meets the 2-cell based at v - 1 on the two other axes, with the sign of
    the permutation (a, complement of a).
    """
    total = 0
    for (base, axes), coef in one_chain.items():
        comp = tuple(i for i in range(3) if i not in axes)
        partner = tuple((b - 1) % n if i in comp else b for i, b in enumerate(base))
        other = two_chain.get((partner, comp), 0)
        total += coef * other * _perm_sign(axes + comp)
    return total


def _write_field_csv(path: Path, n: int, values: np.ndarray) -> None:
    """A real 1-form in the layout of formlab's field CSV dump."""
    lines = ["degree,base0,base1,base2,axes,component_index,re,im"]
    comps = values.shape[1]
    row = 0
    for axis in range(3):
        for base in product(range(n), repeat=3):
            prefix = f"1,{base[0]},{base[1]},{base[2]},{axis},"
            for comp in range(comps):
                lines.append(f"{prefix}{comp},{values[row, comp]:.17g},0")
            row += 1
    path.write_text("\r\n".join(lines) + "\r\n")


def _defect_sweep(rng, workdir: Path) -> list:
    n = DEFECT_SHAPE
    values = rng.standard_normal((3 * n**3, 3))
    _write_field_csv(workdir / "field.csv", n, values)

    # the charged loop runs along axis 0 at (y0, z0)
    y0, z0 = (int(v) for v in rng.integers(0, n, size=2))
    charged_spec = {"kind": "loop", "axis": 0, "offsets": [y0, z0]}
    charged_chain = {((k, y0, z0), (0,)): 1 for k in range(n)}
    observable = np.zeros(3)
    for k in range(n):
        observable = observable + values[_edge_index(n, (k, y0, z0), 0)]

    elements = {
        name: {"type": "exp", "algebra": "so3", "coeffs": _so3_coeffs(rng)}
        for name in ("g", "h")
    }
    defects, sweeps = [], []
    for i in range(DEFECT_SWEEPS):
        crossing = i % 2 == 0
        # a strip of (1,2)-cells at x = xs over all y and `width` z-layers
        # sweeps the axis-1 loop at (xs, z_start); it crosses the charged loop
        # exactly when its z-range covers z0 - 1
        width = int(rng.integers(1, 4))
        hit = (z0 - 1) % n
        if crossing:
            z_start = (hit - int(rng.integers(0, width))) % n
        else:
            z_start = (hit + 1 + int(rng.integers(0, n - width))) % n
        xs = int(rng.integers(0, n))
        coef = int(rng.choice([-1, 1, 2]))
        filling = {
            ((xs, j, (z_start + t) % n), (1, 2)): coef
            for j in range(n)
            for t in range(width)
        }
        crossings = crossing_number(n, charged_chain, filling)
        name = f"sweep_{i}"
        g = "g" if i % 4 < 2 else "h"
        defects.append(
            {
                "name": name,
                "g": g,
                "degree": 0,
                "support": {"kind": "loop", "axis": 1, "offsets": [xs, z_start]},
                "move": {
                    "filling": {
                        "kind": "cells",
                        "items": [
                            {"degree": 2, "base": list(base), "axes": list(axes), "coef": c}
                            for (base, axes), c in sorted(filling.items())
                        ],
                    }
                },
                "charged": {"degree": 0, "support": charged_spec},
            }
        )
        matrix = np.linalg.matrix_power(so3_matrix(elements[g]["coeffs"]), crossings)
        sweeps.append(
            {
                "name": name,
                "crossings": crossings,
                "observable_after": (matrix @ observable).tolist(),
            }
        )

    charges = []
    for i in range(DEFECT_CHARGES):
        axis = int(rng.integers(0, 3))
        if i % 2 == 0:
            support = {"kind": "plane", "normal": axis, "offset": int(rng.integers(0, n))}
            kind = "eom"
        else:
            support = {"kind": "loop", "axis": axis, "offsets": [int(v) for v in rng.integers(0, n, 2)]}
            kind = "trivial"
        charges.append({"name": f"charge_{i}", "kind": kind, "support": support})

    cfg = {
        "mesh": {"shape": [n, n, n], "topology": "torus"},
        "algebra": "so3",
        "field": {
            "degree": 1,
            "fiber": "algebra",
            "init": {"init": "explicit", "csv": "field.csv"},
        },
        "group_elements": elements,
        "charges": charges,
        "defects": defects,
        "seed": int(rng.integers(0, 2**31)),
    }
    config = _write_json(workdir / "defect.json", cfg)
    return [
        _invocation(
            "defect",
            "defect",
            config,
            {"observable_before": observable.tolist(), "sweeps": sweeps},
        ),
        _invocation("charges", "charges", config, {"charges": charges}),
    ]
