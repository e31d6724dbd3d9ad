"""Builders that several test modules share, made from public calls only."""

import numpy as np

from formlab import exponential, so3


def rotation(axis, angle):
    """The SO(3) rotation by `angle` about coordinate axis 0, 1 or 2."""
    coeffs = np.zeros(3)
    coeffs[axis] = np.sqrt(2.0) * angle
    return exponential(so3().element(coeffs))


def cells_in_order(cx, degree):
    """(base, axes) of each cell of the degree, in index order: the blocks of
    `axis_subsets` in turn, each in the order of `block_bases`."""
    return [
        (tuple(base), axes)
        for axes in cx.axis_subsets(degree)
        for base in zip(*cx.block_bases(degree, axes).tolist())
    ]
