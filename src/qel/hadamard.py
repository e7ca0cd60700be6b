"""Walsh-Hadamard matrices and gate programs computing them.

F has entries n^(-1/2) * (-1)^<i-1, j-1> where <.,.> is the GF(2) inner
product of the zero-based row/column indices written in binary.  F is
symmetric and F @ F = Id.
"""

import math

import numpy as np

from .gates import Constant, GateProgram, Rotation

__all__ = [
    "wht_matrix",
    "fast_wht_program",
    "kron_rotation_layer",
    "fast_apply_wht",
]


def _log2_int(n):
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"dimension must be a power of two >= 2, got {n!r}")
    k = int(n).bit_length() - 1
    if (1 << k) != n:
        raise ValueError(f"dimension must be a power of two, got {n}")
    return k


def _bit_parity(v):
    # parity of the popcount, vectorized; indices here are < 2**32
    v = v.copy()
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def wht_matrix(n):
    """The n-by-n Walsh-Hadamard matrix, entries exactly +-n^(-1/2).

    All entries come from a single square root times a sign, so equal
    magnitudes are bitwise identical.
    """
    _log2_int(n)
    idx = np.arange(n)
    par = _bit_parity(idx[:, None] & idx[None, :])
    return (1.0 - 2.0 * par) * (n ** -0.5)


def _stage_pairs(n, half):
    # 1-based index pairs differing exactly in the bit of weight `half`
    for base in range(0, n, 2 * half):
        for off in range(half):
            a = base + off + 1
            yield a, a + half


def fast_wht_program(n):
    """Butterfly program computing wht_matrix(n).

    Stages run low bit to high bit; each butterfly on pair (a, b) is
    Rotation(a, b, pi/4) then Constant(b, -1), i.e. the local 2x2 map
    (x, y) -> ((x+y)/sqrt2, (x-y)/sqrt2).  (n/2) log2 n rotations and as
    many constants.
    """
    k = _log2_int(n)
    gates = []
    theta = math.pi / 4
    for p in range(k):
        for a, b in _stage_pairs(n, 1 << p):
            gates.append(Rotation(a, b, theta))
            gates.append(Constant(b, -1.0))
    return GateProgram(n, gates)


def kron_rotation_layer(n, stage, theta):
    """Rotation gates realizing Id x ... x R(theta) x ... x Id.

    `stage` counts Kronecker factor positions from the left (stage 1 acts
    on the most significant index bit, stage log2 n on the lowest).  The
    n/2 rotations commute; they are emitted in ascending index order.
    """
    k = _log2_int(n)
    if not 1 <= stage <= k:
        raise ValueError(f"stage must be in [1, {k}], got {stage}")
    half = 1 << (k - stage)
    return GateProgram(n, [Rotation(a, b, theta) for a, b in _stage_pairs(n, half)])


def fast_apply_wht(x):
    """wht_matrix(n) @ x via in-place butterflies, O(n log n) scalar ops."""
    y = np.array(x, dtype=float)
    if y.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    n = y.size
    k = _log2_int(n)
    for p in range(k):
        half = 1 << p
        v = y.reshape(-1, 2, half)
        a = v[:, 0, :] + v[:, 1, :]
        b = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] = a
        v[:, 1, :] = b
    y *= n ** -0.5
    return y
