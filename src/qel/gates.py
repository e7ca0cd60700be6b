"""Straight-line programs of planar rotations and row scalings.

The machine state is a linear map: an n-by-n matrix M sending the input
vector to the current register contents.  A rotation gate left-multiplies
M by a plane rotation touching two rows; a constant gate rescales one row
by a nonzero scalar.  The inverse-transpose of M is evolved jointly (the
same rotation applies to it, a row scaling applies with 1/c), which keeps
every step O(n) instead of the O(n^3) a re-inversion would cost.  That
rule is written once, in rotate_rows and _scale_rows: apply_gate runs them
on (M, M^-T), one gate at a time, and the potential tracker on the
gathered rows of each cached (M A_p, M^-T B_p), a level of row-disjoint
gates at a time.
Gates check their own fields and GateProgram checks their rows against n,
once, when built, so run_program only applies gates.

Programs serialize to a plain text format: a header line ``n <dim> m
<count>`` followed by one line per gate, ``R <i> <i'> <theta>`` or
``C <i> <c>``, 1-based indices, floats written with full round-trip
precision.  Lines starting with ``#`` are comments and are ignored.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Rotation",
    "Constant",
    "GateProgram",
    "TrackedState",
    "WellConditionReport",
    "KappaCertifier",
    "rotate_rows",
    "apply_gate",
    "run_program",
    "inverse_drift",
    "condition_number",
    "verify_well_conditioned",
    "program_to_text",
    "program_from_text",
    "save_program",
    "load_program",
    "random_program",
    "SIGMA_FLOOR",
]

SIGMA_FLOOR = 1e-12  # smallest singular value treated as nonsingular
_CHUNK_ENTRIES = 1 << 17  # entries of one block of a pass over n x n arrays (1 MiB)


@dataclass(frozen=True)
class Rotation:
    """Plane rotation acting on rows/columns (i, iprime), 1-based.

    Left-multiplication by the matrix that is the identity except for the
    2x2 block [[cos theta, sin theta], [-sin theta, cos theta]] at rows
    and columns (i, iprime).
    """

    i: int
    iprime: int
    theta: float

    def __post_init__(self):
        if self.i < 1 or self.iprime < 1:
            raise ValueError(f"rotation indices ({self.i},{self.iprime}) must be >= 1")
        if self.i == self.iprime:
            raise ValueError("rotation needs two distinct rows")
        if not math.isfinite(self.theta):
            raise ValueError(f"non-finite rotation angle {self.theta!r}")


@dataclass(frozen=True)
class Constant:
    """Row-scaling gate: multiplies row i (1-based) by c != 0."""

    i: int
    c: float

    def __post_init__(self):
        if self.i < 1:
            raise ValueError(f"constant gate row {self.i} must be >= 1")
        if self.c == 0.0 or not math.isfinite(self.c):
            raise ValueError(f"constant gate needs a finite nonzero scalar, got {self.c!r}")


@dataclass(frozen=True)
class GateProgram:
    """A fixed dimension n plus an ordered tuple of gates, checked against n
    once, when built; frozen, so no gate joins later unchecked."""

    n: int
    gates: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for t, gate in enumerate(self.gates, start=1):
            if not isinstance(gate, (Rotation, Constant)):
                raise ValueError(f"gate {t}: not a Rotation or Constant: {gate!r}")
            if isinstance(gate, Rotation) and max(gate.i, gate.iprime) > self.n:
                raise ValueError(f"gate {t}: rotation indices ({gate.i},{gate.iprime}) "
                                 f"out of range for n={self.n}")
            if isinstance(gate, Constant) and gate.i > self.n:
                raise ValueError(
                    f"gate {t}: constant gate row {gate.i} out of range for n={self.n}")

    def __len__(self):
        return len(self.gates)

    def rotation_count(self):
        return sum(1 for g in self.gates if isinstance(g, Rotation))

    def constant_count(self):
        return sum(1 for g in self.gates if isinstance(g, Constant))


@dataclass
class TrackedState:
    """State matrix M and its inverse-transpose, evolved jointly."""

    M: np.ndarray
    MinvT: np.ndarray
    t: int = 0

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n), np.eye(n), 0)


def rotate_rows(X, i, ip, c, s):
    """Replace rows i, ip (0-based) of X in place by c X[i] + s X[ip] and
    c X[ip] - s X[i]: left-multiplication by a plane rotation.  i and ip are
    integers, so X[i] and X[ip] are views that are written in place (an
    index array would select a copy, and raises TypeError); they may be
    stacks of rows (the leading axis of a gathered block) with c, s
    broadcasting against them, one angle per pair.  Only s X[ip] and s X[i]
    are temporaries, and each entry is fl(fl(c a) + fl(s b)) as written."""
    a, b = X[operator.index(i)], X[operator.index(ip)]
    sb, sa = s * b, s * a
    a *= c
    a += sb
    b *= c
    b -= sa


def _scale_rows(X, Y, i, c):
    """Scale rows i (0-based) of X by c and of its dual Y by 1/c, in place.
    X[i] may be a stack of rows with c broadcasting against it, one scalar
    per row."""
    X[i] *= c
    Y[i] *= 1.0 / c


def apply_gate(state, gate):
    """Apply one gate to (M, MinvT) in place; returns the same state.

    A rotation turns rows (i, iprime) of both identically (plane rotations
    are orthogonal, so the inverse-transpose rotates the same way); a
    constant gate scales row i of M by c and row i of MinvT by 1/c.  O(n)
    per gate.  The gate is not validated here: a row beyond n raises
    IndexError before either matrix is written.
    """
    if isinstance(gate, Rotation):
        i, ip = gate.i - 1, gate.iprime - 1
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        rotate_rows(state.M, i, ip, c, s)
        rotate_rows(state.MinvT, i, ip, c, s)
    else:
        _scale_rows(state.M, state.MinvT, gate.i - 1, gate.c)
    state.t += 1
    return state


def _row_blocks(X):
    """Slices of X's leading axis of about _CHUNK_ENTRIES entries each."""
    step = max(1, _CHUNK_ENTRIES * len(X) // max(1, X.size))
    return [slice(r, r + step) for r in range(0, len(X), step)]


def inverse_drift(state):
    """Max-entry deviation of M^T @ MinvT from the identity, formed one block
    of rows at a time (M's columns, _row_blocks(M^T)), so no n x n product
    is held; a NaN anywhere is the result.  Each entry of a block is one
    GEMM sum over the same n terms as in the whole product, bitwise so for a
    power-of-two n (every n the CLI takes: the blocks are then powers of two
    wide) and at the sizes a test checks; elsewhere BLAS's edge kernels may
    round a block's last rows differently in the last bit."""
    M, n = state.M, state.M.shape[0]
    peaks = []
    for cols in _row_blocks(M.T):
        P = M[:, cols].T @ state.MinvT
        P.reshape(-1)[cols.start::n + 1] -= 1.0  # the block's diagonal, in place
        peaks.append(np.max(np.abs(P, out=P)))
    return float(np.max(peaks))


def run_program(program, observers=()):
    """Run all gates from the identity state.

    Each observer is called after every gate with (step, gate, state);
    the state passed is the live object, mutated in place as the run
    proceeds.
    """
    state = TrackedState.identity(program.n)
    for t, gate in enumerate(program.gates, start=1):
        apply_gate(state, gate)
        for obs in observers:
            obs(t, gate, state)
    return state


def condition_number(M):
    """sigma_max / sigma_min by a full singular value computation.

    Raises ValueError when the smallest singular value is at or below
    SIGMA_FLOOR (singular to working precision).
    """
    sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    if smin <= SIGMA_FLOOR:
        raise ValueError(
            f"matrix is singular to working precision (sigma_min={smin:.3e}, floor={SIGMA_FLOOR:.1e})")
    return smax / smin


class KappaCertifier:
    """run_program observer tracking the condition number of every state.

    Rotations and sign flips (|c| = 1) are exact isometries, so singular
    values are recomputed only after constant gates with |c| != 1 and at
    step `final_step`; in between kappa is carried forward unchanged.
    With `exhaustive=True` it is recomputed after every gate (slow; the
    test oracle).  `kappa` is the current value, `max_kappa` the running
    maximum over t (t=0 included) and `at_step` where it occurred.
    """

    def __init__(self, final_step=None, exhaustive=False):
        self.final_step = final_step
        self.exhaustive = exhaustive
        self.kappa = self.max_kappa = 1.0
        self.at_step = 0

    def __call__(self, t, gate, state):
        scaling = isinstance(gate, Constant) and abs(gate.c) != 1.0
        if self.exhaustive or scaling or t == self.final_step:
            try:
                self.kappa = condition_number(state.M)
            except ValueError as exc:
                raise ValueError(f"step {t}: {exc}") from exc
        if self.kappa > self.max_kappa:
            self.max_kappa, self.at_step = self.kappa, t


@dataclass
class WellConditionReport:
    passed: bool
    max_kappa: float
    at_step: int
    final_state: TrackedState = field(repr=False)


def verify_well_conditioned(program, kappa_max):
    """Check that every intermediate state has condition number <= kappa_max.

    Runs the program under a KappaCertifier that also recomputes at t=m.
    Reports the max over t of kappa(M^(t)) and where it occurred.
    """
    cert = KappaCertifier(len(program.gates))
    state = run_program(program, observers=[cert])
    return WellConditionReport(cert.max_kappa <= kappa_max, cert.max_kappa,
                               cert.at_step, state)


def program_to_text(program):
    lines = [f"n {program.n} m {len(program.gates)}"]
    for gate in program.gates:
        if isinstance(gate, Rotation):
            lines.append(f"R {gate.i} {gate.iprime} {gate.theta!r}")
        else:
            lines.append(f"C {gate.i} {gate.c!r}")
    return "\n".join(lines) + "\n"


def program_from_text(text):
    header = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if header is None:
                if len(parts) != 4 or parts[0] != "n" or parts[2] != "m":
                    raise ValueError(f"expected header 'n <dim> m <count>', got {line!r}")
                header = (int(parts[1]), int(parts[3]))
            elif parts[0] == "R" and len(parts) == 4:
                gates.append(Rotation(int(parts[1]), int(parts[2]), float(parts[3])))
            elif parts[0] == "C" and len(parts) == 3:
                gates.append(Constant(int(parts[1]), float(parts[2])))
            else:
                raise ValueError(f"unrecognized gate line {line!r}")
        except ValueError as exc:  # number parsing and the gates' own checks
            raise ValueError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise ValueError("empty program text: missing header line")
    n, m = header
    if m != len(gates):
        raise ValueError(f"header declares m={m} gates but {len(gates)} were found")
    return GateProgram(n, gates)


def save_program(program, path):
    with open(path, "w") as fh:
        fh.write(program_to_text(program))


def load_program(path):
    with open(path) as fh:
        return program_from_text(fh.read())


def random_program(n, rotations, constants, rng):
    """Random program for campaigns: `rotations` plane rotations and
    `constants` row scalings, in a random interleaving.

    Each field is one Generator call, drawn in this order: the rotations'
    rows i (uniform over the n rows), their offsets to i' (uniform over the
    other n - 1, so (i, i') is a uniform ordered pair of distinct rows),
    their angles (uniform in [-pi, pi)); the scalings' rows, exponents u
    (uniform in [-1, 1)) and signs (fair); then the gate order, one
    permutation.  A scaling is c = +-2^u, so |log2 c| <= 1 keeps the
    intermediates reasonably conditioned; 2^u is Python's float pow, one
    constant at a time, whose bits do not depend on numpy's SIMD dispatch
    as np.power's do.
    """
    rows = rng.integers(0, n, size=rotations)
    others = (rows + rng.integers(1, n, size=rotations)) % n
    thetas = rng.uniform(-math.pi, math.pi, size=rotations)
    gates = [Rotation(i + 1, ip + 1, theta)
             for i, ip, theta in zip(rows.tolist(), others.tolist(), thetas.tolist())]
    scaled = rng.integers(1, n + 1, size=constants)
    exponents = rng.uniform(-1.0, 1.0, size=constants)
    negative = rng.integers(0, 2, size=constants)
    gates += [Constant(i, -2.0 ** u if sign else 2.0 ** u)
              for i, u, sign in zip(scaled.tolist(), exponents.tolist(), negative.tolist())]
    order = rng.permutation(len(gates))
    return GateProgram(n, [gates[j] for j in order])
