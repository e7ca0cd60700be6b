"""Straight-line programs of planar rotations and row scalings.

The machine state is a linear map: an n-by-n matrix M sending the input
vector to the current register contents.  A rotation gate left-multiplies
M by a plane rotation touching two rows; a constant gate rescales one row
by a nonzero scalar.  The inverse-transpose of M is evolved jointly (the
same rotation applies to it, a row scaling applies with 1/c), which keeps
every step O(n) instead of the O(n^3) a re-inversion would cost.  Gates
are validated once, when built, so run_program only applies gates.

Programs serialize to a plain text format: a header line ``n <dim> m
<count>`` followed by one line per gate, ``R <i> <i'> <theta>`` or
``C <i> <c>``, 1-based indices, floats written with full round-trip
precision.  Lines starting with ``#`` are comments and are ignored.
"""

from __future__ import annotations

import math
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
    "program_matrix",
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

    def validate(self, n):
        if max(self.i, self.iprime) > n:
            raise ValueError(f"rotation indices ({self.i},{self.iprime}) out of range for n={n}")


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

    def validate(self, n):
        if self.i > n:
            raise ValueError(f"constant gate row {self.i} out of range for n={n}")


Gate = Rotation | Constant


@dataclass
class GateProgram:
    """A fixed dimension n plus an ordered list of gates."""

    n: int
    gates: list

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        self.validate()

    def validate(self):
        for t, gate in enumerate(self.gates, start=1):
            if not isinstance(gate, (Rotation, Constant)):
                raise ValueError(f"gate {t}: not a Rotation or Constant: {gate!r}")
            try:
                gate.validate(self.n)
            except ValueError as exc:
                raise ValueError(f"gate {t}: {exc}") from exc

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

    def copy(self):
        return TrackedState(self.M.copy(), self.MinvT.copy(), self.t)


def rotate_rows(X, i, ip, c, s):
    """Replace rows i, ip (0-based) of X in place by c X[i] + s X[ip] and
    c X[ip] - s X[i]: left-multiplication by a plane rotation."""
    new_i = c * X[i] + s * X[ip]
    new_ip = c * X[ip] - s * X[i]
    X[i] = new_i
    X[ip] = new_ip


def apply_gate(state, gate):
    """Apply one gate to the state in place; returns the same state.

    Rotations touch rows (i, iprime) of both M and MinvT identically
    (plane rotations are orthogonal, so the inverse-transpose rotates the
    same way).  A constant gate scales row i of M by c and row i of MinvT
    by 1/c.  O(n) per call.  The gate is not validated here: a row beyond
    n raises IndexError before either matrix is written.
    """
    if isinstance(gate, Rotation):
        i, ip = gate.i - 1, gate.iprime - 1
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        rotate_rows(state.M, i, ip, c, s)
        rotate_rows(state.MinvT, i, ip, c, s)
    else:
        i = gate.i - 1
        state.M[i] *= gate.c
        state.MinvT[i] *= 1.0 / gate.c
    state.t += 1
    return state


def inverse_drift(state):
    """Max-entry deviation of M^T @ MinvT from the identity."""
    n = state.M.shape[0]
    P = state.M.T @ state.MinvT
    P.reshape(-1)[::n + 1] -= 1.0  # the diagonal, in place
    return float(np.max(np.abs(P, out=P)))


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


def program_matrix(program):
    """The matrix the program computes (its final state M)."""
    return run_program(program).M


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
    kappa_max: float
    max_kappa: float
    at_step: int
    final_state: TrackedState = field(repr=False, default=None)


def verify_well_conditioned(program, kappa_max, exhaustive=False):
    """Check that every intermediate state has condition number <= kappa_max.

    Runs the program under a KappaCertifier that also recomputes at t=m.
    Reports the max over t of kappa(M^(t)) and where it occurred.
    """
    cert = KappaCertifier(len(program.gates), exhaustive)
    state = run_program(program, observers=[cert])
    return WellConditionReport(cert.max_kappa <= kappa_max, kappa_max,
                               cert.max_kappa, cert.at_step, state)


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
    """Random program for campaigns: uniform plane rotations plus row
    scalings with |log2 c| <= 1 (keeps intermediates reasonably
    conditioned).  Gate order is a random interleaving."""
    gates = []
    for _ in range(rotations):
        i, ip = rng.choice(n, size=2, replace=False) + 1
        gates.append(Rotation(int(i), int(ip), float(rng.uniform(-math.pi, math.pi))))
    for _ in range(constants):
        i = int(rng.integers(1, n + 1))
        c = float(2.0 ** rng.uniform(-1.0, 1.0))
        if rng.integers(2):
            c = -c
        gates.append(Constant(i, c))
    order = rng.permutation(len(gates))
    return GateProgram(n, [gates[j] for j in order])
