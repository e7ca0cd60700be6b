"""Quasi-entropy potentials of gate-program states, with incremental tracking.

All logarithms are base 2.  The entropy kernel is L(x) = x log2|x| with
L(0) = 0.  For a nonsingular matrix M with inverse-transpose N:

    plain:          Phi(M)       = -sum_ij L( M(i,j) N(i,j) )
    preconditioned: Phi_{A,B}(M) = -sum_ij L( (M A)(i,j) (N B)(i,j) )
    k-slice:        Phi^(k)(M)   = -sum_ij L( sum_p (M A_p)(i,j) (N B_p)(i,j) )

The hat potential of n-by-2n preconditioners P, Q couples column j with
column j+n inside the kernel, so it is the k-slice potential of the two
column-block pairs (P[:, :n], Q[:, :n]) and (P[:, n:], Q[:, n:]), and is
written as that spec.  A PotentialSpec holds the slice pairs (None in a
slot means the identity, which skips a product); named_spec builds the
kinds the CLI names (NAMED_POTENTIALS).

Rotation and constant gates touch two rows (resp. one row) of every
sliced product, so a PotentialTracker updates the potential in O(k n) per
gate from cached products, which it moves with the engine's gate action
(gates._apply_to_pair) and builds in one place (_value_and_caches).
trace_potentials resyncs the tracker every `recompute_every` gates and at
the endpoint.  A resync raises on inverse drift beyond DRIFT_TOL first (a
from-scratch value on a wrong inverse means nothing), then on a
from-scratch value off by more than DESYNC_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import (KappaCertifier, Rotation, TrackedState, _apply_to_pair,
                    inverse_drift, run_program)
from .hadamard import wht_matrix

__all__ = [
    "entropy_sum",
    "PotentialSpec",
    "PotentialTracker",
    "TraceRecord",
    "Trajectory",
    "quasi_entropy",
    "k_slice_quasi_entropy",
    "named_spec",
    "trace_potentials",
    "write_matrix_text",
    "load_matrices_text",
]

BOUND_TOL = 1e-8   # slack when asserting |delta| <= rotation bound
DRIFT_TOL = 1e-8   # max entry of M^T @ MinvT - Id at a resync
DESYNC_TOL = 1e-6  # from-scratch evaluation vs the tracker's running value
RECOMPUTE_EVERY = 1024
NAMED_POTENTIALS = ("plain", "precond-id-f", "hat-pq")  # the kinds named_spec builds


def entropy_sum(values):
    """sum L(values) as a float, with L(x) = x log2|x| and L(0) = 0.

    Works in one scratch buffer (plus a nonzero mask) and leaves `values`
    unmodified.
    """
    v = np.asarray(values, dtype=float)
    nz = v != 0.0
    t = np.abs(v)
    np.log2(t, out=t, where=nz)
    np.multiply(t, v, out=t, where=nz)
    return float(np.sum(t))


def _inverse_transpose(M):
    try:
        return np.linalg.inv(M).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular state matrix: quasi-entropy undefined") from exc


def _as_square(M, name="M"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    return M


@dataclass
class PotentialSpec:
    """k preconditioner slice pairs (A_p, B_p); None means the identity."""

    n: int
    slices: list
    label: str = "custom"

    def __post_init__(self):
        if not self.slices:
            raise ValueError("a potential spec needs at least one slice")
        checked = []
        for p, (A, B) in enumerate(self.slices):
            pair = []
            for name, X in (("A", A), ("B", B)):
                if X is None:
                    pair.append(None)
                    continue
                X = np.ascontiguousarray(X, dtype=float)
                if X.shape != (self.n, self.n):
                    raise ValueError(
                        f"slice {p}: {name} has shape {X.shape}, expected ({self.n}, {self.n})")
                if not np.isfinite(X).all():
                    raise ValueError(f"slice {p}: {name} has a non-finite entry")
                pair.append(X)
            checked.append(tuple(pair))
        self.slices = checked

    @property
    def k(self):
        return len(self.slices)

    @property
    def is_plain(self):
        A, B = self.slices[0]
        return self.k == 1 and A is None and B is None

    @classmethod
    def plain(cls, n):
        return cls(n, [(None, None)], label="plain")

    @classmethod
    def preconditioned(cls, A, B):
        if A is None and B is None:
            raise ValueError("use plain(n) when both preconditioners are the identity")
        n = (A if A is not None else B).shape[0]
        return cls(n, [(A, B)], label="precond")


def named_spec(kind, n):
    """The spec of a named potential at size n, F = wht_matrix(n): plain;
    precond-id-f, the pair (Id, F); hat-pq, P = [Id, -F], Q = [F, Id] as two
    identity-aware slices so M @ Id is never materialized."""
    if kind not in NAMED_POTENTIALS:
        raise ValueError(f"unknown potential kind {kind!r}")
    if kind == "plain":
        return PotentialSpec.plain(n)
    F = wht_matrix(n)
    slices = [(None, F)] if kind == "precond-id-f" else [(None, F), (-F, None)]
    return PotentialSpec(n, slices, label=kind)


def _slice_products(M, N, spec):
    """[(M A_p, N B_p)]; an identity slot is M or N itself."""
    return [(M if A is None else M @ A, N if B is None else N @ B)
            for A, B in spec.slices]


def _coupled(products, rows=slice(None)):
    """sum_p Lp * Rp over the given rows of the sliced products."""
    (L0, R0) = products[0]
    s = L0[rows] * R0[rows]
    for Lp, Rp in products[1:]:
        s += Lp[rows] * Rp[rows]
    return s


def _value(products):
    """The potential of the sliced products (+ 0.0 turns -0.0 into 0.0)."""
    return -entropy_sum(_coupled(products)) + 0.0


def k_slice_quasi_entropy(M, spec, minv_t=None):
    """General k-slice quasi-entropy; the k=1 identity slice is Phi(M)."""
    M = _as_square(M)
    if M.shape[0] != spec.n:
        raise ValueError(f"state is {M.shape[0]}-dimensional, spec expects {spec.n}")
    N = _inverse_transpose(M) if minv_t is None else _as_square(minv_t, "minv_t")
    return _value(_slice_products(M, N, spec))


def quasi_entropy(M, minv_t=None):
    """Plain quasi-entropy Phi(M) = -sum L(M(i,j) * MinvT(i,j))."""
    M = _as_square(M)
    return k_slice_quasi_entropy(M, PotentialSpec.plain(M.shape[0]), minv_t)


def _value_and_caches(state, spec):
    """(potential, caches) of `state` for a tracker, which mutates its caches
    in place: the identity slots are copied only after the value is taken, so
    the copies are not live while entropy_sum runs."""
    products = _slice_products(state.M, state.MinvT, spec)
    value = _value(products)
    return value, [(Lp.copy() if Lp is state.M else Lp,
                    Rp.copy() if Rp is state.MinvT else Rp)
                   for Lp, Rp in products]


class PotentialTracker:
    """Incremental quasi-entropy along a gate program.

    Caches the per-slice products (M A_p, MinvT B_p); a rotation touches
    two rows of every cache, a constant gate one row, so each step costs
    O(k n).  Constant gates leave the plain potential unchanged exactly
    (row i of M scales by c, of MinvT by 1/c, products cancel) and the
    tracker returns literal 0.0 there; general specs recompute the one
    affected row.  `resync` checks the running value against a
    from-scratch evaluation.
    """

    def __init__(self, spec, state):
        if state.M.shape[0] != spec.n:
            raise ValueError(f"state is {state.M.shape[0]}-dimensional, spec expects {spec.n}")
        self.spec = spec
        self.value, self.products = _value_and_caches(state, spec)

    def rotation_bound(self, i, iprime):
        """Theorem 2's bound on |delta Phi_{A,B}| for any rotation of rows
        (i, iprime): the product of the Frobenius norms of those rows of M A
        and of MinvT B, O(n) from the caches.  Single-slice specs only."""
        if self.spec.k != 1:
            raise ValueError("rotation delta bound is defined for single-slice specs")
        (Lp, Rp), = self.products
        rows = [i - 1, iprime - 1]
        return float(np.linalg.norm(Lp[rows]) * np.linalg.norm(Rp[rows]))

    def advance(self, gate):
        """Apply one gate to the caches; returns the potential change."""
        if isinstance(gate, Rotation):
            rows = [gate.i - 1, gate.iprime - 1]
        elif self.spec.is_plain:
            rows = None  # the scalings of row i cancel inside the kernel
        else:
            rows = [gate.i - 1]
        before = 0.0 if rows is None else entropy_sum(_coupled(self.products, rows))
        for Lp, Rp in self.products:
            _apply_to_pair(gate, Lp, Rp)
        if rows is None:
            delta = 0.0
        else:
            delta = -(entropy_sum(_coupled(self.products, rows)) - before) + 0.0
        self.value += delta
        return delta

    def resync(self, state):
        """Evaluate the potential of `state` from scratch and return it.

        Raises RuntimeError unless the inverse drift of `state` is within
        DRIFT_TOL and the value within DESYNC_TOL of the running one (a NaN
        fails both); otherwise adopts it and caches rebuilt from `state`.
        """
        drift = inverse_drift(state)
        if not drift <= DRIFT_TOL:
            raise RuntimeError(
                f"step {state.t}: inverse-transpose drift {drift:.3e} exceeds {DRIFT_TOL:.1e}")
        direct, products = _value_and_caches(state, self.spec)
        if not abs(direct - self.value) <= DESYNC_TOL:
            raise RuntimeError(
                f"step {state.t}: tracker desynchronized from state: "
                f"incremental {self.value!r} vs direct {direct!r}")
        self.value, self.products = direct, products
        return direct


@dataclass
class TraceRecord:
    t: int
    gate: object
    potential: float
    delta: float
    bound: float | None
    kappa: float | None

    @property
    def exceeds_bound(self):
        """A rotation whose |delta| is not within bound + BOUND_TOL (NaN is not)."""
        return (isinstance(self.gate, Rotation) and self.bound is not None
                and not abs(self.delta) <= self.bound + BOUND_TOL)


@dataclass
class Trajectory:
    """Record of one spec's traced run.  `records` has one entry per gate
    (an empty program leaves only the initial value); deltas telescope to
    final_value - initial_value up to roundoff."""

    label: str
    initial_value: float
    records: list = field(default_factory=list)
    direct_final: float = math.nan

    @property
    def final_value(self):
        return self.records[-1].potential if self.records else self.initial_value

    @property
    def max_abs_delta(self):
        return max((abs(r.delta) for r in self.records), default=0.0)


def trace_potentials(program, spec, recompute_every=RECOMPUTE_EVERY,
                     check_bounds=True, track_kappa=True):
    """Run a program once, tracking the spec's potential per step.

    Per record: potential value, delta, the rotation delta bound (single
    slice specs; 0.0 on constant gates, None for k >= 2), and kappa (from
    a KappaCertifier: recomputed after scaling gates, carried across
    isometries).  With `check_bounds`, a record that `exceeds_bound`
    raises RuntimeError.  The tracker is resynced (inverse drift, then
    from-scratch value) every `recompute_every` steps (0: never) and at
    the endpoint, whose from-scratch value is `direct_final`; a periodic
    resync at the last step serves as the endpoint's.
    """
    tracker = PotentialTracker(spec, TrackedState.identity(program.n))
    trajectory = Trajectory(spec.label, tracker.value)
    cert = KappaCertifier()

    def observer(t, gate, state):
        bound = None
        if spec.k == 1:
            bound = (tracker.rotation_bound(gate.i, gate.iprime)
                     if isinstance(gate, Rotation) else 0.0)
        delta = tracker.advance(gate)
        if recompute_every and t % recompute_every == 0:
            tracker.resync(state)
        record = TraceRecord(t, gate, tracker.value, delta, bound,
                             cert.kappa if track_kappa else None)
        if check_bounds and record.exceeds_bound:
            raise RuntimeError(
                f"step {t}: |delta| = {abs(delta)!r} exceeds rotation bound {bound!r}")
        trajectory.records.append(record)

    final = run_program(program, observers=[cert, observer] if track_kappa else [observer])
    m = len(program)
    if m and recompute_every and m % recompute_every == 0:
        trajectory.direct_final = tracker.value  # adopted by the resync at t = m
    else:
        trajectory.direct_final = tracker.resync(final)
    return trajectory


def write_matrix_text(fh, M):
    """Write one matrix block to an open handle: header 'n <rows> <cols>',
    then row-major decimals. Blocks may be concatenated in a single file."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    fh.write(f"n {M.shape[0]} {M.shape[1]}\n")
    for row in M:
        fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _parse_matrix_blocks(tokens):
    pos = 0
    while pos < len(tokens):
        if tokens[pos] != "n" or pos + 3 > len(tokens):
            raise ValueError("expected matrix header 'n <rows> <cols>'")
        rows, cols = int(tokens[pos + 1]), int(tokens[pos + 2])
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix header 'n {rows} {cols}' needs rows and cols >= 1")
        pos += 3
        count = rows * cols
        if pos + count > len(tokens):
            raise ValueError(f"matrix body truncated: needed {count} entries")
        data = np.array([float(tok) for tok in tokens[pos:pos + count]])
        pos += count
        yield data.reshape(rows, cols)


def load_matrices_text(path):
    """All matrices concatenated in one file, each in the text format."""
    with open(path) as fh:
        tokens = [tok for line in fh
                  if not line.lstrip().startswith("#")
                  for tok in line.split()]
    matrices = list(_parse_matrix_blocks(tokens))
    if not matrices:
        raise ValueError(f"no matrices found in {path}")
    return matrices
