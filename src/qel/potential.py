"""Quasi-entropy potentials of gate-program states, with incremental tracking.

All logarithms are base 2.  The entropy kernel is L(x) = x log2|x| with
L(0) = 0.  For a nonsingular matrix M with inverse-transpose N:

    plain:          Phi(M)       = -sum_ij L( M(i,j) N(i,j) )
    preconditioned: Phi_{A,B}(M) = -sum_ij L( (M A)(i,j) (N B)(i,j) )
    k-slice:        Phi^(k)(M)   = -sum_ij L( sum_p (M A_p)(i,j) (N B_p)(i,j) )

The hat potential takes n-by-2n preconditioners P, Q and couples column j
with column j+n inside the kernel; it is exactly the k-slice potential of
the two column blocks.  A PotentialSpec holds the slice pairs (None in a
slot means the identity, which skips a product).

Rotation and constant gates touch two rows (resp. one row) of every
sliced product, so a PotentialTracker updates the potential in O(k n) per
gate from cached products.  trace_potentials resyncs the tracker every
`recompute_every` gates and at the endpoint.  A resync raises on inverse
drift beyond DRIFT_TOL first (a from-scratch value on a wrong inverse
means nothing), then on a from-scratch value off by more than DESYNC_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import (KappaCertifier, Rotation, TrackedState, inverse_drift,
                    rotate_rows, run_program)
from .hadamard import wht_matrix

__all__ = [
    "entropy_sum",
    "PotentialSpec",
    "PotentialTracker",
    "TraceRecord",
    "Trajectory",
    "quasi_entropy",
    "preconditioned_quasi_entropy",
    "hat_quasi_entropy",
    "k_slice_quasi_entropy",
    "hat_wht_spec",
    "rotation_delta_bound",
    "trace_potentials",
    "write_matrix_text",
    "save_matrix_text",
    "load_matrix_text",
    "load_matrices_text",
]

BOUND_TOL = 1e-8   # slack when asserting |delta| <= rotation bound
DRIFT_TOL = 1e-8   # max entry of M^T @ MinvT - Id at a resync
DESYNC_TOL = 1e-6  # from-scratch evaluation vs the tracker's running value
RECOMPUTE_EVERY = 1024


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

    @classmethod
    def hat(cls, P, Q):
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        n = P.shape[0]
        if P.shape != (n, 2 * n) or Q.shape != (n, 2 * n):
            raise ValueError(
                f"hat preconditioners must be n-by-2n, got {P.shape} and {Q.shape}")
        return cls(n, [(P[:, :n].copy(), Q[:, :n].copy()),
                       (P[:, n:].copy(), Q[:, n:].copy())], label="hat")


def hat_wht_spec(n):
    """The hat spec with P = [Id, -F], Q = [F, Id] (F = wht_matrix(n)),
    stored as two identity-aware slices so M @ Id is never materialized."""
    F = wht_matrix(n)
    return PotentialSpec(n, [(None, F), (-F, None)], label="hat-pq")


def _slice_products(M, N, spec, copy=False):
    """[(M A_p, N B_p)]; an identity slot is M or N itself unless `copy`
    (a tracker mutates its caches in place)."""
    return [((M.copy() if copy else M) if A is None else M @ A,
             (N.copy() if copy else N) if B is None else N @ B)
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


def preconditioned_quasi_entropy(M, A, B, minv_t=None):
    """Phi_{A,B}(M); A or B may be None for the identity."""
    M = _as_square(M)
    n = M.shape[0]
    spec = (PotentialSpec.plain(n) if A is None and B is None
            else PotentialSpec.preconditioned(A, B))
    return k_slice_quasi_entropy(M, spec, minv_t)


def hat_quasi_entropy(M, P, Q, minv_t=None):
    """Hat potential over n-by-2n preconditioners; equals the k-slice
    potential of the two column blocks, exactly."""
    return k_slice_quasi_entropy(M, PotentialSpec.hat(P, Q), minv_t)


def _rotation_bound(spec, products, rows):
    """Frobenius norm of the given rows of M A times that of MinvT B, from
    the products of a single-slice spec."""
    if spec.k != 1:
        raise ValueError("rotation delta bound is defined for single-slice specs")
    (Lp, Rp), = products
    return float(np.linalg.norm(Lp[rows]) * np.linalg.norm(Rp[rows]))


def rotation_delta_bound(state, spec, i, iprime):
    """Product of the Frobenius norms of rows (i, iprime) of M A and of
    MinvT B: an upper bound on |delta Phi_{A,B}| for any rotation on those
    rows.  Single-slice specs only."""
    n = state.M.shape[0]
    if not (1 <= i <= n and 1 <= iprime <= n) or i == iprime:
        raise ValueError(f"invalid row pair ({i}, {iprime}) for n={n}")
    rows = [i - 1, iprime - 1]
    products = _slice_products(state.M[rows], state.MinvT[rows], spec)
    return _rotation_bound(spec, products, slice(None))


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
        self.products = _slice_products(state.M, state.MinvT, spec, copy=True)
        self.value = _value(self.products)

    def rotation_bound(self, i, iprime):
        """rotation_delta_bound from the caches, O(n)."""
        return _rotation_bound(self.spec, self.products, [i - 1, iprime - 1])

    def advance(self, gate):
        """Apply one gate to the caches; returns the potential change."""
        rotation = isinstance(gate, Rotation)
        i = gate.i - 1
        if rotation:
            ip = gate.iprime - 1
            c, s = math.cos(gate.theta), math.sin(gate.theta)
            rows = [i, ip]
        elif self.spec.is_plain:
            rows = None  # the scalings of row i cancel inside the kernel
        else:
            rows = [i]
        before = 0.0 if rows is None else entropy_sum(_coupled(self.products, rows))
        for Lp, Rp in self.products:
            if rotation:
                rotate_rows(Lp, i, ip, c, s)
                rotate_rows(Rp, i, ip, c, s)
            else:
                Lp[i] *= gate.c
                Rp[i] *= 1.0 / gate.c
        if rows is None:
            delta = 0.0
        else:
            delta = -(entropy_sum(_coupled(self.products, rows)) - before) + 0.0
        self.value += delta
        return delta

    def resync(self, state):
        """Evaluate the potential of `state` from scratch and return it.

        Raises RuntimeError if the inverse of `state` drifted by more than
        DRIFT_TOL or the value differs from the running one by more than
        DESYNC_TOL; otherwise adopts it and caches rebuilt from `state`.
        """
        drift = inverse_drift(state)
        if drift > DRIFT_TOL:
            raise RuntimeError(
                f"step {state.t}: inverse-transpose drift {drift:.3e} exceeds {DRIFT_TOL:.1e}")
        products = _slice_products(state.M, state.MinvT, self.spec)
        direct = _value(products)
        if abs(direct - self.value) > DESYNC_TOL:
            raise RuntimeError(
                f"step {state.t}: tracker desynchronized from state: "
                f"incremental {self.value!r} vs direct {direct!r}")
        self.value = direct
        # copy the identity slots only now, so they are not live while entropy_sum runs
        self.products = [(Lp.copy() if Lp is state.M else Lp,
                          Rp.copy() if Rp is state.MinvT else Rp)
                         for Lp, Rp in products]
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
        """A rotation whose |delta| exceeds its bound by more than BOUND_TOL."""
        return (isinstance(self.gate, Rotation) and self.bound is not None
                and abs(self.delta) > self.bound + BOUND_TOL)


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

    def telescoping_error(self):
        total = math.fsum(r.delta for r in self.records)
        return abs((self.final_value - self.initial_value) - total)


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


def save_matrix_text(M, path):
    with open(path, "w") as fh:
        write_matrix_text(fh, M)


def _parse_matrix_blocks(tokens):
    pos = 0
    while pos < len(tokens):
        if tokens[pos] != "n" or pos + 3 > len(tokens):
            raise ValueError("expected matrix header 'n <rows> <cols>'")
        rows, cols = int(tokens[pos + 1]), int(tokens[pos + 2])
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


def load_matrix_text(path):
    matrices = load_matrices_text(path)
    if len(matrices) != 1:
        raise ValueError(f"expected exactly one matrix in {path}, found {len(matrices)}")
    return matrices[0]
