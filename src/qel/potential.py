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
slot means the identity, which skips a product) and a sign per slice, so
hat-pq's second pair (-F, Id) is held as (F, Id) with sign -1 and F is
stored once; named_spec builds the kinds the CLI names (NAMED_POTENTIALS).

Rotation and constant gates touch two rows (resp. one row) of every
sliced product, so a PotentialTracker updates the potential in O(k n) per
gate from cached products, formed in one place (_slice_products); a tracker
started at the identity copies the preconditioners instead and forms none.
PotentialTracker.advance takes a run of gates and schedules it into ASAP
levels of row-disjoint gates; each level is one gather of its rows from
every cache, one update with the engine's row rules (gates.rotate_rows,
gates._scale_rows) and one scatter, and the per-gate deltas and bounds are
bitwise those of a gate-by-gate update.  trace_potentials resyncs the
tracker every `recompute_every` gates and at the endpoint, and advances it
one segment between checkpoints at a time.  A resync raises on inverse
drift beyond DRIFT_TOL first (a value checked against a wrong inverse means
nothing), then on a checked value off by more than DESYNC_TOL.  The
endpoint's drift check is the exact n x n product; a periodic one is a
probe with PROBE_COLUMNS fixed random +-1 vectors, O(n^2), which hands over
to the exact product whenever it sees a residual beyond DRIFT_TOL.  The
endpoint's value is the potential of fresh slice products; a periodic
checkpoint forms no n x n product: it probes each preconditioned cache
C = X A against the live state with the same vectors, and takes the value
of the caches themselves, O(k n^2).  The caches are rebuilt there only
when a probe residual is beyond CACHE_PROBE_TOL, so on a clean trace they
are never reset between the endpoints and deltas do not depend on the
cadence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .gates import (GateProgram, KappaCertifier, Rotation, _scale_rows,
                    inverse_drift, inverse_probe, rotate_rows, run_program)
from .hadamard import wht_matrix

__all__ = [
    "entropy_sum",
    "PotentialSpec",
    "PotentialTracker",
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
DESYNC_TOL = 1e-6  # checked value at a resync vs the tracker's running value
RECOMPUTE_EVERY = 1024
_CHUNK_ENTRIES = 1 << 17  # entries one level chunk gathers from the caches (1 MiB)
PROBE_COLUMNS = 32  # +-1 columns of the periodic inverse probe: a miss has prob <= 2^-32
# max|C V - X (A V)| of a cached product C = X A, relative to max |X| (|A| |V|):
# forming both sides costs about 2 (n + 2) u of that (one length-n dot product
# each, twice for the nested one), and each of m gates about 4 u (a rounding
# of C and of X per entry it moves), about 5e-10 at n = 2^16 and m = 10^6
CACHE_PROBE_TOL = 1e-9
_PROBE_SEED = 1977  # so the probe matrix is the same for every tracker and every run
NAMED_POTENTIALS = ("plain", "precond-id-f", "hat-pq")  # the kinds named_spec builds


def _entropy_terms(values):
    """L(values) elementwise, with L(x) = x log2|x| and L(0) = 0, in one
    scratch buffer (plus a nonzero mask); `values` is left unmodified."""
    v = np.asarray(values, dtype=float)
    nz = v != 0.0
    t = np.abs(v)
    np.log2(t, out=t, where=nz)
    np.multiply(t, v, out=t, where=nz)
    return t


def entropy_sum(values):
    """sum L(values) as a float."""
    return float(np.sum(_entropy_terms(values)))


def _entropy_rows(values):
    """sum L over each values[j], for a batch of gathered rows: the same
    pairwise sum as entropy_sum(values[j])."""
    t = _entropy_terms(values)
    return t.reshape(len(t), -1).sum(axis=1)


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
    """k preconditioner slices, each a pair (A_p, B_p) or a triple (A_p,
    B_p, sign_p) with sign_p = +1 or -1 (a pair has sign +1); None means the
    identity.  The slice enters the coupled sum as sign_p (M A_p)(M^-T B_p).
    After checking, `slices` holds the pairs and `signs` the signs."""

    n: int
    slices: list
    label: str = "custom"
    signs: tuple = field(init=False)

    def __post_init__(self):
        if not self.slices:
            raise ValueError("a potential spec needs at least one slice")
        checked, signs = [], []
        for p, entry in enumerate(self.slices):
            A, B, sign = (*entry, 1) if len(entry) == 2 else entry
            if sign not in (1, -1):
                raise ValueError(f"slice {p}: sign must be +1 or -1, got {sign!r}")
            signs.append(float(sign))
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
        self.slices, self.signs = checked, tuple(signs)

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
    precond-id-f, the pair (Id, F); hat-pq, P = [Id, -F], Q = [F, Id] as the
    identity-aware slices (Id, F) and (F, Id) with sign -1, so M @ Id is
    never materialized and F is held once."""
    if kind not in NAMED_POTENTIALS:
        raise ValueError(f"unknown potential kind {kind!r}")
    if kind == "plain":
        return PotentialSpec.plain(n)
    F = wht_matrix(n)
    slices = [(None, F)] if kind == "precond-id-f" else [(None, F), (F, None, -1)]
    return PotentialSpec(n, slices, label=kind)


def _slice_products(M, N, spec, out):
    """[M A_0, N B_0, M A_1, N B_1, ...]; an identity slot is M or N itself,
    and a product is written into out[slot] unless `out` is None."""
    slots = [(X, P) for A, B in spec.slices for X, P in ((M, A), (N, B))]
    return [X if P is None else np.matmul(X, P, out=None if out is None else out[slot])
            for slot, (X, P) in enumerate(slots)]


def _row_blocks(X):
    """Slices of X's leading axis of about _CHUNK_ENTRIES entries each."""
    step = max(1, _CHUNK_ENTRIES * len(X) // max(1, X.size))
    return [slice(r, r + step) for r in range(0, len(X), step)]


def _coupled(products, signs):
    """sum_p signs[p] products[2p] * products[2p + 1]: the coupled matrix of
    sliced products, or of rows gathered from all of them at once, in one
    new array (a later slice's products are formed a row block at a time).
    Adding a negated product is subtracting it, so a slice held with sign -1
    gives bitwise the sum of its negated preconditioner."""
    s = np.multiply(products[0], products[1])
    if signs[0] < 0:
        np.negative(s, out=s)
    for p in range(1, len(signs)):
        X, Y, add = products[2 * p], products[2 * p + 1], np.add if signs[p] > 0 else np.subtract
        for rows in _row_blocks(s):
            add(s[rows], X[rows] * Y[rows], out=s[rows])
    return s


def _value(products, signs):
    """The potential of the sliced products (+ 0.0 turns -0.0 into 0.0).  The
    coupled matrix is its one n x n buffer: its entropy terms overwrite it a
    row block at a time, and one np.sum over all of it keeps entropy_sum's
    summation order."""
    s = _coupled(products, signs)
    for rows in _row_blocks(s):
        s[rows] = _entropy_terms(s[rows])
    return -float(np.sum(s)) + 0.0


def k_slice_quasi_entropy(M, spec, minv_t=None):
    """General k-slice quasi-entropy; the k=1 identity slice is Phi(M)."""
    M = _as_square(M)
    if M.shape[0] != spec.n:
        raise ValueError(f"state is {M.shape[0]}-dimensional, spec expects {spec.n}")
    N = _inverse_transpose(M) if minv_t is None else _as_square(minv_t, "minv_t")
    return _value(_slice_products(M, N, spec, None), spec.signs)


def quasi_entropy(M, minv_t=None):
    """Plain quasi-entropy Phi(M) = -sum L(M(i,j) * MinvT(i,j))."""
    M = _as_square(M)
    return k_slice_quasi_entropy(M, PotentialSpec.plain(M.shape[0]), minv_t)


def _rotation_bounds(G):
    """Theorem 2's bound for each rotation of a batch, from the rows
    G = caches[:, rows] of a single-slice tracker, rows (g, 2): the product
    of the Frobenius norms of the row pairs of M A and of M^-T B.  Each
    norm is the square root of one BLAS dot product, as np.linalg.norm
    forms it."""
    v = G.reshape(2, G.shape[1], 1, -1)
    norms = np.sqrt(v @ v.swapaxes(-1, -2))
    return (norms[0] * norms[1]).reshape(-1)


def _rotate_pairs(G, c, s):
    """Turn the gathered rows G = caches[:, rows], rows (g, 2), of every
    cache by cos c[j] and sin s[j] (columns), in place."""
    rotate_rows(G.transpose(2, 0, 1, 3), 0, 1, c, s)


def _scale_pairs(G, c):
    """Scale the gathered rows G = caches[:, rows], rows (g,), by c[j] in
    every M A_p and by 1/c[j] in every M^-T B_p, in place."""
    _scale_rows(G[0::2], G[1::2], Ellipsis, c)


def _asap_levels(gates, n, chunk):
    """Schedule a run of gates into ASAP levels, in chunks of one kind.

    A gate's level is one more than the latest level of any earlier gate
    of the run that shares a row with it, so the gates of a level touch
    disjoint rows and each finds its rows as the gates before it in the
    run left them.  Returns (rotations, constants, chunks): rotations as
    program positions, (g, 2) 0-based rows and cos, sin columns;
    constants as positions, rows and a scalar column; both sorted by
    level, then position.  chunks lists (is_rotation, slice) in level
    order, each slice at most `chunk` entries of one level.
    """
    last = [0] * n  # the level of the latest gate on each row
    rotations, constants = [], []
    for j, gate in enumerate(gates):
        if isinstance(gate, Rotation):
            i, ip = gate.i - 1, gate.iprime - 1
            level = last[i] = last[ip] = max(last[i], last[ip]) + 1
            rotations.append((level, j, i, ip, math.cos(gate.theta), math.sin(gate.theta)))
        else:
            i = gate.i - 1
            level = last[i] = last[i] + 1
            constants.append((level, j, i, gate.c))
    tasks = []
    for kind, entries in enumerate((constants, rotations)):
        entries.sort()
        start = 0
        for end in range(1, len(entries) + 1):
            if (end == len(entries) or entries[end][0] != entries[start][0]
                    or end - start == chunk):
                tasks.append((entries[start][0], kind, start, end))
                start = end
    tasks.sort()
    rot = np.array(rotations, dtype=float).reshape(-1, 6)
    con = np.array(constants, dtype=float).reshape(-1, 4)
    return ((rot[:, 1].astype(np.intp), rot[:, 2:4].astype(np.intp), rot[:, 4:5], rot[:, 5:6]),
            (con[:, 1].astype(np.intp), con[:, 2].astype(np.intp), con[:, 3:4]),
            [(bool(kind), slice(a, b)) for _, kind, a, b in tasks])


def _probe_matrix(n):
    """The n x PROBE_COLUMNS matrix of +-1 entries that resync probes the
    tracked inverse with: independent fair signs, drawn from _PROBE_SEED by
    the standard library's generator (importing numpy.random would add
    about 6 MB of resident memory to runs that draw nothing else)."""
    bits = random.Random(_PROBE_SEED).getrandbits(n * PROBE_COLUMNS)
    signs = np.unpackbits(np.frombuffer(bits.to_bytes(n * PROBE_COLUMNS // 8, "little"),
                                        dtype=np.uint8))
    return (1.0 - 2.0 * signs).reshape(n, PROBE_COLUMNS)


class PotentialTracker:
    """Incremental quasi-entropy along a gate program.

    Caches the sliced products in one (2k, n, n) array, M A_p at 2p and
    MinvT B_p at 2p + 1; a rotation touches two rows of every cache, a
    constant gate one row, so each gate costs O(k n).  `advance` moves a
    run of gates through the caches a level of row-disjoint gates at a
    time: one gather of those rows from every cache, one update and one
    scatter per level.  Constant gates leave the plain potential unchanged
    exactly (row i of M scales by c, of MinvT by 1/c, products cancel) and
    the tracker returns literal 0.0 there; general specs recompute the
    affected rows.  `resync` checks the running value against the
    caches' own value, after probing them against the live state, and at
    the endpoint against a from-scratch evaluation.
    """

    def __init__(self, spec, state):
        """Start at `state`, or at the identity when it is None.  There each
        cache is its slot's preconditioner (Id for None), copied, and no
        product is formed: a copy differs from Id A only in the sign of
        zero entries, and L maps both signs of zero to 0."""
        if state is not None and state.M.shape[0] != spec.n:
            raise ValueError(f"state is {state.M.shape[0]}-dimensional, spec expects {spec.n}")
        self.spec = spec
        self.probe = _probe_matrix(spec.n)
        self.caches = np.empty((2 * spec.k, spec.n, spec.n))
        slots = [P for pair in spec.slices for P in pair]
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            # per distinct preconditioner A: A V and the row sums of |A|, its probe's fixed half
            distinct = {id(A): A for A in slots if A is not None}
            images = {key: (A @ self.probe, np.abs(A).sum(axis=1)) for key, A in distinct.items()}
            self._probed = [(slot, *images[id(A)]) for slot, A in enumerate(slots)
                            if A is not None]
            if state is None:
                for cache, A in zip(self.caches, slots):
                    if A is None:
                        cache[...] = 0.0
                        np.fill_diagonal(cache, 1.0)
                    else:
                        cache[...] = A
                self.value = _value(self.caches, spec.signs)
            else:
                self.caches[0::2], self.caches[1::2] = state.M, state.MinvT
                self.value = self._rebuild(state)
        if not math.isfinite(self.value):
            raise ValueError(f"the starting {spec.label} potential is {self.value!r}, not "
                             "finite: the preconditioners' products overflow")

    def _rebuild(self, state):
        """Form the preconditioned caches from `state` in place (an identity
        slot already is M or MinvT, bitwise); returns the potential of
        `state`, taken from those products and from M and MinvT."""
        return _value(_slice_products(state.M, state.MinvT, self.spec, self.caches),
                      self.spec.signs)

    def _caches_pass_probe(self, state):
        """Whether every preconditioned cache C = X A (X = M or MinvT of
        `state`) has max|C V - X (A V)| within CACHE_PROBE_TOL times
        max |X| (|A| |V|), with V = `probe` (so |A| |V| repeats the row sums
        of |A| in every column): O(PROBE_COLUMNS n^2) per slot."""
        for slot, AV, row_sums in self._probed:
            X = state.MinvT if slot % 2 else state.M
            R = self.caches[slot] @ self.probe
            R -= X @ AV
            if not np.max(np.abs(R, out=R)) <= CACHE_PROBE_TOL * np.max(np.abs(X) @ row_sums):
                return False
        return True

    def rotation_bound(self, i, iprime):
        """Theorem 2's bound on |delta Phi_{A,B}| for any rotation of rows
        (i, iprime): the product of the Frobenius norms of those rows of M A
        and of MinvT B, O(n) from the caches.  Single-slice specs only."""
        if self.spec.k != 1:
            raise ValueError("rotation delta bound is defined for single-slice specs")
        return float(_rotation_bounds(self.caches[:, [[i - 1, iprime - 1]]])[0])

    def advance(self, gates):
        """Apply a run of gates to the caches, level by level; returns
        (deltas, bounds) in program order.

        bounds holds Theorem 2's bound per gate (0.0 on constant gates) for
        single-slice specs and is None otherwise.  A level is applied in
        chunks of one kind, each gathering at most _CHUNK_ENTRIES entries.
        Every delta and bound is bitwise the one a gate-by-gate update
        gives, and the running value adds the deltas one at a time, in
        program order.
        """
        k, n = self.spec.k, self.spec.n
        rotations, constants, chunks = _asap_levels(
            gates, n, max(1, _CHUNK_ENTRIES // (4 * k * n)))
        rpos, rrows, cos, sin = rotations
        cpos, crows, scalars = constants
        rdelta, rbound = np.empty(len(rpos)), np.empty(len(rpos))
        cdelta = np.zeros(len(cpos))  # a plain spec's literal 0.0
        for is_rotation, s in chunks:
            if is_rotation:
                self._move(rrows[s], _rotate_pairs, (cos[s], sin[s]), rdelta[s],
                           rbound[s] if k == 1 else None)
            else:
                self._move(crows[s], _scale_pairs, (scalars[s],),
                           None if self.spec.is_plain else cdelta[s], None)
        deltas = np.empty(len(gates))
        deltas[rpos], deltas[cpos] = rdelta, cdelta
        deltas = deltas.tolist()
        for delta in deltas:
            self.value += delta
        if k != 1:
            return deltas, None
        bounds = np.zeros(len(gates))
        bounds[rpos] = rbound
        return deltas, bounds.tolist()

    def _move(self, rows, act, params, deltas, bounds):
        """Gather `rows` of every cache, apply act(G, *params) to the
        gathered G in place and scatter it back.  Writes each gate's
        potential change into `deltas` (None: leave it) and, into `bounds`
        (None: skip), Theorem 2's bound of the rows before the move."""
        G = self.caches[:, rows]
        if bounds is not None:
            bounds[:] = _rotation_bounds(G)
        if deltas is not None:
            before = _entropy_rows(_coupled(G, self.spec.signs))
        act(G, *params)
        if deltas is not None:
            deltas[:] = -(_entropy_rows(_coupled(G, self.spec.signs)) - before) + 0.0
        self.caches[:, rows] = G

    def resync(self, state, endpoint):
        """Check the tracker against `state` and return the checked value.

        Raises RuntimeError unless the inverse drift of `state` is within
        DRIFT_TOL and the checked value within DESYNC_TOL of the running one
        (a NaN fails both); otherwise adopts it.

        At the `endpoint` the drift is the exact inverse_drift.  Elsewhere
        the probe max|(M^T M^-T - Id) V|, V = `probe` (n x PROBE_COLUMNS,
        +-1 entries), comes first, in O(PROBE_COLUMNS n^2); inverse_drift
        runs only when the probe is not within DRIFT_TOL, and then its value
        decides and fills the message.  If an entry P[i, j] of
        P = M^T M^-T - Id exceeds DRIFT_TOL, (P v)[i] = P[i, j] v[j] + (terms
        without v[j]), so one of the two signs of v[j] gives
        |(P v)[i]| >= |P[i, j]|: each column of V misses the drift with
        probability at most 1/2 over its draw, all of them with at most
        2^-32 (in exact arithmetic).

        The checked value at the `endpoint` is the potential of fresh slice
        products, which replace the preconditioned caches.  Elsewhere each
        preconditioned cache C = X A + E is probed first: (C V - X (A V)) is
        E V up to rounding, so an error E[i, j] alone shows as |E[i, j]| in
        every column of the probe, and several errors in one row slip past
        all columns with at most 2^-32 as above.  If every probe is within
        CACHE_PROBE_TOL, the checked value is that of the caches themselves,
        O(k n^2), and no product is formed; otherwise the caches are rebuilt
        as at the endpoint and the fresh value faces the desync check, so
        the probe flags and the exact path decides.
        """
        if endpoint or not inverse_probe(state, self.probe) <= DRIFT_TOL:
            drift = inverse_drift(state)
            if not drift <= DRIFT_TOL:
                raise RuntimeError(f"step {state.t}: inverse-transpose drift "
                                   f"{drift:.3e} exceeds {DRIFT_TOL:.1e}")
        if endpoint or not self._caches_pass_probe(state):
            direct = self._rebuild(state)
        else:
            direct = _value(self.caches, self.spec.signs)
        if not abs(direct - self.value) <= DESYNC_TOL:
            raise RuntimeError(
                f"step {state.t}: tracker desynchronized from state: "
                f"incremental {self.value!r} vs direct {direct!r}")
        self.value = direct
        return direct


def _exceeds_bound(gate, delta, bound):
    """Whether `gate` is a rotation whose |delta| is not within bound +
    BOUND_TOL (NaN is not): the one place the bound rule is applied."""
    return isinstance(gate, Rotation) and not abs(delta) <= bound + BOUND_TOL


@dataclass
class Trajectory:
    """One spec's traced run of `program`, as columns: potentials[t] is the
    value after step t (potentials[0] the initial one); deltas, bounds (None
    for k >= 2 specs) and kappas (None untracked) hold step t at t - 1.
    Deltas telescope to final_value - initial_value up to roundoff."""

    label: str
    program: GateProgram
    potentials: list
    deltas: list
    bounds: list | None
    kappas: list | None
    direct_final: float

    @property
    def initial_value(self):
        return self.potentials[0]

    @property
    def final_value(self):
        return self.potentials[-1]

    @property
    def max_abs_delta(self):
        return max(map(abs, self.deltas), default=0.0)


def trace_potentials(program, spec, recompute_every=RECOMPUTE_EVERY,
                     check_bounds=True, track_kappa=True):
    """Run a program once and return the spec's Trajectory.

    Its columns hold, per step, the potential, its delta, the rotation
    bound (single-slice specs; 0.0 on constant gates) and kappa (from a
    KappaCertifier: recomputed after scaling gates, carried across
    isometries).  With `check_bounds`, a rotation over its bound
    (_exceeds_bound) raises RuntimeError.  The tracker is resynced
    (inverse drift, then the caches' value, see PotentialTracker.resync)
    every `recompute_every` steps (a non-negative int; 0: never) and at
    the endpoint, whose from-scratch value is `direct_final`; a periodic
    resync at the last step serves as the endpoint's, exact checks included.

    The program splits into segments that end at each resync step and at
    the endpoint.  When the engine enters a segment, the tracker advances
    through all of it at once (in ASAP levels) into the columns; each
    step's resync (which overwrites its potential) and bound check run when
    the engine reaches that step, after its certifier, so an error names
    the same first step as a gate-by-gate trace.  The tracker starts at the
    identity, so slice products are formed only at the endpoint and after a
    failed cache probe.
    """
    if type(recompute_every) is not int or recompute_every < 0:
        raise ValueError(f"recompute_every must be a non-negative int, got {recompute_every!r}")
    tracker = PotentialTracker(spec, None)
    potentials, deltas = [tracker.value], []
    bounds, kappas = ([] if spec.k == 1 else None), ([] if track_kappa else None)
    cert = KappaCertifier()
    m = len(program)
    segment = recompute_every or m

    def observer(t, gate, state):
        if (t - 1) % segment == 0:
            moved, moved_bounds = tracker.advance(program.gates[t - 1:t - 1 + segment])
            potentials.extend(accumulate(moved, initial=potentials.pop()))
            deltas.extend(moved)
            if bounds is not None:
                bounds.extend(moved_bounds)
        if track_kappa:
            kappas.append(cert.kappa)
        if recompute_every and t % recompute_every == 0:
            potentials[t] = tracker.resync(state, t == m)
        if check_bounds and bounds and _exceeds_bound(gate, deltas[t - 1], bounds[t - 1]):
            raise RuntimeError(f"step {t}: |delta| = {abs(deltas[t - 1])!r} "
                               f"exceeds rotation bound {bounds[t - 1]!r}")

    final = run_program(program, observers=[cert, observer] if track_kappa else [observer])
    if not (m and recompute_every and m % recompute_every == 0):  # else step m resynced
        tracker.resync(final, True)
    return Trajectory(spec.label, program, potentials, deltas, bounds, kappas, tracker.value)


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
