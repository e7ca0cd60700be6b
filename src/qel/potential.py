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
gate from cached products, held in the engine's row layout as one (n, 2k,
n) stack and formed in one place (_slice_products); a tracker started at
the identity copies the preconditioners instead and forms none.
PotentialTracker.advance schedules a run of gates into ASAP levels of
row-disjoint gates; each level is one gather of its row blocks into a
before/after buffer, one update with the engine's row rules
(gates.rotate_rows, gates._scale_rows) and one scatter.  The deltas
and bounds wait in the buffer until it is full, the gate kind changes or
the run ends, and then come from one pass over all its gates, so a chain
of one-gate levels (an Appendix-B program) pays for that arithmetic once
per buffer rather than once per gate.  Each gate's terms are summed as one
contiguous row, so every delta and bound is bitwise that of a gate-by-gate
update.  trace_potentials writes advance's running potentials, deltas and
bounds a segment at a time into float64 columns.  It resyncs the tracker at
each `recompute_every`-th step before the last, whose potential becomes the
checked value, and at the endpoint, which leaves the last step's running
value.  A resync raises on inverse drift beyond DRIFT_TOL first (a value
checked against a wrong inverse means nothing), then on a checked value off
by more than DESYNC_TOL.  The checked value is always the caches' own,
O(k n^2).  At a periodic checkpoint every probe passes, or the endpoint's
exact check runs.  The probes, O(n^2) each with PROBE_COLUMNS fixed random
+-1 vectors, compare the tracked inverse with M and each cache slot with
the live state (an identity slot for a bitwise twin of M or M^-T, a
preconditioned cache C = X A by the same vectors).  The exact check forms
the n x n drift product, then rebuilds every slot (_slice_products: fresh
products, and a copy of M or M^-T in an identity slot).  So on a clean
trace the caches are never reset between the endpoints and deltas do not
depend on the cadence.  Every n x n pass of a trace (a value, a twin
comparison, a cache probe's |X|, the exact drift product, the start's row
sums of |A|) runs in blocks of about gates._CHUNK_ENTRIES entries, so a
trace holds the engine's (M, M^-T), its caches and no n x n temporary; a
value stays bitwise entropy_sum's over the whole coupled matrix (_value).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .gates import (_CHUNK_ENTRIES, GateProgram, KappaCertifier, Rotation, _row_blocks,
                    _scale_rows, inverse_drift, rotate_rows, run_program)
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
_PAIRWISE_BLOCK = 128  # numpy's pairwise sum adds up to this many entries without a split
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
    """Write M A_0, N B_0, M A_1, N B_1, ... into the slots of the (n, 2k, n)
    stack `out` (returned), an identity slot as a copy of M or N."""
    slots = [(X, P) for A, B in spec.slices for X, P in ((M, A), (N, B))]
    for cache, (X, P) in zip(out.swapaxes(0, 1), slots):
        if P is None:
            cache[...] = X
        else:
            np.matmul(X, P, out=cache)
    return out


def _coupled(products, signs):
    """sum_p signs[p] products[2p] * products[2p + 1]: the coupled matrix of
    the slots of a stack's rows (products[q] is slot q), or of rows gathered
    from all of them at once, in one new C-ordered array, so each gathered
    gate's terms are one contiguous row (a later slice's products are
    formed a row block at a time).
    Adding a negated product is subtracting it, so a slice held with sign -1
    gives bitwise the sum of its negated preconditioner."""
    s = np.multiply(products[0], products[1], order="C")
    if signs[0] < 0:
        np.negative(s, out=s)
    for p in range(1, len(signs)):
        X, Y, add = products[2 * p], products[2 * p + 1], np.add if signs[p] > 0 else np.subtract
        for rows in _row_blocks(s):
            add(s[rows], X[rows] * Y[rows], out=s[rows])
    return s


def _value(stack, signs):
    """The potential of the (n, 2k, n) stack of sliced products (+ 0.0
    turns -0.0 into 0.0), in entropy_sum's order over the whole coupled
    matrix but with no n x n temporary.  np.sum of n^2 contiguous terms is
    numpy's pairwise sum: a range of more than _PAIRWISE_BLOCK entries
    splits after half its length rounded down to a multiple of 8, and each
    part is summed alone.  The flat range [0, n^2) of the coupled matrix
    splits the same way down to blocks of at most _CHUNK_ENTRIES entries
    (never below _PAIRWISE_BLOCK, where numpy stops splitting); each block
    forms the coupled terms of the stack rows it touches, slices out its
    flat range, np.sums its entropy terms, and the parts add back up the
    tree as Python floats, which raise no floating-point warning, so the
    value is bitwise that of the one np.sum."""
    return -_entropy_total(stack, signs, 0, stack.shape[0] * stack.shape[-1]) + 0.0


def _entropy_total(stack, signs, lo, hi):
    """The entropy terms of the coupled entries [lo, hi) of the stack,
    summed in np.sum's pairwise order (see _value).  A module function, not
    a closure: a recursive closure is a reference cycle, which would keep
    the stack alive until the garbage collector ran."""
    if hi - lo <= max(_CHUNK_ENTRIES, _PAIRWISE_BLOCK):
        n = stack.shape[-1]
        first = lo // n
        coupled = _coupled(stack[first:-(-hi // n)].swapaxes(0, 1), signs)
        return float(np.sum(_entropy_terms(coupled.reshape(-1)[lo - first * n:hi - first * n])))
    half = (hi - lo) // 2
    half -= half % 8
    return _entropy_total(stack, signs, lo, lo + half) + _entropy_total(stack, signs, lo + half, hi)


def k_slice_quasi_entropy(M, spec, minv_t=None):
    """General k-slice quasi-entropy; the k=1 identity slice is Phi(M)."""
    M = _as_square(M)
    if M.shape[0] != spec.n:
        raise ValueError(f"state is {M.shape[0]}-dimensional, spec expects {spec.n}")
    N = _inverse_transpose(M) if minv_t is None else _as_square(minv_t, "minv_t")
    stack = np.empty((spec.n, 2 * spec.k, spec.n))
    return _value(_slice_products(M, N, spec, stack), spec.signs)


def quasi_entropy(M, minv_t=None):
    """Plain quasi-entropy Phi(M) = -sum L(M(i,j) * MinvT(i,j))."""
    M = _as_square(M)
    return k_slice_quasi_entropy(M, PotentialSpec.plain(M.shape[0]), minv_t)


def _rotation_bounds(G):
    """Theorem 2's bound for each rotation of a batch, from the rows G,
    (2, g, 2, n), of a single-slice tracker: G[0, j] and G[1, j] hold the
    rows (i, i') of rotation j in M A and in M^-T B.  The bound is the
    product of the Frobenius norms of those row pairs.  Each norm is the
    square root of one BLAS dot product over the pair's 2n contiguous
    entries (the reshape copies them together if they are apart), as
    np.linalg.norm forms it."""
    v = G.reshape(2, G.shape[1], 1, -1)
    norms = np.sqrt(v @ v.swapaxes(-1, -2))
    return (norms[0] * norms[1]).reshape(-1)


def _asap_levels(gates, n, chunk):
    """Schedule a run of gates into ASAP levels, in chunks of one kind.

    A gate's level is one more than the latest level of any earlier gate
    of the run that shares a row with it, so the gates of a level touch
    disjoint rows and each finds its rows as the gates before it in the
    run left them.  Returns (rotations, constants, chunks): rotations as
    program positions, (g, 2) 0-based rows and cos, sin as (g, 1, 1);
    constants as positions, (g, 1) rows and scalars as (g, 1, 1); both
    sorted by level, then position.  chunks lists (is_rotation, slice) in
    level order, each slice at most `chunk` entries of one level.
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
    return ((rot[:, 1].astype(np.intp), rot[:, 2:4].astype(np.intp),
             rot[:, 4:5, None], rot[:, 5:6, None]),
            (con[:, 1].astype(np.intp), con[:, 2:3].astype(np.intp), con[:, 3:4, None]),
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

    Caches the sliced products in one (n, 2k, n) stack, the engine's row
    layout: M A_p in slot 2p and MinvT B_p in slot 2p + 1, so row i of
    every cache is one contiguous block.  A rotation touches two blocks, a
    constant gate one, so each gate costs O(k n).  `advance` moves a
    run of gates through the caches a level of row-disjoint gates at a
    time: one gather of those rows from every cache, one update and one
    scatter per level, and the deltas and bounds of a buffer of gates in
    one pass.  Constant gates leave the plain potential unchanged
    exactly (row i of M scales by c, of MinvT by 1/c, products cancel) and
    the tracker returns literal 0.0 there; general specs recompute the
    affected rows.  `resync` checks the running value against the
    caches' own value, after probing the inverse and each slot against the
    live state (or, at the endpoint or after a miss, checking the exact
    drift and rebuilding every slot from the state).
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
        self.caches = np.zeros((spec.n, 2 * spec.k, spec.n))
        slots = [P for pair in spec.slices for P in pair]
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            # per distinct preconditioner A: A V and the row sums of |A|, its probe's fixed half
            distinct = {id(A): A for A in slots if A is not None}
            images = {key: (A @ self.probe, np.concatenate(
                [np.abs(A[rows]).sum(axis=1) for rows in _row_blocks(A)]))
                for key, A in distinct.items()}
            # per slot: None for an identity slot, else its preconditioner's probe images
            self._checks = [None if A is None else images[id(A)] for A in slots]
            if state is None:
                for cache, A in zip(self.caches.swapaxes(0, 1), slots):
                    if A is None:
                        np.fill_diagonal(cache, 1.0)
                    else:
                        cache[...] = A
            else:
                _slice_products(state.M, state.MinvT, spec, self.caches)
            self.value = _value(self.caches, spec.signs)
        if not math.isfinite(self.value):
            raise ValueError(f"the starting {spec.label} potential is {self.value!r}, not "
                             "finite: the preconditioners' products overflow")

    def _probes_pass(self, state):
        """Whether every O(PROBE_COLUMNS n^2) probe of the tracker against
        `state` passes, stopping at the first miss.  First the inverse:
        max|M^T (M^-T V) - V| within DRIFT_TOL, V = `probe`.  Then each
        slot in order (X = M or MinvT): an identity slot equals X bitwise;
        a preconditioned C = X A has max|C V - X (A V)| within
        CACHE_PROBE_TOL times max |X| (|A| |V|) (|A| |V| repeats the row
        sums of |A| in every column).  X is read a row block at a time
        (_row_blocks), so no n x n temporary is held."""
        R = state.M.T @ (state.MinvT @ self.probe)
        R -= self.probe
        if not np.max(np.abs(R, out=R)) <= DRIFT_TOL:
            return False
        for C, X, image in zip(self.caches.swapaxes(0, 1), (state.M, state.MinvT) * self.spec.k,
                               self._checks):
            if image is None:
                passed = all(np.array_equal(C[rows], X[rows]) for rows in _row_blocks(X))
            else:
                AV, row_sums = image
                R = C @ self.probe
                R -= X @ AV
                scale = np.max([np.max(np.abs(X[rows]) @ row_sums) for rows in _row_blocks(X)])
                passed = np.max(np.abs(R, out=R)) <= CACHE_PROBE_TOL * scale
            if not passed:
                return False
        return True

    def rotation_bound(self, i, iprime):
        """Theorem 2's bound on |delta Phi_{A,B}| for any rotation of rows
        (i, iprime): the product of the Frobenius norms of those rows of M A
        and of MinvT B, O(n) from the caches.  Single-slice specs only."""
        if self.spec.k != 1:
            raise ValueError("rotation delta bound is defined for single-slice specs")
        if not (1 <= i <= self.spec.n and 1 <= iprime <= self.spec.n and i != iprime):
            raise ValueError(f"rows ({i}, {iprime}) are not two distinct rows in 1..{self.spec.n}")
        rows = self.caches[[[i - 1, iprime - 1]]]  # (1, 2, 2, n): [gate][row][slot]
        return float(_rotation_bounds(rows.transpose(2, 0, 1, 3))[0])

    def advance(self, gates):
        """Apply a run of gates to the caches, level by level; returns
        (potentials, deltas, bounds), float64 arrays in program order.

        potentials[j] is the running value after gate j; bounds holds
        Theorem 2's bound per gate (0.0 on constant gates) for single-slice
        specs and is None otherwise.  A level is applied in chunks of one
        kind.  Each chunk gathers its row blocks (2k n contiguous entries
        each) straight into the `after` half of a before/after buffer of at most
        _CHUNK_ENTRIES entries, copies them into `before`, updates `after`
        and scatters it back.  The deltas and bounds of the buffered gates
        wait until the buffer is full, the kind changes or the run ends
        (_flush), so a chain of one-gate levels pays for them once per
        buffer.  Each gate's terms are still summed as one contiguous row,
        so every delta and bound is bitwise the one a gate-by-gate update
        gives, and the running value adds the deltas one at a time, in
        program order (np.add.accumulate: bitwise a Python loop of +=).
        """
        k, n = self.spec.k, self.spec.n
        capacity = max(1, _CHUNK_ENTRIES // (8 * k * n))  # gates: a rotation's 8kn entries
        rotations, constants, chunks = _asap_levels(gates, n, capacity)
        rpos, rrows, cos, sin = rotations
        cpos, crows, scalars = constants
        deltas = np.zeros(len(gates))  # a plain spec's literal 0.0 on constant gates
        bounds = np.zeros(len(gates)) if k == 1 else None  # 0.0 on constant gates
        # per kind: each gate's rows, (r, gates), the move of a chunk s of its gates in
        # the buffer, its program positions and the columns its deltas and bounds go
        # to (None: skip)
        kinds = {True: (rrows.T, lambda G, s: rotate_rows(G, 0, 1, cos[s], sin[s]), rpos,
                        deltas, bounds),
                 False: (crows.T, lambda G, s: _scale_rows(G, 0, scalars[s]), cpos,
                         None if self.spec.is_plain else deltas, None)}
        # [before, after][row of the gate][gate][slot]: one row of n entries
        buffer = np.empty((2, 2, min(capacity, len(gates)), 2 * k, n))
        kind, first, end = True, 0, 0  # the buffered gates: entries [first, end) of kind
        for is_rotation, s in chunks:
            if is_rotation != kind or s.stop - first > capacity:
                self._flush(buffer, kinds[kind], slice(first, end))
                kind, first = is_rotation, s.start
            index, act = kinds[kind][:2]
            rows = index[:, s]
            before, after = buffer[:, :len(rows), s.start - first:s.stop - first]
            for q, out in zip(rows, after):  # "clip" (rows are in range) fills `out` in place
                self.caches.take(q, axis=0, out=out, mode="clip")
            before[...] = after
            act(after, s)
            self.caches[rows] = after
            end = s.stop
        self._flush(buffer, kinds[kind], slice(first, end))
        running = np.add.accumulate(np.concatenate(([self.value], deltas)))
        self.value = float(running[-1])
        return running[1:], deltas, bounds

    def _flush(self, buffer, kind, gates):
        """Evaluate the buffered `gates`, a slice of the entries of `kind`,
        whose rows buffer[0] holds before their move and buffer[1] after it:
        each gate's potential change and, for a kind with bounds, Theorem 2's
        bound of its rows before the move, in one pass over all of them, into
        the gates' program positions."""
        index, _, positions, deltas, bounds = kind
        if gates.start == gates.stop:
            return
        at = positions[gates]
        # (2k, g, r, n): the gates' rows by cache
        before, after = buffer[:, :len(index), :gates.stop - gates.start].transpose(0, 3, 2, 1, 4)
        if bounds is not None:
            bounds[at] = _rotation_bounds(before)
        if deltas is not None:
            deltas[at] = -(_entropy_rows(_coupled(after, self.spec.signs))
                           - _entropy_rows(_coupled(before, self.spec.signs))) + 0.0

    def resync(self, state, endpoint):
        """Check the tracker against `state` and return the checked value.

        Raises RuntimeError unless the inverse drift of `state` is within
        DRIFT_TOL and the checked value within DESYNC_TOL of the running one
        (a NaN fails both); otherwise adopts it.  Every probe passes
        (_probes_pass: no product is formed, and the value costs O(k n^2)),
        or the endpoint's exact check runs: at the `endpoint`, and after any
        miss, the exact inverse_drift decides, and then every slot is
        rebuilt (_slice_products) before the value is taken.

        If an entry P[i, j] of P = M^T M^-T - Id exceeds DRIFT_TOL,
        (P v)[i] = P[i, j] v[j] + (terms without v[j]), so one of the two
        signs of v[j] gives |(P v)[i]| >= |P[i, j]|: each column of V misses
        the drift with probability at most 1/2 over its draw, all of them
        with at most 2^-32 (in exact arithmetic).  Likewise for a cache
        C = X A + E, C V - X (A V) is E V up to rounding, so an error
        E[i, j] alone shows as |E[i, j]| in every column, and several
        errors in one row slip past all columns with at most 2^-32.
        """
        if endpoint or not self._probes_pass(state):
            drift = inverse_drift(state)
            if not drift <= DRIFT_TOL:
                raise RuntimeError(f"step {state.t}: inverse-transpose drift "
                                   f"{drift:.3e} exceeds {DRIFT_TOL:.1e}")
            _slice_products(state.M, state.MinvT, self.spec, self.caches)
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
    """One spec's traced run of `program`, as float64 columns: potentials[t]
    is the running value after step t (potentials[0] the initial one);
    deltas, bounds (None for k >= 2 specs) and kappas (None uncertified)
    hold step t at t - 1, and telescope to final_value - initial_value up
    to roundoff.  The properties are Python floats."""

    label: str
    program: GateProgram
    potentials: np.ndarray
    deltas: np.ndarray
    bounds: np.ndarray | None
    kappas: np.ndarray | None
    direct_final: float

    @property
    def initial_value(self):
        return float(self.potentials[0])

    @property
    def final_value(self):
        return float(self.potentials[-1])

    @property
    def max_abs_delta(self):
        return float(np.max(np.abs(self.deltas), initial=0.0))


def trace_potentials(program, spec, recompute_every=RECOMPUTE_EVERY, certify=True):
    """Run a program of m gates once and return the spec's Trajectory.

    Its columns hold, per step, the potential, its delta, the rotation
    bound (single-slice specs; 0.0 on constant gates) and, to `certify`,
    kappa (from a KappaCertifier: recomputed after scaling gates, carried
    across isometries); certifying also raises RuntimeError on a rotation
    over its bound (_exceeds_bound).  The tracker is resynced (inverse
    drift, then the caches' value, see PotentialTracker.resync) at each
    step t < m that `recompute_every` divides (a positive int; one of at
    least m checks only the endpoint), whose checked value replaces
    potentials[t], and once at the endpoint, whose from-scratch value is
    `direct_final`; potentials[m] keeps the running value, so final_value -
    direct_final is a margin.

    The tracker advances through each segment between checkpoints at once
    (in ASAP levels) when the engine enters it; each step's resync and
    bound check run when the engine reaches that step, after its
    certifier, so an error names the same first step as a gate-by-gate
    trace.  The tracker starts at the identity, so slice products are
    formed only at the endpoint and after a failed probe.
    """
    if type(recompute_every) is not int or recompute_every < 1:
        raise ValueError(f"recompute_every must be a positive int, got {recompute_every!r}")
    tracker = PotentialTracker(spec, None)
    m = len(program)
    potentials, deltas = np.full(m + 1, tracker.value), np.empty(m)
    bounds, kappas = (np.empty(m) if spec.k == 1 else None), (np.empty(m) if certify else None)
    cert, segment = KappaCertifier(), recompute_every

    def observer(t, gate, state):
        if (t - 1) % segment == 0:
            steps = slice(t - 1, t - 1 + segment)
            potentials[t:t + segment], deltas[steps], moved_bounds = tracker.advance(
                program.gates[steps])
            if bounds is not None:
                bounds[steps] = moved_bounds
        if t % segment == 0 and t < m:
            potentials[t] = tracker.resync(state, False)
        if certify:
            kappas[t - 1] = cert.kappa
            if bounds is not None and _exceeds_bound(gate, deltas[t - 1], bounds[t - 1]):
                raise RuntimeError(f"step {t}: |delta| = {abs(float(deltas[t - 1]))!r} "
                                   f"exceeds rotation bound {float(bounds[t - 1])!r}")

    final = run_program(program, observers=[cert, observer] if certify else [observer])
    direct = tracker.resync(final, True)
    return Trajectory(spec.label, program, potentials, deltas, bounds, kappas, direct)


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
