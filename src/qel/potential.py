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
gate.  It owns one state, an (n, slots, n) stack of M, M^-T and the spec's
products (_slot_map; an identity slot is M or M^-T itself), and
PotentialTracker.advance moves it with the engine, gates.apply_gate in
program order.  The tracker only reads rows: it copies each gate's rows
before and after its move into a buffer of its kind, and takes the deltas
and bounds of a full buffer in one pass, so a chain of gates (an
Appendix-B program) pays for that arithmetic once per buffer.  Each gate's
terms are summed as one contiguous row, so every delta and bound is
bitwise that of a gate-by-gate update.  trace_potentials writes advance's
running potentials, deltas and bounds a segment at a time into float64
columns.  It resyncs the tracker at each `recompute_every`-th step before
the last, whose potential becomes the checked value, and at the endpoint,
which leaves the last step's running value.  A resync raises on inverse
drift beyond DRIFT_TOL first (a value checked against a wrong inverse means
nothing), then on a checked value off by more than DESYNC_TOL.  The checked
value is always the stack's own, O(k n^2).  At a periodic checkpoint every
probe passes, or the endpoint's exact check runs.  The probes, O(n^2) each
with PROBE_COLUMNS fixed random +-1 vectors, check the tracked inverse
against M and each product C = X A against X (A V).  The exact check forms
the n x n drift product, then rebuilds every product from M or M^-T
(_slice_products).  So on a clean trace the products are never reset
between the endpoints and deltas do not depend on the cadence.  Every n x n
pass of a trace (a value, a product probe's |X|, the exact drift product,
the start's row sums of |A|) runs in blocks of about gates._CHUNK_ENTRIES
entries, so a trace holds its stack and no n x n temporary; a value stays
bitwise entropy_sum's over the whole coupled matrix (_value).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .gates import (_CHUNK_ENTRIES, Constant, GateProgram, KappaCertifier, Rotation,
                    TrackedState, _row_blocks, _run, inverse_drift)
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


def _slot_map(spec):
    """Where a stack holds the spec's products, after M in slot 0 and M^-T
    in slot 1: (pairs, products, slots).  pairs[p] is (a_p, b_p), the slots
    of M A_p and M^-T B_p (0 or 1 for an identity, which has no slot of its
    own); products lists (slot, 0 or 1, preconditioner) for each product of
    M or of M^-T; slots counts them all.  Products of M take the even slots
    from 2 on and those of M^-T the odd ones from 3, so gates._scale_rows
    scales each as its row of M or M^-T; the side with fewer products is
    padded with slots nothing reads."""
    pairs, products, taken = [], [], [0, 0]
    for pair in spec.slices:
        slots = []
        for side, P in enumerate(pair):
            if P is None:
                slots.append(side)
                continue
            slots.append(2 + 2 * taken[side] + side)
            taken[side] += 1
            products.append((slots[-1], side, P))
        pairs.append(tuple(slots))
    return pairs, products, 2 + 2 * max(taken)


def _slice_products(slots, products):
    """Form each product of _slot_map's list into its slot of the sequence
    `slots` of n x n arrays, from slot 0 (M) or 1 (M^-T), in place."""
    for q, side, P in products:
        np.matmul(slots[side], P, out=slots[q])


def _coupled(slots, pairs, signs):
    """sum_p signs[p] slots[a_p] * slots[b_p] over the slot pairs of
    _slot_map, for a block of rows of every slot or for gathered rows, in
    one new C-ordered array, so each gathered gate's terms are one
    contiguous row.  Adding a negated product is subtracting it, so a slice
    held with sign -1 gives bitwise the sum of its negated preconditioner."""
    (a, b), *rest = pairs
    s = np.multiply(slots[a], slots[b], order="C")
    if signs[0] < 0:
        np.negative(s, out=s)
    for (a, b), sign in zip(rest, signs[1:]):
        (np.add if sign > 0 else np.subtract)(s, slots[a] * slots[b], out=s)
    return s


def _value(slots, pairs, signs):
    """The potential of the n x n arrays `slots` coupled by `pairs` (+ 0.0
    turns -0.0 into 0.0): a tracker's stack.swapaxes(0, 1), or a list of
    M, M^-T and the products.  It is in entropy_sum's order over the whole
    coupled matrix but with no n x n temporary.  np.sum of n^2 contiguous
    terms is numpy's pairwise sum: a range of more than _PAIRWISE_BLOCK
    entries splits after half its length rounded down to a multiple of 8,
    and each part is summed alone.  The flat range [0, n^2) of the coupled
    matrix splits the same way down to blocks of at most _CHUNK_ENTRIES
    entries (never below _PAIRWISE_BLOCK, where numpy stops splitting); each
    block forms the coupled terms of the rows it touches, slices out its
    flat range, np.sums its entropy terms, and the parts add back up the
    tree as Python floats, which raise no floating-point warning, so the
    value is bitwise that of the one np.sum."""
    return -_entropy_total(slots, pairs, signs, 0, slots[0].size) + 0.0


def _entropy_total(slots, pairs, signs, lo, hi):
    """The entropy terms of the coupled entries [lo, hi), summed in
    np.sum's pairwise order (see _value).  A module function, not a
    closure: a recursive closure is a reference cycle, which would keep the
    slots alive until the garbage collector ran."""
    if hi - lo <= max(_CHUNK_ENTRIES, _PAIRWISE_BLOCK):
        n = slots[0].shape[-1]
        first, last = lo // n, -(-hi // n)
        coupled = _coupled([X[first:last] for X in slots], pairs, signs)
        return float(np.sum(_entropy_terms(coupled.reshape(-1)[lo - first * n:hi - first * n])))
    half = (hi - lo) // 2
    half -= half % 8
    return (_entropy_total(slots, pairs, signs, lo, lo + half)
            + _entropy_total(slots, pairs, signs, lo + half, hi))


def k_slice_quasi_entropy(M, spec, minv_t=None):
    """General k-slice quasi-entropy; the k=1 identity slice is Phi(M)."""
    M = _as_square(M)
    if M.shape[0] != spec.n:
        raise ValueError(f"state is {M.shape[0]}-dimensional, spec expects {spec.n}")
    N = _inverse_transpose(M) if minv_t is None else _as_square(minv_t, "minv_t")
    pairs, products, count = _slot_map(spec)
    slots = [M, N, *np.empty((count - 2, spec.n, spec.n))]
    _slice_products(slots, products)
    return _value(slots, pairs, spec.signs)


def quasi_entropy(M, minv_t=None):
    """Plain quasi-entropy Phi(M) = -sum L(M(i,j) * MinvT(i,j))."""
    M = _as_square(M)
    return k_slice_quasi_entropy(M, PotentialSpec.plain(M.shape[0]), minv_t)


def _rotation_bounds(G):
    """The row-norm bound of each rotation of a batch, from the rows G,
    (2, g, 2, n), of a single-slice stack: G[0, j] and G[1, j] hold the rows
    (i, i') of rotation j in M A and in M^-T B, and the bound is the product
    of the Frobenius norms of those row pairs, each the square root of one
    BLAS dot product over 2n contiguous entries (the reshape copies them
    together if they are apart), as np.linalg.norm forms it.  It holds at
    orthogonal states (a quarter turn at the identity meets it), not at
    every state: the last rotation of tests/data/theorem2_counterexample_n2.txt
    (kappa 2.26) exceeds it 1.27-fold and that of ..._n4.txt 1.005-fold, as a
    strict-xfail test records (ROADMAP item 1)."""
    v = G.reshape(2, G.shape[1], 1, -1)
    norms = np.sqrt(v @ v.swapaxes(-1, -2))
    return (norms[0] * norms[1]).reshape(-1)


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

    The tracker owns one gates.TrackedState, `state`, whose (n, slots, n)
    stack holds M in slot 0, M^-T in slot 1 and after them the spec's
    products, M A_p at even slots and M^-T B_p at odd ones (_slot_map, whose
    `pairs` and `products` it keeps); row i of every slot is one contiguous
    block.  Constant gates leave the plain potential unchanged exactly (row
    i of M scales by c, of MinvT by 1/c, products cancel) and the tracker
    returns literal 0.0 there; general specs recompute the affected rows.
    `resync` checks the running value against the stack's own value.
    """

    def __init__(self, spec, state):
        """Start at a copy of `state`, or at the identity when it is None.
        There each product slot is its preconditioner, copied, and no
        product is formed: a copy differs from Id A only in the sign of
        zero entries, and L maps both signs of zero to 0."""
        if state is not None and state.M.shape[0] != spec.n:
            raise ValueError(f"state is {state.M.shape[0]}-dimensional, spec expects {spec.n}")
        n = spec.n
        self.spec = spec
        self.probe = _probe_matrix(n)
        self.pairs, self.products, count = _slot_map(spec)
        self.state = TrackedState(np.zeros((n, count, n)), 0 if state is None else state.t)
        slots = self.state.rows.swapaxes(0, 1)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            # per distinct preconditioner A: A V and the row sums of |A|, its probe's fixed half
            distinct = {id(P): P for _, _, P in self.products}
            images = {key: (A @ self.probe, np.concatenate(
                [np.abs(A[rows]).sum(axis=1) for rows in _row_blocks(A)]))
                for key, A in distinct.items()}
            self._checks = [images[id(P)] for _, _, P in self.products]
            if state is None:
                self.state.rows[np.arange(n), :2, np.arange(n)] = 1.0
                for q, _, P in self.products:
                    slots[q] = P
            else:
                slots[0], slots[1] = state.M, state.MinvT
                _slice_products(slots, self.products)
            self.value = _value(slots, self.pairs, spec.signs)
        if not math.isfinite(self.value):
            raise ValueError(f"the starting {spec.label} potential is {self.value!r}, not "
                             "finite: the preconditioners' products overflow")

    def _probes_pass(self):
        """Whether every O(PROBE_COLUMNS n^2) probe of the stack passes,
        stopping at the first miss.  First the inverse: max|M^T (M^-T V) - V|
        within DRIFT_TOL, V = `probe`.  Then each product C = X A in order
        (X = M or MinvT): max|C V - X (A V)| within CACHE_PROBE_TOL times
        max |X| (|A| |V|) (|A| |V| repeats the row sums of |A| in every
        column).  X is read a row block at a time (_row_blocks), so no n x n
        temporary is held."""
        slots = self.state.rows.swapaxes(0, 1)
        R = slots[0].T @ (slots[1] @ self.probe)
        R -= self.probe
        if not np.max(np.abs(R, out=R)) <= DRIFT_TOL:
            return False
        for (q, side, _), (AV, row_sums) in zip(self.products, self._checks):
            X = slots[side]
            R = slots[q] @ self.probe
            R -= X @ AV
            scale = np.max([np.max(np.abs(X[rows]) @ row_sums) for rows in _row_blocks(X)])
            if not np.max(np.abs(R, out=R)) <= CACHE_PROBE_TOL * scale:
                return False
        return True

    def rotation_bound(self, i, iprime):
        """The row-norm bound on |delta Phi_{A,B}| for a rotation of rows
        (i, iprime), O(n) from the stack, for single-slice specs: the
        product of the Frobenius norms of those rows of M A and of MinvT B,
        which holds at orthogonal states but not at every state
        (_rotation_bounds)."""
        if self.spec.k != 1:
            raise ValueError("rotation delta bound is defined for single-slice specs")
        if not (1 <= i <= self.spec.n and 1 <= iprime <= self.spec.n and i != iprime):
            raise ValueError(f"rows ({i}, {iprime}) are not two distinct rows in 1..{self.spec.n}")
        rows = self.state.rows[np.ix_([i - 1, iprime - 1], self.pairs[0])]  # [row][slot]
        return float(_rotation_bounds(rows.transpose(1, 0, 2)[:, None])[0])

    def advance(self, gates, *observers):
        """Apply a run of gates to the stack, one gates.apply_gate each in
        program order (gates._run), the tracker's recorder observing each
        gate before `observers`; returns (potentials, deltas, bounds),
        float64 arrays in program order.

        potentials[j] is the running value after gate j; bounds holds the
        row-norm bound (_rotation_bounds) per gate (0.0 on constant gates)
        for single-slice specs and is None otherwise.  The recorder copies
        gate j's row blocks after its move, and gate j + 1's before its own,
        into a buffer of their kind (a plain spec buffers no scaling: its
        delta is 0.0).  The two buffers hold at most _CHUNK_ENTRIES entries
        together; a full one, and each at the end, is evaluated in one pass
        (_flush), so a chain of gates (an Appendix-B program) pays for that
        arithmetic once per buffer, and gates of alternating kinds (a
        butterfly) never cut one short.  Each gate's terms are summed as one
        contiguous row, so every delta and bound is bitwise a gate-by-gate
        update's, and the running value adds the deltas one at a time
        (np.add.accumulate: bitwise a Python loop of +=).  If an observer
        raises, the buffers are evaluated first, so the attributes `deltas`
        and `bounds` hold the columns of every step before it.
        """
        n, count, plain = self.spec.n, self.state.rows.shape[1], self.spec.is_plain
        stack, first = self.state.rows, self.state.t + 1  # gate j is step first + j
        self.deltas = deltas = np.zeros(len(gates))  # a plain spec's literal 0.0 on scalings
        self.bounds = bounds = np.zeros(len(gates)) if self.spec.k == 1 else None
        # a rotation's two row blocks before and after its move, a scaling's one
        capacity = max(1, _CHUNK_ENTRIES // ((4 if plain else 6) * count * n))
        # per kind: [before, after][entry][row of the gate][slot] and the positions of
        # the entries that hold both halves
        buffers = {Rotation: (np.empty((2, capacity, 2, count, n)), []),
                   Constant: None if plain else (np.empty((2, capacity, 1, count, n)), [])}
        rows = [(g.i - 1, g.iprime - 1) if type(g) is Rotation else (g.i - 1,) for g in gates]

        # "clip" (rows are in range) makes take fill `out` in place
        def fetch(j):  # gate j's rows before its move, flushing a full buffer first
            kind = buffers[type(gates[j])]
            if kind is not None:
                buffer, at = kind
                if len(at) == capacity:
                    self._flush(buffer, at)
                stack.take(rows[j], axis=0, out=buffer[0, len(at)], mode="clip")

        def record(t, gate, state):  # gate t's rows after its move, then the next gate's
            j = t - first
            kind = buffers[type(gate)]
            if kind is not None:
                buffer, at = kind
                stack.take(rows[j], axis=0, out=buffer[1, len(at)], mode="clip")
                at.append(j)
            if j + 1 < len(gates):
                fetch(j + 1)

        try:
            if gates:
                fetch(0)
            _run(self.state, gates, (record, *observers))
        finally:
            for kind in buffers.values():
                if kind is not None:
                    self._flush(*kind)
        running = np.add.accumulate(np.concatenate(([self.value], deltas)))
        self.value = float(running[-1])
        return running[1:], deltas, bounds

    def _flush(self, buffer, at):
        """Evaluate a buffer's complete entries, the gates at positions `at`
        (emptied on return), whose rows buffer[0] holds before their move and
        buffer[1] after it: each gate's potential change and, for rotations
        of a single-slice spec, the row-norm bound of its rows before the
        move, in one pass over all of them."""
        if not at:
            return
        # (slots, gates, rows, n): the gates' rows by slot
        before, after = buffer[:, :len(at)].transpose(0, 3, 1, 2, 4)
        if self.bounds is not None and buffer.shape[2] == 2:  # rotations: two rows a gate
            self.bounds[at] = _rotation_bounds(before[list(self.pairs[0])])
        self.deltas[at] = -(_entropy_rows(_coupled(after, self.pairs, self.spec.signs))
                            - _entropy_rows(_coupled(before, self.pairs, self.spec.signs))) + 0.0
        at.clear()

    def resync(self, endpoint):
        """Check the tracker's stack and return the checked value.

        Raises RuntimeError unless the inverse drift of the state is within
        DRIFT_TOL and the checked value within DESYNC_TOL of the running one
        (a NaN fails both); otherwise adopts it.  Every probe passes
        (_probes_pass: no product is formed, and the value costs O(k n^2)),
        or the endpoint's exact check runs: at the `endpoint`, and after any
        miss, the exact inverse_drift decides, and then every product is
        rebuilt from M or M^-T (_slice_products) before the value is taken.

        If an entry P[i, j] of P = M^T M^-T - Id exceeds DRIFT_TOL,
        (P v)[i] = P[i, j] v[j] + (terms without v[j]), so one of the two
        signs of v[j] gives |(P v)[i]| >= |P[i, j]|: each column of V misses
        the drift with probability at most 1/2 over its draw, all of them
        with at most 2^-32 (in exact arithmetic).  Likewise for a product
        C = X A + E, C V - X (A V) is E V up to rounding, so an error
        E[i, j] alone shows as |E[i, j]| in every column, and several
        errors in one row slip past all columns with at most 2^-32.
        """
        state, slots = self.state, self.state.rows.swapaxes(0, 1)
        if endpoint or not self._probes_pass():
            drift = inverse_drift(state)
            if not drift <= DRIFT_TOL:
                raise RuntimeError(f"step {state.t}: inverse-transpose drift "
                                   f"{drift:.3e} exceeds {DRIFT_TOL:.1e}")
            _slice_products(slots, self.products)
        direct = _value(slots, self.pairs, self.spec.signs)
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
    drift, then the stack's value, see PotentialTracker.resync) at each
    step t < m that `recompute_every` divides (a positive int; one of at
    least m checks only the endpoint), whose checked value replaces
    potentials[t], and once at the endpoint, whose from-scratch value is
    `direct_final`; potentials[m] keeps the running value, so final_value -
    direct_final is a margin.

    The tracker's stack is the trace's one state: each segment between
    checkpoints is one PotentialTracker.advance, which applies its gates
    and calls the certifier after each.  A step's bound is checked after
    its certifier and its resync: the bounds of a segment are checked in
    step order once advance returns (or once the certifier raised at step
    t, up to t - 1, so a violation before t is reported instead), the
    segment's last step after its resync, so an error names the same first
    step as a gate-by-gate trace.  The tracker starts at the identity, so
    slice products are formed only at the endpoint and after a failed
    probe.
    """
    if type(recompute_every) is not int or recompute_every < 1:
        raise ValueError(f"recompute_every must be a positive int, got {recompute_every!r}")
    tracker = PotentialTracker(spec, None)
    m = len(program)
    potentials, deltas = np.full(m + 1, tracker.value), np.empty(m)
    bounds, kappas = (np.empty(m) if spec.k == 1 else None), (np.empty(m) if certify else None)
    cert = KappaCertifier()

    def record_kappa(t, gate, state):
        kappas[t - 1] = cert.kappa

    observers = (cert, record_kappa) if certify else ()

    def check(first, last):  # the bound rule at steps first..last, in order
        if certify and bounds is not None:
            for t in range(first, last + 1):
                if _exceeds_bound(program.gates[t - 1], deltas[t - 1], bounds[t - 1]):
                    raise RuntimeError(f"step {t}: |delta| = {abs(float(deltas[t - 1]))!r} "
                                       f"exceeds rotation bound {float(bounds[t - 1])!r}")

    for start in range(0, m, recompute_every):
        steps = slice(start, start + recompute_every)
        try:
            potentials[start + 1:start + 1 + recompute_every] = tracker.advance(
                program.gates[steps], *observers)[0]
        finally:  # also when the certifier raised: a violation before its step comes first
            deltas[steps] = tracker.deltas
            if bounds is not None:
                bounds[steps] = tracker.bounds
            check(start + 1, tracker.state.t - 1)
        t = tracker.state.t
        if t < m:
            potentials[t] = tracker.resync(False)
        check(t, t)
    direct = tracker.resync(True)
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
