"""Synthesis of gate programs computing the perturbed map Id + eps*F.

F diagonalizes over the rotation eigenbasis: F = W D W^T where W is the
log2(n)-fold Kronecker power of the 2x2 rotation by pi/8 (tan(pi/8) =
sqrt2 - 1 diagonalizes the 2x2 case) and D is the +-1 diagonal with
D(i,i) = (-1)^popcount(i-1).  Hence

    Id + eps*F = W (Id + eps*D) W^T,

a program of rotations, then n row scalings 1 + eps*D(i,i), then more
rotations.  Every intermediate state has condition number at most
(1 + eps)/(1 - eps), attained inside the scaling section.

Two routes emit the rotation sections: "AppendixB" triangularizes W and
W^T by Givens elimination (O(n^2) gates, works for any orthogonal
matrix), "FastKronecker" exploits the Kronecker structure (exactly
n log2 n rotations + n constants).  synth_perturbation returns the
verified program with its kappa certificate as an in-memory
PerturbationPlan; gates.save_program writes the program alone.

The module also owns the values of Id + eps*F: perturbation_potentials
gives its three potentials in O(1) from their entry classes, and
dense_cross_check compares them with dense n x n products for
n <= CROSS_CHECK_MAX_N under a derived rounding bound.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gates import (Constant, GateProgram, Rotation, rotate_rows,
                    verify_well_conditioned)
from .hadamard import _bit_parity, _log2_int, kron_rotation_layer, wht_matrix
from .potential import (NAMED_POTENTIALS, entropy_sum, k_slice_quasi_entropy,
                        named_spec)

__all__ = [
    "ROUTE_APPENDIX_B",
    "ROUTE_FAST_KRONECKER",
    "ROUTES",
    "PerturbationPlan",
    "perturbation_matrix",
    "exact_inverse_perturbation",
    "inverse_residual",
    "inverse_residual_norm",
    "perturbation_potentials",
    "dense_cross_check",
    "wht_eigenbasis",
    "givens_decompose",
    "synth_perturbation",
]

ROUTE_APPENDIX_B = "AppendixB"
ROUTE_FAST_KRONECKER = "FastKronecker"
ROUTES = (ROUTE_APPENDIX_B, ROUTE_FAST_KRONECKER)

KAPPA_CERT_TOL = 1e-9
ORTHO_TOL = 1e-9  # givens_decompose input check; its sign residue may be n times this
REALIZED_TOL_PER_N = 1e-9  # Frobenius budget is this times n

# Cross-check of the closed forms: below this n the dense evaluator is cheap.
CROSS_CHECK_MAX_N = 256
UNIT_ROUNDOFF = 2.0 ** -53


def _check_eps(eps):
    if not (0.0 <= eps < 0.5) or not math.isfinite(eps):
        raise ValueError(f"eps must lie in [0, 1/2), got {eps!r}")
    if 0.0 < eps < sys.float_info.min:
        raise ValueError(f"eps must be 0 or at least the smallest normal float "
                         f"{sys.float_info.min!r}, got the subnormal {eps!r}")
    return float(eps)


def perturbation_matrix(n, eps):
    """Id + eps * wht_matrix(n).  Eigenvalues 1 +- eps, so the condition
    number is (1+eps)/(1-eps)."""
    eps = _check_eps(eps)
    return np.eye(n) + eps * wht_matrix(n)


def exact_inverse_perturbation(n, eps):
    """(Id - eps*F) / (1 - eps^2), the exact inverse of Id + eps*F
    (multiply out and use F @ F = Id)."""
    eps = _check_eps(eps)
    return (np.eye(n) - eps * wht_matrix(n)) / (1.0 - eps * eps)


def inverse_residual(n, eps):
    """Z = exact inverse - (Id - eps*F) = (eps^2/(1-eps^2)) (Id - eps*F)."""
    eps = _check_eps(eps)
    return (eps * eps / (1.0 - eps * eps)) * (np.eye(n) - eps * wht_matrix(n))


def inverse_residual_norm(eps):
    """Spectral norm of the residual Z: eps^2 / (1 - eps)."""
    eps = _check_eps(eps)
    return eps * eps / (1.0 - eps)


def perturbation_potentials(n, eps):
    """(plain, precond-id-f, hat) potentials of Id + eps*F in O(1) flops.

    F is symmetric with F @ F = Id and entries +-r (r = n^-1/2, half the
    diagonal +r), so M^-T = (Id - eps*F) / den with den = 1 - eps^2, and
    each coupled matrix has a few entry classes.  With
    delta = eps (1 - 1/n) / den and n(n-1) off-diagonal entries:

      plain:        diagonal 1 + eps^2 (1 - 1/n) / den, off -eps^2 / (n den)
      precond-id-f: diagonal r - delta and -r - delta (n/2 each),
                    off eps / (n den)
      hat:          diagonal -2 delta, off 2 eps / (n den)

    The plain diagonal sits near 1, so its term is (1 + dm1) log1p(dm1)
    with dm1 = eps^2 (1 - 1/n) / den.  The precond-id-f diagonal pair sums
    to -2r atanh(min(r, delta) / max(r, delta)) / ln 2 - delta log2|r^2 - delta^2|.
    The hat diagonal is -(n-1) times the off-diagonal value, so the hat
    classes sum to exactly 2 (n-1) eps log2(n-1) / den, which is 0 at n = 2.
    """
    _log2_int(n)
    eps = _check_eps(eps)
    nf = float(n)
    off = nf * (nf - 1.0)
    den = 1.0 - eps * eps
    r = nf ** -0.5

    dm1 = eps * eps * (1.0 - 1.0 / nf) / den
    plain = -(nf * (1.0 + dm1) * math.log1p(dm1) / math.log(2.0)
              + off * entropy_sum([-eps * eps / (nf * den)]))

    delta = eps * (1.0 - 1.0 / nf) / den
    if delta == r:  # the r - delta class is exactly 0
        pair = entropy_sum([-2.0 * r])
    else:
        pair = (-2.0 * r * math.atanh(min(r, delta) / max(r, delta)) / math.log(2.0)
                - delta * (math.log2(abs(r - delta)) + math.log2(r + delta)))
    precond = -(nf / 2.0 * pair + off * entropy_sum([eps / (nf * den)]))

    hat = 2.0 * (nf - 1.0) * eps * math.log2(nf - 1.0) / den
    return plain + 0.0, precond + 0.0, hat + 0.0


def _entropy_error(x, e):
    """sup |L(y) - L(x)| over |y - x| <= e, for L(x) = x log2|x| and e < 0.1."""
    a = abs(x)
    if a > e:
        # |L'(t)| = |log2|t| + 1/ln 2| on [a - e, a + e]
        return e * (max(-math.log2(a - e), math.log2(a + e)) + 1.0 / math.log(2.0))
    # t|log2 t| increases on (0, exp(-1)), so |L(y)| and |L(x)| are at most h|log2 h|
    h = a + e
    return 2.0 * h * abs(math.log2(h))


def _dense_error_bounds(n, eps):
    """Bounds on |dense - exact| for the three potentials of Id + eps*F.

    An entry of a coupled matrix is x = sum_p Lp * Rp.  Forming it costs at
    most gamma = (n + 8) u relative to s = sum_p |Lp| |Rp|, with a product
    factor MF or M^-T F replaced by its sum of absolute terms: one length-n
    dot product, plus the few roundings of M, M^-T, the slice product and
    the slice sum.  Per entry class (count c, value x) that moves sum L by
    at most c * _entropy_error(x, gamma s).  Summing the n^2 terms L(x) adds
    at most (ceil(log2 n^2) + 32) u sum c|L(x)|: numpy's pairwise sum costs
    ceil(log2 n^2) + 11 roundings per term (128-term blocks over eight
    accumulators), log2 and the product a few more, and the closed forms
    stay within 8 u of the same total.  |M| and den |M^-T| are bounded by
    1 + eps r on the diagonal and eps r off it (r = n^-1/2, den = 1 - eps^2).
    The entry classes are those of perturbation_potentials.
    """
    r = n ** -0.5
    den = 1.0 - eps * eps
    delta = eps * (1.0 - 1.0 / n) / den
    gamma = (n + 8) * UNIT_ROUNDOFF
    diag, off = 1.0 + eps * r, eps * r
    g = r * (diag + (n - 1) * off)  # bounds sum_k |M_ik| |F_kj| and den sum_k |M^-T_ik| |F_kj|
    pairs = n * (n - 1)
    classes = (
        ((n, 1.0 + eps * eps * (1.0 - 1.0 / n) / den, diag * diag / den),
         (pairs, -eps * eps / (n * den), off * off / den)),
        ((n / 2, r - delta, diag * g / den), (n / 2, -r - delta, diag * g / den),
         (pairs, eps / (n * den), off * g / den)),
        ((n, -2.0 * delta, 2.0 * diag * g / den),
         (pairs, 2.0 * eps / (n * den), 2.0 * off * g / den)),
    )
    summation = (math.ceil(math.log2(n * n)) + 32) * UNIT_ROUNDOFF
    return [sum(c * (_entropy_error(x, gamma * s) + summation * abs(entropy_sum([x])))
                for c, x, s in family)
            for family in classes]


def dense_cross_check(n):
    """check(eps, phis) -> failure messages for closed-form potentials of Id + eps*F.

    `phis` is (plain, precond-id-f, hat) as perturbation_potentials returns
    them.  For n <= CROSS_CHECK_MAX_N, check evaluates the three potentials
    by dense n x n products (the named specs, F and Id built once per n) and
    names each one off its dense value by more than _dense_error_bounds; for
    larger n it builds nothing and returns no messages.
    """
    if n > CROSS_CHECK_MAX_N:
        return lambda eps, phis: []
    specs = [named_spec(kind, n) for kind in NAMED_POTENTIALS]
    F = specs[1].slices[0][1]  # precond-id-f's B slot is the transform itself
    eye = np.eye(n)

    def check(eps, phis):
        M = eye + eps * F
        MinvT = (eye - eps * F) / (1.0 - eps * eps)
        dense = [k_slice_quasi_entropy(M, spec, minv_t=MinvT) for spec in specs]
        return [f"{name} closed form {closed!r} is off the dense evaluator's "
                f"{value!r} by more than its error bound {bound!r} at n={n} eps={eps!r}"
                for name, closed, value, bound
                in zip(("phi_plain", "phi_precond_id_f", "phi_hat"), phis, dense,
                       _dense_error_bounds(n, eps))
                if not abs(value - closed) <= bound]
    return check


def _eigen_signs(n):
    """d(i) = (-1)^popcount(i-1), the eigenvalues of F in the basis W."""
    return 1.0 - 2.0 * _bit_parity(np.arange(n))


def wht_eigenbasis(n):
    """(W, d) with F = W diag(d) W^T: W the Kronecker power of the pi/8
    rotation [[cos, -sin], [sin, cos]], d(i) = (-1)^popcount(i-1)."""
    k = _log2_int(n)
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    W2 = np.array([[c, -s], [s, c]])
    W = np.eye(1)
    for _ in range(k):
        W = np.kron(W, W2)
    return W, _eigen_signs(n)


def givens_decompose(orth):
    """Gate program realizing an orthogonal matrix.

    Triangularizes column-major, bottom-up: each subdiagonal entry (i, j)
    is zeroed by a rotation of rows (j, i) against the pivot; entries that
    are already exactly zero emit no gate.  The orthogonal residue is a
    +-1 diagonal, emitted as sign gates (c = -1) ahead of the reversed,
    angle-negated rotations.  At most n(n-1)/2 rotations + n constants.
    """
    W = np.asarray(orth, dtype=float)
    n = W.shape[0]
    if W.ndim != 2 or W.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {W.shape}")
    ortho_err = float(np.max(np.abs(W.T @ W - np.eye(n))))
    if ortho_err > ORTHO_TOL:
        raise ValueError(
            f"input is not orthogonal within {ORTHO_TOL:.1e} (max deviation {ortho_err:.3e})")
    A = W.copy()
    rotations = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            a = A[i, j]
            if a == 0.0:
                continue
            theta = math.atan2(a, A[j, j])
            rotate_rows(A, j, i, math.cos(theta), math.sin(theta))
            rotations.append((j + 1, i + 1, theta))
    d = np.diag(A).copy()
    residue = float(np.max(np.abs(A - np.diag(d))))
    sign_err = float(np.max(np.abs(np.abs(d) - 1.0)))
    if residue > n * ORTHO_TOL or sign_err > n * ORTHO_TOL:
        raise ValueError(
            f"triangularization residue is not a sign diagonal "
            f"(off-diagonal {residue:.3e}, |d|-1 {sign_err:.3e})")
    gates = [Constant(i + 1, -1.0) for i in range(n) if d[i] < 0.0]
    gates += [Rotation(i, ip, -theta) for (i, ip, theta) in reversed(rotations)]
    return GateProgram(n, gates)


@dataclass
class PerturbationPlan:
    """A verified program computing Id + eps*F with its kappa certificate."""

    program: GateProgram
    kappa_certificate: float


def _basis_gates(n, route):
    """(gates of W^T, gates of W) for the chosen route.

    A rotation gate with angle theta realizes [[cos, sin], [-sin, cos]]
    on its plane, the transpose of the standard rotation by theta; so the
    W^T section uses +pi/8 layers and the W section -pi/8.
    """
    k = _log2_int(n)
    if route == ROUTE_FAST_KRONECKER:
        wt = [g for s in range(1, k + 1) for g in kron_rotation_layer(n, s, math.pi / 8).gates]
        w = [g for s in range(1, k + 1) for g in kron_rotation_layer(n, s, -math.pi / 8).gates]
        return wt, w
    if route == ROUTE_APPENDIX_B:
        W, _ = wht_eigenbasis(n)
        return givens_decompose(W.T).gates, givens_decompose(W).gates
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def synth_perturbation(n, eps, route):
    """Emit and verify a program computing Id + eps*F.

    Gate order: the gates of W^T, then n constant gates 1 + eps*D(i,i),
    then the gates of W.  The realized matrix is checked against
    perturbation_matrix(n, eps) within 1e-9 * n Frobenius, and every
    intermediate condition number is certified <= (1+eps)/(1-eps) + 1e-9.
    """
    eps = _check_eps(eps)
    wt_gates, w_gates = _basis_gates(n, route)
    d = _eigen_signs(n)
    constants = [Constant(i + 1, 1.0 + eps * float(d[i])) for i in range(n)]
    program = GateProgram(n, [*wt_gates, *constants, *w_gates])

    kappa_allowed = (1.0 + eps) / (1.0 - eps) + KAPPA_CERT_TOL
    report = verify_well_conditioned(program, kappa_allowed)
    realized = report.final_state.M
    err = float(np.linalg.norm(realized - perturbation_matrix(n, eps)))
    if err > REALIZED_TOL_PER_N * n:
        raise RuntimeError(
            f"route {route} realized matrix off target: Frobenius error {err:.3e} "
            f"exceeds {REALIZED_TOL_PER_N * n:.1e}")
    if not report.passed:
        raise RuntimeError(
            f"route {route} exceeded the conditioning certificate: max kappa "
            f"{report.max_kappa!r} at step {report.at_step} > {kappa_allowed!r}")
    return PerturbationPlan(program, report.max_kappa)

