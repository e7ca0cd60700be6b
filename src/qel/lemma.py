"""Randomized checker for an entropy-with-noise lower bound.

For a nonnegative length-ell vector x with ||x||_1 <= 1 and
||x||_inf <= 4 ||x||_1 / ell, plus a noise vector y with
||y||_1 <= C ||x||_1 (C <= 1/8 keeps 2C||x||_1 <= ||x||_1/2 and
3C||x||_1 <= 1/e), the claim is

    -sum_i L(x_i + y_i)  >=  ||x||_1 * log2(ell / ||x||_1) - 10

with L(x) = x log2|x|.  Uniform x and zero y meet it with slack exactly
10, for any admissible ||x||_1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .potential import entropy_sum

__all__ = [
    "C_MAX",
    "ELL_FLOOR",
    "LemmaInstance",
    "LemmaReport",
    "lemma_lhs",
    "lemma_rhs",
    "sample_instance",
    "campaign_instance",
    "check_lemma",
    "run_campaign",
]

C_MAX = 0.125
ELL_FLOOR = 64
SLACK = 1e-9  # relative slack allowed when validating instance inequalities
HOLDS_TOL = 1e-9  # absolute slack on lhs >= rhs


@dataclass(frozen=True)
class LemmaInstance:
    """One admissible instance, validated when built.  Frozen, with x and y
    read-only copies, so the values checked are the values evaluated, and
    ||x||_1 is summed once."""

    ell: int
    x: np.ndarray
    y: np.ndarray
    C: float
    _norm1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x", "y"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.x.shape != (self.ell,) or self.y.shape != (self.ell,):
            raise ValueError(f"x and y must have length ell={self.ell}")
        object.__setattr__(self, "_norm1", float(np.sum(self.x)))
        self.validate()

    def norm1(self):
        return self._norm1

    def validate(self):
        if np.any(self.x < 0.0):
            raise ValueError("x must be entrywise nonnegative")
        s = self.norm1()
        if s > 1.0 + SLACK:
            raise ValueError(f"||x||_1 = {s!r} exceeds 1")
        if s > 0.0:
            cap = 4.0 * s / self.ell
            xmax = float(np.max(self.x))
            if xmax > cap * (1.0 + SLACK):
                raise ValueError(f"||x||_inf = {xmax!r} exceeds 4 ||x||_1 / ell = {cap!r}")
        ynorm = float(np.sum(np.abs(self.y)))
        if ynorm > self.C * s * (1.0 + SLACK) + 1e-300:
            raise ValueError(f"||y||_1 = {ynorm!r} exceeds C ||x||_1 = {self.C * s!r}")


def lemma_lhs(instance):
    """-sum L(x_i + y_i), base-2 logs."""
    return -entropy_sum(instance.x + instance.y)


def lemma_rhs(instance):
    """||x||_1 log2(ell / ||x||_1) - 10 (the s -> 0 limit is -10)."""
    s = instance.norm1()
    if s == 0.0:
        return -10.0
    return s * math.log2(instance.ell / s) - 10.0


def _water_fill(raw, target, cap):
    """Scale nonnegative draws to 1-norm `target` with entries capped at
    `cap`: the k largest sit exactly at the cap and the rest share the
    remaining mass proportionally.

    When the cap binds, only a block of the largest draws is sorted: twice
    as many as the plain scaling puts over the cap, plus 64.  The smallest
    k whose remaining mass, scaled, keeps the next draw under the cap is
    then read off the block's prefix sums; if the block holds no such k,
    the same search runs once more over every draw.  The prefix sums over
    the block are those over the full sort, so the result is the full
    sort's, bit for bit, except that equal draws straddling the k-th
    largest may be capped differently (probability about ell^2 2^-53 for
    uniform draws)."""
    total = float(np.sum(raw))
    if total <= 0.0:
        raise ValueError("draws must have positive mass")
    x = raw * (target / total)
    if float(np.max(x)) <= cap:
        return x
    neg = -raw
    width = min(2 * int(np.count_nonzero(x > cap)) + 64, raw.size)
    while True:
        if width < raw.size:
            block = np.argpartition(neg, width - 1)[:width]
            order = block[np.argsort(neg[block])]
        else:
            order = np.argsort(neg)
        z = raw[order]
        prefix = np.cumsum(z)
        need = target - cap * np.arange(1, width)
        rest = total - prefix[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = need / rest
        ok = (need > 0.0) & (rest > 0.0) & (scale * z[1:] <= cap)
        hits = np.nonzero(ok)[0]
        if hits.size:
            break
        if width == raw.size:
            raise RuntimeError("cap water-filling failed")
        width = raw.size
    k = int(hits[0]) + 1
    out = raw * float(scale[k - 1])
    out[order[:k]] = cap
    return out


def sample_instance(ell, C, norm1_target, seed):
    """Random admissible instance, deterministic in the seed.

    x is drawn either flat (uniform draws) or concentrated (a power of
    uniforms, which puts a block of entries exactly at the cap after
    water-filling), then scaled to the target 1-norm under the cap
    4 ||x||_1 / ell.  y gets random signs and a random 1-norm in
    [0, C ||x||_1]; C = 0 gives y = 0.
    """
    if ell < ELL_FLOOR:
        raise ValueError(f"ell must be at least {ELL_FLOOR}, got {ell}")
    if not 0.0 <= C <= C_MAX:
        raise ValueError(f"C must lie in [0, {C_MAX}], got {C!r}")
    if not 0.0 < norm1_target <= 1.0:
        raise ValueError(f"||x||_1 target must lie in (0, 1], got {norm1_target!r}")
    rng = np.random.default_rng(seed)
    cap = 4.0 * norm1_target / ell * (1.0 - 1e-12)
    concentrated = int(rng.integers(0, 4)) == 3
    raw = rng.random(ell)
    if concentrated:
        # u^8 as three squarings: each product is correctly rounded, so its
        # bits do not depend on numpy's SIMD dispatch as np.power's do
        for _ in range(3):
            raw *= raw
    x = _water_fill(raw, norm1_target, cap)
    if C == 0.0:
        y = np.zeros(ell)
    else:
        mags = rng.random(ell)
        signs = 2.0 * rng.integers(0, 2, size=ell) - 1.0
        # y's budget needs ||x||_1 before the instance exists to sum it
        target = rng.random() * C * float(np.sum(x)) * (1.0 - 1e-12)
        y = signs * mags * (target / np.sum(mags))
    return LemmaInstance(ell, x, y, C)


@dataclass
class LemmaReport:
    lhs: float
    rhs: float
    margin: float
    holds: bool


def campaign_instance(ell, C, inst_seed):
    """The instance run_campaign checks for one instance seed: the 1-norm
    target is drawn from the seed, then sample_instance runs on it."""
    norm1 = np.random.default_rng(inst_seed ^ 0x9E3779B97F4A7C15).random()
    norm1 = norm1 * (1.0 - 1e-9) + 1e-9  # keep in (0, 1]
    return sample_instance(ell, C, norm1, inst_seed)


def check_lemma(instance):
    """Evaluate both sides; `holds` allows slack HOLDS_TOL on the comparison."""
    lhs = lemma_lhs(instance)
    rhs = lemma_rhs(instance)
    return LemmaReport(lhs, rhs, lhs - rhs, lhs >= rhs - HOLDS_TOL)


def run_campaign(ells, instances, C, seed):
    """Yield (instance_seed, ell, C, norm1, lhs, rhs, margin, holds) rows.

    Instance seeds are drawn deterministically from the campaign seed; the
    1-norm target varies per instance.  Row order is ell-major, then
    instance index.  `instances` is a count or a range of instance
    indices; the seed draw is prefix-stable, so range(a, b) yields exactly
    rows a..b-1 of every ell's full campaign.
    """
    block = instances if isinstance(instances, range) else range(instances)
    for ell in ells:
        seeds = np.random.SeedSequence(entropy=(int(seed), int(ell))).generate_state(
            block.stop, dtype=np.uint64)[block.start:block.stop:block.step]
        for inst_seed in seeds:
            inst_seed = int(inst_seed)
            inst = campaign_instance(ell, C, inst_seed)
            report = check_lemma(inst)
            yield (inst_seed, ell, C, inst.norm1(), report.lhs, report.rhs,
                   report.margin, report.holds)
