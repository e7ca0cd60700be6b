"""Clustered-mass entropy inequality tests: instances, sampling, campaigns."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qel.lemma import (
    C_MAX,
    LemmaInstance,
    campaign_instance,
    check_lemma,
    lemma_lhs,
    lemma_rhs,
    _water_fill,
    run_campaign,
    sample_instance,
)

MARGIN_ATOL = 1e-9


def uniform_instance(ell, norm1):
    x = np.full(ell, norm1 / ell)
    return LemmaInstance(ell, x, np.zeros(ell), 0.0)


def test_instance_validation():
    ell = 64
    good = uniform_instance(ell, 0.5)
    good.validate()
    with pytest.raises(ValueError, match="nonnegative"):
        LemmaInstance(ell, -np.ones(ell) / ell, np.zeros(ell), 0.0)
    with pytest.raises(ValueError, match="exceeds 1"):
        LemmaInstance(ell, np.full(ell, 2.0 / ell), np.zeros(ell), 0.0)
    x = np.zeros(ell)
    x[0] = 0.5  # way above the cap 4 * 0.5 / 64
    with pytest.raises(ValueError, match="exceeds 4"):
        LemmaInstance(ell, x, np.zeros(ell), 0.0)
    x = np.full(ell, 0.5 / ell)
    y = np.full(ell, 0.5 / ell)  # interference 1-norm equals ||x||_1
    with pytest.raises(ValueError, match="exceeds C"):
        LemmaInstance(ell, x, y, 0.125)


def test_instance_is_frozen_with_read_only_copies():
    x = np.full(64, 0.5 / 64)
    inst = LemmaInstance(64, x, np.zeros(64), 0.0)
    x[0] = -1.0  # the caller's array is not the instance's
    assert inst.x[0] == 0.5 / 64
    inst = sample_instance(64, 0.125, 0.5, 3)
    before = check_lemma(inst)
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.x = -inst.x
    for values in (inst.x, inst.y):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = -1.0
    assert check_lemma(inst) == before


@pytest.mark.parametrize("ell", [64, 1024])
@pytest.mark.parametrize("norm1", [1.0, 0.25])
def test_uniform_instance_margin_is_exactly_ten(ell, norm1):
    inst = uniform_instance(ell, norm1)
    report = check_lemma(inst)
    assert report.holds
    assert report.margin == pytest.approx(10.0, abs=MARGIN_ATOL)
    assert lemma_lhs(inst) == pytest.approx(
        norm1 * math.log2(ell / norm1), rel=1e-12
    )


def test_rhs_formula():
    inst = uniform_instance(256, 0.5)
    assert lemma_rhs(inst) == pytest.approx(0.5 * math.log2(512.0) - 10.0, rel=1e-12)


def test_lemma_holds_with_noise_on_four_entries():
    ell = 64
    x = np.full(ell, 1.0 / ell)
    y = np.zeros(ell)
    y[:4] = 1.0 / ell  # |y_i| >= x_i / 2 on exactly four entries
    inst = LemmaInstance(ell, x, y, 0.125)
    assert check_lemma(inst).holds


def test_sampler_determinism_and_admissibility():
    a = sample_instance(256, 0.125, 0.7, seed=123)
    b = sample_instance(256, 0.125, 0.7, seed=123)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    a.validate()
    assert a.norm1() == pytest.approx(0.7, rel=1e-9)


def test_sampler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_instance(32, 0.125, 0.5, seed=1)  # dimension below the floor
    with pytest.raises(ValueError):
        sample_instance(64, 0.3, 0.5, seed=1)  # interference budget too large
    with pytest.raises(ValueError):
        sample_instance(64, 0.125, 0.0, seed=1)


def test_sampler_produces_cap_saturated_instances():
    saturated = 0
    for seed in range(16):
        inst = sample_instance(512, 0.125, 0.9, seed=seed)
        cap = 4.0 * inst.norm1() / 512
        saturated += int(np.any(inst.x >= cap * (1.0 - 1e-9)))
    assert saturated > 0


def full_sort_water_fill(raw, target, cap):
    """The water-fill as it was before the block sort: every draw sorted."""
    total = float(np.sum(raw))
    x = raw * (target / total)
    if float(np.max(x)) <= cap:
        return x
    order = np.argsort(-raw)
    z = raw[order]
    prefix = np.cumsum(z)
    k_arr = np.arange(1, raw.size)
    need = target - cap * k_arr
    rest = total - prefix[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = need / rest
    ok = (need > 0.0) & (rest > 0.0) & (scale * z[1:] <= cap)
    j = int(np.nonzero(ok)[0][0])
    k = int(k_arr[j])
    out = np.empty_like(raw)
    out[order[:k]] = cap
    out[order[k:]] = raw[order[k:]] * float(need[j] / rest[j])
    return out


def assert_water_filled(raw, target, cap, out):
    assert np.all(out <= cap)
    capped = out == cap
    # the uncapped scale divides by the draws' total less the capped prefix,
    # so the prefix's rounding grows by total / (uncapped draws' mass)
    amplify = 1.0
    if capped.any():
        assert raw[capped].min() > raw[~capped].max()
        amplify = float(np.sum(raw) / np.sum(raw[~capped]))
    assert math.isclose(float(np.sum(out)), target,
                        rel_tol=raw.size * np.finfo(float).eps * amplify)


def water_fill_cases(ell):
    """Seeded flat and concentrated draws, with the sampler's cap."""
    rng = np.random.default_rng(ell)
    for concentration in (1.0, 8.0):
        for _ in range(4):
            target = rng.random() * (1.0 - 1e-9) + 1e-9
            yield rng.random(ell) ** concentration, target, 4.0 * target / ell * (1.0 - 1e-12)


@pytest.mark.parametrize("ell", [64, 1024, 65536])
def test_water_fill_matches_the_full_sort_bitwise(ell):
    capped = 0
    for raw, target, cap in water_fill_cases(ell):
        out = _water_fill(raw, target, cap)
        assert out.tobytes() == full_sort_water_fill(raw, target, cap).tobytes()
        assert_water_filled(raw, target, cap, out)
        capped += int(np.any(out == cap))
    assert capped >= 4  # every concentrated draw binds the cap


def test_water_fill_falls_back_to_the_full_sort_when_the_block_holds_no_answer():
    # one draw dominates, so the plain scaling puts only it over the cap and
    # the block holds 2 + 64 draws; capping it lifts the next 200 over the
    # cap too, so the answer caps 201 > 65 draws
    ell, target = 1024, 1.0
    cap = 4.0 * target / ell * (1.0 - 1e-12)
    rng = np.random.default_rng(24)
    raw = np.concatenate([[1e4], 1.0 + 1e-6 * rng.random(200), 1e-3 * rng.random(ell - 201)])
    raw = raw[rng.permutation(ell)]
    over = int(np.count_nonzero(raw * (target / np.sum(raw)) > cap))
    out = _water_fill(raw, target, cap)
    assert over == 1 and int(np.count_nonzero(out == cap)) == 201
    assert out.tobytes() == full_sort_water_fill(raw, target, cap).tobytes()
    assert_water_filled(raw, target, cap, out)


def test_campaign_rows_and_determinism():
    rows_a = list(run_campaign([64, 256], 20, C=0.125, seed=7))
    rows_b = list(run_campaign([64, 256], 20, C=0.125, seed=7))
    assert rows_a == rows_b
    assert len(rows_a) == 40
    assert all(row[7] for row in rows_a)
    assert {row[1] for row in rows_a} == {64, 256}
    assert all(row[6] > 0.0 for row in rows_a)


def test_campaign_rows_rebuild_bitwise_from_their_seeds():
    for row in run_campaign([64, 256, 1024], 20, C=0.125, seed=20250819):
        inst = campaign_instance(row[1], row[2], row[0])
        assert (inst.norm1(), lemma_lhs(inst), lemma_rhs(inst)) == row[3:6]


@pytest.mark.parametrize("ell", [64, 1024])
def test_campaign_blocks_are_slices_of_the_full_campaign(ell):
    full = list(run_campaign([ell], 7, C=0.125, seed=20250819))
    for a in range(8):
        for b in range(a, 8):
            block = list(run_campaign([ell], range(a, b), C=0.125, seed=20250819))
            assert block == full[a:b], (a, b)


def test_campaign_validates_each_instance_once(monkeypatch):
    calls = []
    real = LemmaInstance.validate
    monkeypatch.setattr(LemmaInstance, "validate", lambda self: calls.append(1) or real(self))
    rows = list(run_campaign([64], 7, C=0.125, seed=20250819))
    assert len(rows) == 7 and len(calls) == 7


def test_campaign_zero_interference():
    rows = list(run_campaign([64], 10, C=0.0, seed=9))
    assert all(row[7] for row in rows)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    ell_pow=st.integers(min_value=6, max_value=12),
    c_scale=st.floats(min_value=0.0, max_value=1.0),
)
def test_inequality_on_random_admissible_instances(seed, ell_pow, c_scale):
    ell = 1 << ell_pow
    norm1 = np.random.default_rng(seed).random() * (1.0 - 1e-9) + 1e-9
    inst = sample_instance(ell, c_scale * C_MAX, norm1, seed=seed)
    inst.validate()
    report = check_lemma(inst)
    assert report.holds
    assert report.margin > 0.0
