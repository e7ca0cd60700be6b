"""Clustered-mass entropy inequality tests: instances, sampling, campaigns."""

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


def test_big_small_split_counts():
    ell = 64
    x = np.full(ell, 1.0 / ell)
    y = np.zeros(ell)
    y[:4] = 1.0 / ell  # |y_i| >= x_i / 2 on exactly four entries
    inst = LemmaInstance(ell, x, y, 0.125)
    report = check_lemma(inst)
    assert report.n_big == 4
    assert report.n_small == 60
    assert report.holds


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
