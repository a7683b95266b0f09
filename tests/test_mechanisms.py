"""Noise calibration, clipping, and budget accounting oracles."""

import math
import re

import numpy as np
import pytest

from dpflsim.errors import ParameterError, StateError
from dpflsim.models import outer_rows, with_intercept
from dpflsim.mechanisms import (
    ClipConfig,
    MechanismKind,
    NoiseSpec,
    PrivacyBudget,
    _row_norms,
    clip_gradient_matrix,
    clip_outer_rows,
    consume_budget,
    expected_noise_sq_norm,
    gaussian_sigma,
    gradient_sensitivity,
    laplace_scale,
    sample_noise,
)

GM = MechanismKind.GAUSSIAN
LM = MechanismKind.LAPLACE


def test_mechanism_kind_constants():
    assert GM.noise_exponent == 1
    assert LM.noise_exponent == 2
    assert GM.clip_norm == "l2"
    assert LM.clip_norm == "l1"
    assert MechanismKind.parse("gaussian") is GM
    assert MechanismKind.parse("laplace") is LM
    with pytest.raises(ParameterError, match=re.escape(
            "unknown mechanism 'exponential'; expected 'gaussian' or 'laplace'")):
        MechanismKind.parse("exponential")


def test_gaussian_sigma_identity_params():
    assert gaussian_sigma(1.0, 1.0, math.exp(-1.0), 1, 1.0) == pytest.approx(1.0)


def test_gaussian_sigma_zero_sensitivity():
    assert gaussian_sigma(0.0, 3.0, 1e-5, 17, 2.0) == 0.0


def test_gaussian_sigma_hand_evaluated():
    # c2 * sens * sqrt(T * ln(1/delta)) / eps = 2 * 0.5 * sqrt(9 * 4) / 2
    assert gaussian_sigma(0.5, 2.0, math.exp(-4.0), 9, 2.0) == pytest.approx(3.0)


def test_gaussian_sigma_rejects_bad_delta():
    for delta in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ParameterError):
            gaussian_sigma(1.0, 1.0, delta, 1)
    with pytest.raises(ParameterError):
        gaussian_sigma(-1.0, 1.0, 0.1, 1)
    with pytest.raises(ParameterError):
        gaussian_sigma(1.0, 0.0, 0.1, 1)


def test_laplace_scale_values():
    assert laplace_scale(1.0, 1.0, 1) == pytest.approx(1.0)
    assert laplace_scale(1.0, 2.0, 4) == pytest.approx(2.0)
    assert laplace_scale(0.0, 1.0, 7) == 0.0
    with pytest.raises(ParameterError):
        laplace_scale(1.0, 1.0, 0)


def test_gradient_sensitivity_values():
    assert gradient_sensitivity(GM, 0.1, 10.0, 100) == pytest.approx(0.02)
    got = gradient_sensitivity(GM, 0.05, 20.0, 100, loss_cap=2.3026,
                               include_loss_terms=True)
    assert got == pytest.approx(0.0223026)
    assert gradient_sensitivity(LM, 0.0, 5.0, 10, loss_cap=5.0,
                                include_loss_terms=True) == 0.0
    with pytest.raises(ParameterError):
        gradient_sensitivity(GM, 0.1, 10.0, 0)


def test_scale_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sens = rng.uniform(0.1, 5.0)
        eps = rng.uniform(0.1, 5.0)
        delta = rng.uniform(1e-6, 0.5)
        rounds = int(rng.integers(1, 50))
        base = gaussian_sigma(sens, eps, delta, rounds)
        assert gaussian_sigma(sens * 1.5, eps, delta, rounds) > base
        assert gaussian_sigma(sens, eps, delta, rounds + 1) > base
        assert gaussian_sigma(sens, eps * 1.5, delta, rounds) < base
        base_l = laplace_scale(sens, eps, rounds)
        assert laplace_scale(sens * 1.5, eps, rounds) > base_l
        assert laplace_scale(sens, eps, rounds + 1) > base_l
        assert laplace_scale(sens, eps * 1.5, rounds) < base_l


def _spec(mechanism, scale, rounds=1):
    return NoiseSpec(mechanism=mechanism, sensitivity=1.0, scale=scale,
                     per_round_epsilon=0.1, per_round_delta=0.0,
                     planned_rounds=rounds)


def test_sample_noise_zero_scale_leaves_stream_untouched():
    rng = np.random.default_rng(5)
    z = sample_noise(_spec(GM, 0.0), 4, rng)
    assert np.array_equal(z, np.zeros(4))
    # the zero-scale path must not consume randomness
    assert rng.normal() == np.random.default_rng(5).normal()


def test_sample_noise_determinism():
    a = sample_noise(_spec(GM, 2.0), 6, np.random.default_rng(42))
    b = sample_noise(_spec(GM, 2.0), 6, np.random.default_rng(42))
    assert np.array_equal(a, b)
    c = sample_noise(_spec(LM, 2.0), 6, np.random.default_rng(42))
    assert not np.array_equal(a, c)
    with pytest.raises(ParameterError):
        sample_noise(_spec(GM, 1.0), 0, np.random.default_rng(0))


def test_sample_noise_monte_carlo_variance():
    n = 10**6
    sigma = 1.7
    draws = sample_noise(_spec(GM, sigma), n, np.random.default_rng(101))
    assert 0.97 * sigma**2 <= np.var(draws) <= 1.03 * sigma**2
    b = 0.9
    draws = sample_noise(_spec(LM, b), n, np.random.default_rng(102))
    assert 0.97 * 2 * b**2 <= np.var(draws) <= 1.03 * 2 * b**2


def test_expected_noise_sq_norm_hand_evaluated():
    budget = PrivacyBudget.fresh(0.5, math.exp(-1.0))
    got = expected_noise_sq_norm(GM, 0.1, 1.0, 2, 4, budget, 10)
    assert got == pytest.approx(0.0128)
    budget_l = PrivacyBudget.fresh(1.0, 0.0)
    got = expected_noise_sq_norm(LM, 0.1, 1.0, 1, 2, budget_l, 10)
    assert got == pytest.approx(0.0032)
    assert expected_noise_sq_norm(GM, 0.0, 1.0, 3, 5, budget, 10) == 0.0


def test_expected_noise_sq_norm_budget_consistency_checks():
    with pytest.raises(ParameterError):
        expected_noise_sq_norm(GM, 0.1, 1.0, 2, 4, PrivacyBudget.fresh(1.0, 0.0), 10)
    with pytest.raises(ParameterError):
        expected_noise_sq_norm(LM, 0.1, 1.0, 2, 4, PrivacyBudget.fresh(1.0, 1e-5), 10)


def test_calibration_consistency_closed_form_vs_scale():
    # E||Z||^2 must equal d * sigma^2 (GM) or d * 2 b^2 (LM) with the scale
    # built from the gradient-only sensitivity, to 12 significant digits.
    rng = np.random.default_rng(21)
    for _ in range(40):
        eta = rng.uniform(0.01, 1.0)
        bound = rng.uniform(0.1, 10.0)
        d = int(rng.integers(1, 40))
        rounds = int(rng.integers(1, 100))
        samples = int(rng.integers(1, 500))
        eps = rng.uniform(0.05, 8.0)
        delta = rng.uniform(1e-8, 0.3)
        c2 = rng.uniform(0.5, 3.0)

        sens_g = gradient_sensitivity(GM, eta, bound, samples)
        sigma = gaussian_sigma(sens_g, eps, delta, rounds, c2)
        expected = expected_noise_sq_norm(GM, eta, bound, d, rounds,
                                          PrivacyBudget.fresh(eps, delta), samples, c2)
        assert expected == pytest.approx(d * sigma**2, rel=1e-12)

        sens_l = gradient_sensitivity(LM, eta, bound, samples)
        b = laplace_scale(sens_l, eps, rounds)
        expected = expected_noise_sq_norm(LM, eta, bound, d, rounds,
                                          PrivacyBudget.fresh(eps, 0.0), samples)
        assert expected == pytest.approx(d * 2 * b**2, rel=1e-12)


def clip_per_sample_gradient(gradient: np.ndarray, config: ClipConfig) -> np.ndarray:
    """Project one per-sample gradient onto the clipping ball.

    Vectors already inside the ball are returned unchanged (bit-identical);
    others are rescaled to norm config.bound.
    """
    gradient = np.asarray(gradient, dtype=float)
    if gradient.ndim != 1:
        raise ParameterError(f"gradient must be 1-d, got shape {gradient.shape}")
    norm = _row_norms(gradient[None, :], config.norm_kind)[0]
    if not math.isfinite(norm):
        raise ParameterError("gradient has non-finite entries")
    if norm <= config.bound:
        return gradient
    out = gradient * (config.bound / norm)
    # One or two refinement passes absorb rounding so the output never exceeds
    # the bound and a second clip call is a bitwise no-op.
    for _ in range(4):
        n = _row_norms(out[None, :], config.norm_kind)[0]
        if n <= config.bound:
            break
        out = out * (config.bound / n)
    return out


def test_clip_scales_l2_overflow_by_half():
    g = np.array([6.0, 8.0])  # norm 10
    out = clip_per_sample_gradient(g, ClipConfig(5.0, "l2"))
    assert np.allclose(out, g * 0.5)
    assert np.linalg.norm(out) <= 5.0 + 1e-12


def test_clip_identity_inside_ball():
    g = np.array([1.0, 2.0, 2.0])  # norm 3
    out = clip_per_sample_gradient(g, ClipConfig(5.0, "l2"))
    assert np.array_equal(out, g)


def test_clip_l1_example():
    out = clip_per_sample_gradient(np.array([3.0, -4.0]), ClipConfig(1.0, "l1"))
    assert np.allclose(out, [3.0 / 7.0, -4.0 / 7.0])
    assert np.abs(out).sum() <= 1.0 + 1e-12


def test_clip_norm_bound_and_idempotence():
    rng = np.random.default_rng(3)
    for norm_kind, measure in (("l2", np.linalg.norm),
                               ("l1", lambda v: np.abs(v).sum())):
        for _ in range(200):
            g = rng.normal(0, rng.uniform(0.1, 50), size=int(rng.integers(1, 20)))
            bound = rng.uniform(0.05, 10.0)
            cfg = ClipConfig(bound, norm_kind)
            once = clip_per_sample_gradient(g, cfg)
            assert measure(once) <= bound + 1e-12
            twice = clip_per_sample_gradient(once, cfg)
            assert np.array_equal(once, twice)


def test_clip_matrix_matches_rowwise():
    rng = np.random.default_rng(4)
    mat = rng.normal(0, 5, size=(50, 7))
    for cfg in (ClipConfig(1.3, "l2"), ClipConfig(2.1, "l1")):
        clipped = clip_gradient_matrix(mat, cfg)
        rows = np.stack([clip_per_sample_gradient(row, cfg) for row in mat])
        assert np.allclose(clipped, rows, atol=1e-12)


def test_clip_outer_rows_matches_materialized_clip():
    # the factored clip against clip_gradient_matrix of the built outer
    # products, with zero factor rows and rows rescaled onto the bound
    rng = np.random.default_rng(14)
    inside_rows = 0
    for case in range(600):
        norm_kind = ("l1", "l2")[case % 2]
        width = 1 if case % 3 == 0 else int(rng.integers(2, 7))
        rows = int(rng.integers(1, 30))
        bound = rng.uniform(0.01, 10.0)
        factors = rng.normal(scale=rng.uniform(0.01, 10.0), size=(rows, width))
        inputs = with_intercept(rng.normal(scale=rng.uniform(0.1, 10.0),
                                           size=(rows, int(rng.integers(1, 8)))))
        factors[rng.random(rows) < 0.15] = 0.0
        norms = _row_norms(factors, norm_kind) * _row_norms(inputs, norm_kind)
        at_bound = (rng.random(rows) < 0.3) & (norms > 0)
        factors[at_bound] *= (bound / norms[at_bound])[:, None]
        cfg = ClipConfig(bound, norm_kind)
        raw = outer_rows(factors, inputs)
        expected = clip_gradient_matrix(raw, cfg)
        got = clip_outer_rows(factors, inputs, cfg)
        assert got.shape == raw.shape
        inside = ((_row_norms(raw, norm_kind) <= bound)
                  & (_row_norms(factors, norm_kind) * _row_norms(inputs, norm_kind) <= bound))
        inside_rows += inside.sum()
        assert np.array_equal(got[inside], raw[inside])
        assert np.array_equal(expected[inside], raw[inside])
        assert np.all(np.abs(got - expected) <= 1e-13 * bound)
        assert np.all(_row_norms(got, norm_kind) <= bound)
        assert np.all(_row_norms(expected, norm_kind) <= bound)
    assert inside_rows > 1000


def test_clip_outer_rows_validation():
    cfg = ClipConfig(1.0, "l2")
    inputs = with_intercept(np.ones((3, 2)))
    with pytest.raises(ParameterError):
        clip_outer_rows(np.ones((2, 1)), inputs, cfg)
    with pytest.raises(ParameterError):
        clip_outer_rows(np.ones(3), inputs, cfg)
    with pytest.raises(ParameterError):
        clip_outer_rows(np.array([[1.0], [np.nan], [0.0]]), inputs, cfg)
    inputs[1, 0] = np.inf
    with pytest.raises(ParameterError):
        clip_outer_rows(np.ones((3, 1)), inputs, cfg)
    assert clip_outer_rows(np.zeros((0, 2)), np.zeros((0, 3)), cfg).shape == (0, 6)


def test_clip_outer_rows_refuses_rows_left_over_a_subnormal_bound():
    # at a subnormal l1 bound a rescale's quotient keeps too few bits, and
    # rows stay over the bound after the refinement's passes: the clip raises
    # rather than release them (the config refuses such a bound first)
    rng = np.random.default_rng(0)
    factors = rng.normal(size=(200, 1))
    inputs = with_intercept(rng.normal(size=(200, 3)))
    with pytest.raises(StateError, match=r"still over the l1 bound 1e-310 after four"):
        clip_outer_rows(factors, inputs, ClipConfig(1e-310, "l1"))
    clipped = clip_outer_rows(factors, inputs, ClipConfig(1e-310, "l2"))
    assert np.all(_row_norms(clipped, "l2") <= 1e-310)


def test_consume_budget_exact_division():
    budget = PrivacyBudget.fresh(1.0, 0.0)
    exhausted = False
    for _ in range(4):
        budget, exhausted = consume_budget(budget, 0.25)
    assert budget.epsilon_remaining == pytest.approx(0.0, abs=1e-15)
    assert exhausted


def test_consume_budget_zero_slice_noop():
    budget = PrivacyBudget.fresh(2.0, 1e-5)
    after, exhausted = consume_budget(budget, 0.0)
    assert after == budget
    assert not exhausted


def test_consume_budget_clamps_overdraw():
    budget = PrivacyBudget(1.0, 0.0, 0.1, 0.0)
    after, exhausted = consume_budget(budget, 0.25)
    assert after.epsilon_remaining == 0.0
    assert exhausted


def test_budget_exactness_over_planned_rounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        eps = rng.uniform(0.05, 10.0)
        rounds = int(rng.integers(1, 200))
        budget = PrivacyBudget.fresh(eps, 1e-5)
        slice_eps = eps / rounds
        for _ in range(rounds):
            budget, exhausted = consume_budget(budget, slice_eps,
                                               per_round_delta=1e-5 / rounds)
        assert abs(budget.epsilon_remaining) <= 1e-9
        assert exhausted
        assert budget.exhausted


def test_privacy_budget_validation():
    with pytest.raises(ParameterError):
        PrivacyBudget(1.0, 0.0, 1.5, 0.0)
    with pytest.raises(ParameterError):
        PrivacyBudget.fresh(1.0, 1.0)
    with pytest.raises(ParameterError):
        PrivacyBudget.fresh(0.0, 0.5)
    assert not PrivacyBudget.fresh(1.0, 0.0).exhausted
    assert PrivacyBudget(1.0, 0.0, 0.0, 0.0).exhausted
    # remaining below the relative floor counts as exhausted
    assert PrivacyBudget(1.0, 0.0, 5e-10, 0.0).exhausted


# ------------------------------------------------------- array (batch) forms

def test_array_calibration_matches_scalar_calls():
    rng = np.random.default_rng(12)
    n = 200
    samples = rng.integers(1, 50, size=n)
    eps = rng.uniform(0.05, 5.0, size=n)
    delta = rng.uniform(1e-6, 1e-2, size=n)
    planned = rng.integers(1, 300, size=n)
    sens = gradient_sensitivity(GM, 0.3, 1.2, samples, 0.7, include_loss_terms=True)
    sigma = gaussian_sigma(sens, eps, delta, planned, 1.5)
    scale = laplace_scale(sens, eps, planned)
    for i in range(n):
        s = gradient_sensitivity(GM, 0.3, 1.2, int(samples[i]), 0.7,
                                 include_loss_terms=True)
        assert sens[i] == s
        assert laplace_scale(s, eps[i], int(planned[i])) == scale[i]
        # numpy's vector log may round one ulp away from math.log
        assert sigma[i] == pytest.approx(
            gaussian_sigma(s, eps[i], delta[i], int(planned[i]), 1.5), rel=1e-15)


def test_array_calibration_validation():
    ok = np.array([1.0, 2.0])
    with pytest.raises(ParameterError):
        gaussian_sigma(ok, np.array([1.0, 0.0]), 1e-3, 2)
    with pytest.raises(ParameterError):
        gaussian_sigma(ok, ok, np.array([1e-3, 1.0]), 2)
    with pytest.raises(ParameterError):
        laplace_scale(ok, ok, np.array([1, 0]))
    with pytest.raises(ParameterError):
        laplace_scale(np.array([1.0, np.nan]), ok, 3)
    with pytest.raises(ParameterError):
        gradient_sensitivity(GM, 0.1, 1.0, np.array([3, 0]))


def test_array_consume_budget_matches_scalar_calls():
    eps = np.array([1.0, 0.5, 2.0, 1.0])
    delta = np.array([1e-4, 1e-5, 0.0, 1e-3])
    remaining = np.array([0.75, 0.1, 2.0, 1e-10])
    budget = PrivacyBudget(eps, delta, remaining, delta / 2)
    slices = np.array([0.25, 0.25, 0.5, 0.0])
    after, exhausted = consume_budget(budget, slices, delta / 8)
    for i in range(4):
        one, flag = consume_budget(
            PrivacyBudget(eps[i], delta[i], remaining[i], delta[i] / 2),
            slices[i], delta[i] / 8)
        assert after.epsilon_remaining[i] == one.epsilon_remaining
        assert after.delta_remaining[i] == one.delta_remaining
        assert exhausted[i] == flag
    assert exhausted.tolist() == [False, True, False, True]
    assert budget.exhausted.tolist() == [False, False, False, True]
    with pytest.raises(ParameterError):
        consume_budget(budget, np.array([0.1, -0.1, 0.1, 0.1]), delta / 8)
    # slices that would broadcast the budget to another shape are refused
    with pytest.raises(ParameterError, match="shape"):
        consume_budget(PrivacyBudget.fresh(1.0), np.array([0.1, 0.2]))


def test_array_budget_validation():
    ok = np.array([1.0, 1.0])
    with pytest.raises(ParameterError):
        PrivacyBudget(ok, np.zeros(2), np.array([1.0, 1.5]), np.zeros(2))
    with pytest.raises(ParameterError):
        PrivacyBudget(ok, np.array([0.0, 1.0]), ok, np.zeros(2))
    with pytest.raises(ParameterError):
        PrivacyBudget(ok, np.zeros(3), ok, np.zeros(2))


def _array_spec(mechanism, scale, **overrides):
    n = len(scale)
    fields = dict(sensitivity=np.full(n, 1.0), scale=np.asarray(scale, dtype=float),
                  per_round_epsilon=np.full(n, 0.1), per_round_delta=np.zeros(n),
                  planned_rounds=np.full(n, 3))
    fields.update(overrides)
    return NoiseSpec(mechanism=mechanism, **fields)


@pytest.mark.parametrize("mechanism", [GM, LM])
def test_array_sample_noise_matches_scalar_calls(mechanism):
    scales = [0.5, 0.0, 2.0, 1.3, 0.0, 0.01]
    got_rng = np.random.default_rng(8)
    got = sample_noise(_array_spec(mechanism, scales), 5, got_rng)
    ref_rng = np.random.default_rng(8)
    ref = [sample_noise(_spec(mechanism, s), 5, ref_rng) for s in scales]
    assert got.shape == (6, 5)
    assert np.array_equal(got, np.array(ref))
    assert got_rng.random() == ref_rng.random()  # same number of draws


def test_array_sample_noise_zero_scale_rows():
    rng = np.random.default_rng(5)
    got = sample_noise(_array_spec(GM, [0.0, 0.0]), 3, rng)
    assert np.array_equal(got, np.zeros((2, 3)))
    assert rng.normal() == np.random.default_rng(5).normal()  # nothing drawn
    got = sample_noise(_array_spec(LM, [0.0, 1.0, 0.0]), 3, np.random.default_rng(5))
    assert np.array_equal(got[[0, 2]], np.zeros((2, 3)))
    assert np.array_equal(got[1], np.random.default_rng(5).laplace(0.0, 1.0, size=3))


@pytest.mark.parametrize("mechanism", [GM, LM])
def test_sample_noise_blocks_each_draw_from_the_stream_start(mechanism):
    # the blocks of one call are releases that share the round's stream:
    # each is what a call of its own makes from the generator's state on
    # entry, zero-scale rows included, and the generator ends past the
    # longest block's draw
    gen = np.random.default_rng(2026)
    for case in range(60):
        sizes = gen.integers(0, 6, size=int(gen.integers(1, 5))).tolist()
        widths = gen.integers(1, 9, size=len(sizes)).tolist()
        scale = 10.0 ** gen.uniform(-3, 3, size=sum(sizes))
        scale[gen.random(len(scale)) < 0.25] = 0.0
        got_rng = np.random.default_rng(case)
        got = sample_noise(_array_spec(mechanism, scale), list(zip(sizes, widths)), got_rng)
        assert got.shape == (len(scale), max(widths))
        start, longest = 0, None
        for rows, width in zip(sizes, widths):
            ref_rng = np.random.default_rng(case)
            ref = sample_noise(_array_spec(mechanism, scale[start:start + rows]), width,
                               ref_rng)
            block = got[start:start + rows]
            assert block[:, :width].tobytes() == ref.tobytes()
            assert not block[:, width:].any()
            drawn = np.count_nonzero(scale[start:start + rows]) * width
            if longest is None or drawn > longest[0]:
                longest = drawn, ref_rng.bit_generator.state
            start += rows
        assert got_rng.bit_generator.state == longest[1]


@pytest.mark.parametrize("mechanism", [GM, LM])
def test_sample_noise_blocks_draw_from_their_own_generators(mechanism):
    # one generator per block, several blocks sharing one, in runs or not:
    # each block is what a call of its own makes from its generator's state
    # on entry, and each generator ends past its longest block's draw
    gen = np.random.default_rng(18)
    for case in range(80):
        sizes = gen.integers(0, 6, size=int(gen.integers(1, 9))).tolist()
        widths = gen.integers(1, 9, size=len(sizes)).tolist()
        owners = gen.integers(0, 3, size=len(sizes))
        if case % 2:
            owners.sort()
        scale = 10.0 ** gen.uniform(-3, 3, size=sum(sizes))
        scale[gen.random(len(scale)) < 0.2 * (case % 3)] = 0.0
        generators = [np.random.default_rng([case, o]) for o in range(3)]
        got = sample_noise(_array_spec(mechanism, scale), list(zip(sizes, widths)),
                           [generators[o] for o in owners])
        assert got.shape == (len(scale), max(widths))
        start, longest = 0, {}
        for rows, width, owner in zip(sizes, widths, owners.tolist()):
            ref_rng = np.random.default_rng([case, owner])
            ref = sample_noise(_array_spec(mechanism, scale[start:start + rows]), width,
                               ref_rng)
            block = got[start:start + rows]
            assert block[:, :width].tobytes() == ref.tobytes()
            assert not block[:, width:].any()
            drawn = np.count_nonzero(scale[start:start + rows]) * width
            if drawn > longest.get(owner, (0, None))[0]:
                longest[owner] = drawn, ref_rng.bit_generator.state
            start += rows
        for owner, rng in enumerate(generators):
            untouched = np.random.default_rng([case, owner]).bit_generator.state
            assert rng.bit_generator.state == longest.get(owner, (0, untouched))[1]
    with pytest.raises(ParameterError, match="2 generators for 1 blocks"):
        sample_noise(_array_spec(mechanism, [1.0]), [(1, 2)], [generators[0]] * 2)


def test_sample_noise_refuses_blocks_that_do_not_split_the_rows():
    spec = _array_spec(GM, [1.0, 2.0, 3.0])
    for blocks in ([(2, 4)], [(2, 4), (2, 4)], [(4, 4), (-1, 4)]):
        with pytest.raises(ParameterError, match="must split"):
            sample_noise(spec, blocks, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        sample_noise(spec, [(3, 0)], np.random.default_rng(0))
    with pytest.raises(ParameterError, match="must split"):
        sample_noise(_spec(GM, 1.0), [(1, 4)], np.random.default_rng(0))


@pytest.mark.parametrize("field, values", [
    ("scale", [1.0, -0.5]),
    ("scale", [1.0, np.inf]),
    ("sensitivity", [np.nan, 1.0]),
    ("per_round_epsilon", [0.1, 0.0]),
    ("per_round_epsilon", [-0.1, 0.1]),
    ("per_round_epsilon", [0.1, np.inf]),
    ("per_round_delta", [0.0, np.nan]),
    ("planned_rounds", [1, 0]),
    ("planned_rounds", [2.0, np.nan]),
    ("per_round_delta", [0.0, 0.0, 0.0]),
])
def test_array_noise_spec_validation(field, values):
    fields = {"scale": [1.0, 1.0], field: np.array(values)}
    with pytest.raises(ParameterError):
        _array_spec(GM, **fields)
    _array_spec(GM, [1.0, 1.0])
