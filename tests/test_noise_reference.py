"""`sample_noise` against a frozen reference draw.

`_reference_noise` draws each drawn row's noise as numpy's own
`rng.normal(0.0, scale[:, None], size)` or `rng.laplace(0.0, scale[:, None],
size)`, as `sample_noise` did before it became one unit draw times a
per-row scale. The two must agree byte for byte, signed zeros included, and
leave the generator in the same state, so every seeded output that depends
on the noise is unchanged.
"""

import numpy as np

from dpflsim.mechanisms import MechanismKind, NoiseSpec, sample_noise

GM = MechanismKind.GAUSSIAN
LM = MechanismKind.LAPLACE


def _reference_noise(mechanism, scale, dimension, rng):
    scale = np.asarray(scale, dtype=float)
    out = np.zeros(scale.shape + (dimension,))
    drawn = scale > 0.0
    if drawn.any():
        rows = scale[drawn][:, None]
        draw = rng.normal if mechanism is GM else rng.laplace
        out[drawn] = draw(0.0, rows, size=(len(rows), dimension))
    return out


def _spec(mechanism, scale):
    scale = np.asarray(scale, dtype=float)
    return NoiseSpec(mechanism, np.ones_like(scale), scale, np.full_like(scale, 0.1),
                     np.zeros_like(scale), np.full(scale.shape, 3))


def _instances(count=320, seed=20261018):
    """(mechanism, scale, dimension, draw seed): rows 1-120, widths 1-70,
    scales log-uniform over 1e-11..1e8, about one instance in four with some
    zero-scale rows and about one in eight a scalar spec."""
    gen = np.random.default_rng(seed)
    for case in range(count):
        mechanism = (GM, LM)[case % 2]
        dimension = int(gen.integers(1, 71))
        if gen.random() < 0.125:
            scale = float(10.0 ** gen.uniform(-11, 8))
        else:
            rows = int(gen.integers(1, 121))
            scale = 10.0 ** gen.uniform(-11, 8, size=rows)
            if gen.random() < 0.25:
                scale[gen.random(rows) < 0.3] = 0.0
        yield mechanism, scale, dimension, case


def test_sample_noise_is_bit_identical_to_reference():
    instances = list(_instances())
    assert len(instances) >= 300
    kinds = {(m, np.ndim(s) == 0, bool(np.any(np.asarray(s) == 0.0)))
             for m, s, _, _ in instances}
    # both mechanisms, scalar specs, and array specs with and without zero rows
    assert {(GM, True, False), (LM, True, False), (GM, False, True), (LM, False, True),
            (GM, False, False), (LM, False, False)} <= kinds
    for mechanism, scale, dimension, seed in instances:
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_noise(_spec(mechanism, scale), dimension, got_rng)
        ref = _reference_noise(mechanism, scale, dimension, ref_rng)
        assert got.shape == ref.shape == np.shape(scale) + (dimension,)
        assert got.tobytes() == ref.tobytes(), (mechanism, np.shape(scale), dimension)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

