"""Property tests of the configuration validators and the shot-allocation
target: every non-finite or out-of-range value raises ValueError, every
valid value constructs, and the CLI turns each rejection into its JSON
error contract."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geig.cli import main
from geig.fqge import FqgeConfig
from geig.measurement import shot_allocation
from geig.vqge import OptConfig, SolveConfig

bounded = settings(deadline=None, max_examples=60)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NOT_AN_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none())


def _raises(factory, **kwargs):
    with pytest.raises(ValueError):
        factory(**kwargs)


class TestSolveConfig:
    @bounded
    @given(
        layers=st.integers(1, 10**6),
        restarts=st.integers(1, 10**6),
        shots=st.integers(0, 10**9),
    )
    def test_valid_values_construct(self, layers, restarts, shots):
        cfg = SolveConfig(layers=layers, restarts=restarts, shots=shots)
        assert (cfg.layers, cfg.restarts, cfg.shots) == (layers, restarts, shots)

    @bounded
    @given(name=st.sampled_from(["layers", "restarts"]), value=st.integers(max_value=0))
    def test_counts_below_one_rejected(self, name, value):
        _raises(SolveConfig, **{name: value})

    @bounded
    @given(value=st.integers(max_value=-1))
    def test_negative_shots_rejected(self, value):
        _raises(SolveConfig, shots=value)

    @bounded
    @given(name=st.sampled_from(["layers", "restarts", "shots", "seed"]), value=NOT_AN_INT)
    def test_non_integers_rejected(self, name, value):
        _raises(SolveConfig, **{name: value})

    @bounded
    @given(value=st.integers(max_value=-1))
    def test_negative_seed_rejected(self, value):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SolveConfig(seed=value)

    @bounded
    @given(value=st.integers(0, 2**63))
    def test_non_negative_seeds_construct(self, value):
        assert SolveConfig(seed=value).seed == value

    def test_entangler_names_resolve_at_construction(self):
        assert SolveConfig(entangler="ring").entangler == "ring"
        # a pair list is checked against the qubit count where it is compiled
        assert SolveConfig(entangler=[(0, 5)]).entangler == [(0, 5)]
        with pytest.raises(ValueError, match="unknown entangler 'star'"):
            SolveConfig(entangler="star")


class TestOptConfig:
    @bounded
    @given(
        lr=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        iters=st.integers(1, 10**6),
        method=st.sampled_from(["adam", "gd"]),
    )
    def test_valid_values_construct(self, lr, iters, method):
        OptConfig(lr=lr, iters=iters, method=method)

    @bounded
    @given(value=NON_FINITE)
    def test_non_finite_rejected(self, value):
        _raises(OptConfig, lr=value)

    @bounded
    @given(value=st.floats(max_value=0.0))
    def test_non_positive_step_rejected(self, value):
        _raises(OptConfig, lr=value)

    @bounded
    @given(value=st.one_of(st.integers(max_value=0), NOT_AN_INT))
    def test_bad_iteration_counts_rejected(self, value):
        _raises(OptConfig, iters=value)


class TestFqgeConfig:
    @bounded
    @given(
        delta=POSITIVE,
        epsilon=st.floats(min_value=0.0, allow_infinity=False),
        noise_sigma=st.floats(min_value=0.0, allow_infinity=False),
        max_iters=st.integers(1, 10**6),
    )
    def test_valid_values_construct(self, delta, epsilon, noise_sigma, max_iters):
        FqgeConfig(delta=delta, epsilon=epsilon, noise_sigma=noise_sigma, max_iters=max_iters)

    @bounded
    @given(name=st.sampled_from(["delta", "epsilon", "noise_sigma"]), value=NON_FINITE)
    def test_non_finite_rejected(self, name, value):
        _raises(FqgeConfig, **{name: value})

    @bounded
    @given(value=st.floats(max_value=0.0, exclude_max=True))
    def test_negative_noise_rejected(self, value):
        _raises(FqgeConfig, noise_sigma=value)

    @bounded
    @given(value=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
    def test_negative_epsilon_rejected(self, value):
        # a negative tolerance is never met, so the run could only end at max_iters
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            FqgeConfig(epsilon=value)

    @bounded
    @given(value=st.floats(max_value=0.0))
    def test_non_positive_step_rejected(self, value):
        # a step of -delta ascends the quotient and delta = 0 never moves
        _raises(FqgeConfig, delta=value)

    @bounded
    @given(value=st.one_of(st.integers(max_value=0), NOT_AN_INT))
    def test_bad_iteration_counts_rejected(self, value):
        _raises(FqgeConfig, max_iters=value)

    @bounded
    @given(value=st.one_of(st.integers(0, 2**63), st.none()))
    def test_unset_or_non_negative_seeds_construct(self, value):
        assert FqgeConfig(seed=value).seed == value

    @bounded
    @given(value=st.one_of(st.integers(max_value=-1), NOT_AN_INT.filter(lambda v: v is not None)))
    def test_bad_seeds_rejected(self, value):
        with pytest.raises(ValueError, match="seed must be"):
            FqgeConfig(seed=value)


class TestShotAllocationTarget:
    COEFFS = ([1.0, 0.4], [1.0, 0.3], [0.2])

    @bounded
    @given(eps=st.floats(min_value=1e-3, max_value=1e6))
    def test_valid_targets_plan(self, eps):
        plan = shot_allocation(*self.COEFFS, eps)
        assert plan.eps == eps
        assert plan.total >= 5

    @bounded
    @given(eps=st.one_of(NON_FINITE, st.floats(max_value=0.0)))
    def test_bad_targets_rejected(self, eps):
        with pytest.raises(ValueError, match="pseudo-error"):
            shot_allocation(*self.COEFFS, eps)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["vqge", "--lr", "-0.1"], "lr"),
        (["vqge", "--lr", "nan"], "lr"),
        (["vqge", "--iters", "0"], "iters"),
        (["vqge", "--target-eps", "inf"], "pseudo-error"),
        (["vqge", "--target-eps", "nan"], "pseudo-error"),
        (["fqge", "--noise-sigma", "inf"], "noise_sigma"),
        (["vqge", "--seed", "-1"], "seed"),
        (["vqge", "--shots", "100", "--seed", "-1"], "seed"),
        (["fqge", "--seed", "-1"], "seed"),
    ],
)
def test_cli_rejects_bad_values(capsys, argv, name):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "ValueError"
    assert name in payload["message"]


@pytest.mark.parametrize("delta", ["-0.1", "0"])
def test_cli_rejects_non_positive_fqge_step(capsys, delta):
    assert main(["fqge", "--delta", delta]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "ValueError"
    assert "delta must be > 0" in payload["message"]
