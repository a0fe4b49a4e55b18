"""Tests for the shared utilities: RNG management, timing, logging."""

from __future__ import annotations

import logging
import time

import numpy as np
import pytest

from repro.utils import (
    RandomState,
    Timer,
    format_duration,
    get_logger,
    get_rng,
    set_global_seed,
    spawn_rng,
)


class TestRandomState:
    def test_seed_reproducibility(self):
        a = RandomState(42).normal(size=10)
        b = RandomState(42).normal(size=10)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomState(1).normal(size=10)
        b = RandomState(2).normal(size=10)
        assert not np.allclose(a, b)

    def test_seed_property(self):
        assert RandomState(7).seed == 7
        assert RandomState().seed is None

    def test_integers_bounds(self):
        values = RandomState(0).integers(0, 5, size=100)
        assert values.min() >= 0 and values.max() < 5

    def test_uniform_bounds(self):
        values = RandomState(0).uniform(2.0, 3.0, size=100)
        assert (values >= 2.0).all() and (values < 3.0).all()

    def test_choice_with_probabilities(self):
        rng = RandomState(0)
        values = rng.choice(3, size=500, p=[0.0, 1.0, 0.0])
        assert set(np.unique(values)) == {1}

    def test_categorical_normalises(self):
        rng = RandomState(0)
        index = rng.categorical([2.0, 0.0, 0.0])
        assert index == 0

    def test_categorical_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            RandomState(0).categorical([0.0, 0.0])

    def test_shuffle_and_permutation(self):
        rng = RandomState(0)
        data = list(range(10))
        permuted = rng.permutation(10)
        assert sorted(permuted.tolist()) == data
        rng.shuffle(data)
        assert sorted(data) == list(range(10))

    def test_spawn_children_independent(self):
        children = RandomState(3).spawn(3)
        assert len(children) == 3
        streams = [c.normal(size=5) for c in children]
        assert not np.allclose(streams[0], streams[1])

    def test_exponential_positive(self):
        assert (RandomState(0).exponential(1.0, size=50) > 0).all()


class TestGlobalRng:
    def test_get_rng_passthrough(self):
        explicit = RandomState(5)
        assert get_rng(explicit) is explicit

    def test_global_seed(self):
        set_global_seed(123)
        a = get_rng().normal(size=3)
        set_global_seed(123)
        b = get_rng().normal(size=3)
        np.testing.assert_allclose(a, b)

    def test_spawn_rng_from_global(self):
        set_global_seed(9)
        children = spawn_rng(None, 2)
        assert len(children) == 2


class TestTiming:
    def test_timer_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    @pytest.mark.parametrize(
        "seconds, expected_suffix",
        [(5e-7, "us"), (0.005, "ms"), (2.5, "s"), (125.0, "m")],
    )
    def test_format_duration_units(self, seconds, expected_suffix):
        text = format_duration(seconds)
        assert expected_suffix in text


class TestLogging:
    def test_logger_namespaced(self):
        logger = get_logger("core.trainer")
        assert logger.name == "repro.core.trainer"

    def test_logger_accepts_full_name(self):
        logger = get_logger("repro.eval")
        assert logger.name == "repro.eval"

    def test_logger_level_override(self):
        logger = get_logger("custom", level=logging.DEBUG)
        assert logger.level == logging.DEBUG
