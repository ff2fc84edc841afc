import pytest

from otfusion.errors import ParameterError
from otfusion.gradsuite import run_suite


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_negative_or_fractional_seed_rejected(seed):
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        run_suite(seed=seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 804180560])
def test_suite_passes_on_seeds_that_draw_near_relu_kinks(seed):
    failed = [(r.name, r.max_rel_error) for r in run_suite(seed=seed) if not r.passed]
    assert not failed
