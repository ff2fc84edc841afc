"""Every configuration of the equivalence grid (``tests/equivalence.py``)
reproduces the golden file's logits, loss and gradient summaries."""

import json

import numpy.testing as npt
import pytest

import equivalence

GOLDEN = json.loads(equivalence.GOLDEN.read_text(encoding="utf-8"))
GRID = equivalence.grid()


def test_golden_file_covers_the_grid():
    assert sorted(GOLDEN) == sorted(GRID)
    assert len(GRID) == 72


@pytest.mark.parametrize("key", sorted(GRID))
def test_configuration_matches_golden(key):
    result = equivalence.run_config(GRID[key])
    for mode, golden in GOLDEN[key].items():
        for field, expected in golden.items():
            npt.assert_allclose(result[mode][field], expected, rtol=equivalence.RTOL, atol=0,
                                err_msg=f"{key} {mode} {field}")
