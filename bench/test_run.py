"""Tests of the time scaling in ``run.py``.

    python3 -m pytest bench
"""

from __future__ import annotations

import pytest

from run import REFERENCE_S, reference_kernel, scaled


def test_scaled_divides_by_the_median_kernel_time_of_the_block():
    refs = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S, 50 * REFERENCE_S]
    assert scaled([1.0, 5.0], refs) == pytest.approx([0.4, 2.0])


def test_a_block_at_reference_speed_keeps_its_times():
    assert scaled([0.7, 1.3], [REFERENCE_S] * 3) == pytest.approx([0.7, 1.3])


def test_reference_kernel_returns_a_positive_time():
    assert reference_kernel() > 0.0
