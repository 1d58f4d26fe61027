"""Shared test configuration.

Collects the outcome of every acceptance criterion test and prints one
PASS/FAIL line per criterion at the end of the run, so the acceptance
status is readable at a glance from the pytest output.

Loads the Hypothesis profile ``derandomized`` by default: every run of
the suite draws the same examples, under Hypothesis's default deadline.
The profile ``ci`` (``--hypothesis-profile=ci``) is derandomized too, with
no deadline.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_RESULTS: dict[int, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    match = _CRITERION_RE.search(item.name)
    if not match:
        return
    number = int(match.group(1))
    doc = (item.function.__doc__ or "").strip().splitlines()
    label = doc[0].strip() if doc else item.name
    _RESULTS[number] = ("PASS" if report.passed else "FAIL", label)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        status, label = _RESULTS[number]
        terminalreporter.write_line(f"criterion {number:02d}: {status} - {label}")
