"""Shared pytest scaffolding.

Collects the acceptance verdict lines and replays them in the terminal
summary, where they survive output capture, and loads a derandomized
hypothesis profile so that every property test draws the same examples
on every run.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_verdicts = []


def record_verdict(line: str) -> None:
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in _verdicts:
            terminalreporter.write_line(line)
