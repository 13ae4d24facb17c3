import sys

import pytest

from graphvar import variation


@pytest.fixture
def ladder_scans(monkeypatch):
    """The threshold of every stopping_ladder scan, in call order."""
    scans = []
    scan = variation.stopping_ladder

    def counting(path, p):
        scans.append(p)
        return scan(path, p)

    monkeypatch.setattr(variation, "stopping_ladder", counting)
    return scans


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines after capture is torn down.

    The acceptance tests append one line per criterion to
    test_acceptance.LINES while they run; printing them here puts them on the
    real terminal regardless of capture mode.
    """
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
