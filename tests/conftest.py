"""Shared fixtures. Molecule loads and ADAPT growth runs are expensive,
so they are session-scoped and shared across test modules."""

import os

import pytest

from vqenoise.chem import load_bundled


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        report.acceptance_tag = marker.args[0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, as a checklist."""
    entries = []
    for reports in terminalreporter.stats.values():
        for report in reports:
            tag = getattr(report, "acceptance_tag", None)
            if tag is not None:
                entries.append((tag, report.outcome == "passed"))
    if not entries:
        return
    terminalreporter.section("acceptance criteria")
    for tag, passed in sorted(entries):
        terminalreporter.write_line(
            f"{tag}: {'PASS' if passed else 'FAIL'}"
        )


@pytest.fixture
def physical_memory(monkeypatch):
    """Set the installed memory, to the byte, that the memory guard
    (``check_memory``) reads through ``os.sysconf``; nothing is
    allocated."""
    def set_memory(total):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": total}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    return set_memory


@pytest.fixture(scope="session")
def h2():
    return load_bundled("h2_0.7414")


@pytest.fixture(scope="session")
def h2_stretched():
    return load_bundled("h2_1.0")


@pytest.fixture(scope="session")
def h4():
    return load_bundled("h4_1.0")


@pytest.fixture(scope="session")
def h4_stretched():
    return load_bundled("h4_3.0")
