"""Shared pytest hooks and test values.

Collects the outcome of each acceptance criterion test and prints one
pass/fail line per criterion at the end of the run.
"""

import re

# values of drt.volume.PIECE that the piecewise passes are tested at: a
# piece of one unit, of a small prime, and of more than any pass here holds
PIECES = [1, 7, 1 << 30]

_PATTERN = re.compile(r"test_criterion_(\d+[a-z]?)_(\w+)")

_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    tag, slug = m.groups()
    if hasattr(report, "wasxfail"):
        status = "FAIL (known limitation)" if report.skipped else "FAIL"
    elif report.passed:
        status = "PASS"
    elif report.failed:
        status = "FAIL"
    else:
        status = "SKIP"
    _results[report.nodeid] = (tag, status, slug.replace("_", " "))


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for tag, status, desc in sorted(_results.values()):
        terminalreporter.write_line(f"criterion {tag:>3}: {status:<4} {desc}")
