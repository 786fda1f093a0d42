"""Shared fixtures plus the acceptance-criteria terminal summary."""
import re
from pathlib import Path

import pytest

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# one line per criterion, printed after the run
_CRITERIA = {
    1: "base model: NPV $4,050,146 +/- $5, IRR 0.51 +/- 0.01, break-even period 5",
    2: "best case: NPV $10,031,183 +/- $5, IRR 0.97 +/- 0.02, delta vs base +$5,981,037 +/- $10",
    3: "bare minimum: |NPV| <= $500, IRR in [0.024, 0.031], boundary break-even (24 or none)",
    4: "worst case: NPV -$542,295 +/- $5, IRR undefined, break-even none",
    5: "thirteen single-parameter sensitivity goldens, each +/- $2",
    6: "compound scenarios: -$65,427 / +$1,692,888 / +$5,251,887, each +/- $5",
    7: "analytic annuity cross-check for every expense-line sensitivity row (1e-6 relative)",
    8: "BOM roll-ups: direct $107.16 / total $121.02; revised direct $78.91; 1840 s; "
       "savings $28.52; discrepancy flags raised",
    9: "concept scoring: totals 2.68 / 1.98 / 2.07 at 1e-9; ranking A, C, B",
    10: "noise-control property suite (cap, zero-step, algorithm equivalences, "
        "convergence, divergence)",
    11: "byte-identical reports for identical command + config + seed",
}

_results = {}


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return CONFIG_DIR


def _kernel_line():
    from hushkit._kernels import backend_name

    return f"hushkit kernel: {backend_name()}"


def pytest_report_header(config):
    return _kernel_line()


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        _results[num] = report.passed
    elif report.failed:  # setup/teardown error counts as a failure
        _results[num] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(_kernel_line())  # -q hides the report header
    for num in sorted(_CRITERIA):
        if num in _results:
            verdict = "PASS" if _results[num] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"criterion {num:02d}: {verdict} - {_CRITERIA[num]}")
