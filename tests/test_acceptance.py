"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
The same checks back ``projcond verify --profile full``.  Each criterion's
rows must also equal, field for field as the CSV report prints them, the
golden file tests/data/criterion_NN.csv, so a refactor that claims to change
no result is checked against the full profile at the default seed.  The
golden files were written on x86-64 with NumPy 2.4.6 and OpenBLAS; another
BLAS can round the last printed digit of a few rows differently.
"""

import csv
import time
from pathlib import Path

import pytest

from projcond import acceptance

DATA = Path(__file__).parent / "data"


def _run(number):
    t0 = time.time()
    rows = acceptance.run_criterion(number, acceptance.DEFAULT_SEED)
    elapsed = time.time() - t0
    failures = [r for r in rows if not r.passed]
    desc, _ = acceptance.CRITERIA[number]
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d} [{status}] ({elapsed:.1f} s, {len(rows)} rows): {desc}")
    for row in failures:
        print(f"    FAIL {row.params}: estimate={row.estimate} target={row.target} se={row.se}")
    assert not failures
    with open(DATA / f"criterion_{number:02d}.csv", newline="") as fh:
        golden = list(csv.reader(fh))[1:]
    assert [row.csv_fields() for row in rows] == golden


def test_criterion_01_density_normalization():
    _run(1)


def test_criterion_02_eta_bound():
    _run(2)


def test_criterion_03_bartlett_structure():
    _run(3)


def test_criterion_04_expansion_order():
    _run(4)


def test_criterion_05_gaussian_zero_cases():
    _run(5)


def test_criterion_06_prop5_special_cases():
    _run(6)


def test_criterion_07_quadratic_identity():
    _run(7)


@pytest.mark.slow
def test_criterion_08_conditional_trend():
    _run(8)


def test_criterion_09_quadrature_agreement():
    _run(9)


def test_criterion_10_bound_arithmetic():
    _run(10)


def test_smoke_profile_clean():
    rows = acceptance.run_smoke(acceptance.DEFAULT_SEED)
    assert all(r.passed for r in rows)
    assert len(rows) == 27
