import sys

import pytest


@pytest.fixture(autouse=True)
def hermetic_environment(monkeypatch):
    """Every test starts from the default precision and an 80-column
    terminal, whatever the calling shell exports: LATDISC_PRECISION changes
    each pinned decimal, and COLUMNS where argparse breaks its lines.  Tests
    of the variable set it themselves."""
    monkeypatch.delenv("LATDISC_PRECISION", raising=False)
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture
def default_digit_cap():
    """Python's default cap of 4300 digits on an int <-> str conversion,
    whatever PYTHONINTMAXSTRDIGITS says; the test may change it, and the
    cap it found is restored after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
