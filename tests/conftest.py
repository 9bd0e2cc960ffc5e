import pytest


@pytest.fixture(autouse=True)
def hermetic_environment(monkeypatch):
    """Every test starts from the default precision and an 80-column
    terminal, whatever the calling shell exports: LATDISC_PRECISION changes
    each pinned decimal, and COLUMNS where argparse breaks its lines.  Tests
    of the variable set it themselves."""
    monkeypatch.delenv("LATDISC_PRECISION", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
