import gc

import pytest


@pytest.fixture
def restore_gc():
    """Put the cyclic collector back in the state the test found it in."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def no_tables_for_n(monkeypatch):
    """Make every per-n clause or triangle table that reading a gt/ggt
    file could build raise at once, so a test fails fast instead of
    allocating one for a huge header `n`."""

    def refuse(n, *args):
        raise AssertionError(f"built a table for n={n}")

    for name in ("cyclic_classes", "triangle_table", "trans_table", "ggt_clauses"):
        monkeypatch.setattr(f"ggtkit.formulas.{name}", refuse)
    monkeypatch.setattr("ggtkit.dimacs.ggt_clauses", refuse)
