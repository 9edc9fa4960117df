"""The benchmark's traced run wraps names that lr_engine and checker import.

`perfbench.spans.traced_imports` patches them on the importing modules, so
a refactor that drops or renames one of them must fail here, not only when
the benchmark runs with `--trace 1`.
"""

from collections import Counter, defaultdict

import pytest

from ggtkit import checker, lr_engine
from ggtkit.checker import ALL_PROFILES, check_proof
from ggtkit.formulas import gen_ggt
from ggtkit.lr_engine import build_pool_with_stats
from perfbench.spans import Recorder, traced_imports

_PATCHED = ((lr_engine, "build_ppi_dag"), (lr_engine, "associated_bpo"), (checker, "unit_propagate"))


def test_traced_imports_record_each_cross_layer_call_and_restore_the_names():
    originals = [getattr(mod, attr) for mod, attr in _PATCHED]
    rec = Recorder()
    with traced_imports(rec, defaultdict(int)):
        d, st = build_pool_with_stats(5, 0)
        check_proof(d, gen_ggt(5, 0), ALL_PROFILES)
    assert [getattr(mod, attr) for mod, attr in _PATCHED] == originals
    spans = Counter(rec.names)
    assert st.case_iv > 0
    assert spans["gtproofs.build_ppi_dag"] == st.stages
    # one order per new leaf, once for its chain plan and once for its record
    assert spans["bpo.associated_bpo"] == 2 * (2 * st.case_iv_gamma + 3 * st.case_iv_beta)
    assert spans["propagation.unit_propagate"] > 0


def test_traced_imports_restore_the_names_when_the_body_raises():
    originals = [getattr(mod, attr) for mod, attr in _PATCHED]
    with pytest.raises(RuntimeError):
        with traced_imports(Recorder(), defaultdict(int)):
            raise RuntimeError("inside the traced block")
    assert [getattr(mod, attr) for mod, attr in _PATCHED] == originals
