"""The cyclic collector is paused around proof construction, parsing and
checking, the caller's setting comes back on return or raise, and a built
proof leaves no reference cycles behind."""

import dataclasses
import gc
from unittest import mock

import pytest

from ggtkit import checker, gtproofs, lr_engine, proof_io
from ggtkit.bpo import Bpo
from ggtkit.checker import SELF_CHECK, check_proof
from ggtkit.formulas import gen_ggt
from ggtkit.gtproofs import build_pn, build_ppi
from ggtkit.lr_engine import NodeBudgetExceeded, build_pool_with_stats, build_regrti_with_stats
from ggtkit.proof_io import ProofParseError, parse_proof, serialize_proof
from ggtkit.proofs import ProofStructureError, collector_paused

F6 = gen_ggt(6, 0)
PI8 = Bpo.of(8, [(0, 3), (1, 3), (2, 5), (0, 7)])
POOL6 = build_pool_with_stats(F6)[0]
TEXT6 = serialize_proof(POOL6)


def _build():
    build_pool_with_stats(F6)


def _parse():
    parse_proof(TEXT6)


def _check():
    assert check_proof(POOL6, F6, SELF_CHECK["pool"]).ok


def _pn():
    build_pn(8)


def _ppi():
    build_ppi(8, PI8)


def _build_over_budget():
    with pytest.raises(NodeBudgetExceeded):
        build_regrti_with_stats(F6, max_nodes=50)


def _parse_malformed():
    with pytest.raises(ProofParseError):
        parse_proof(TEXT6.replace("\n0 A", "\n0 A 0 0", 1))


def _check_malformed():
    # the root names itself as a premise
    root = dataclasses.replace(POOL6.nodes[-1], premises=(0, POOL6.root))
    d = dataclasses.replace(POOL6, nodes=POOL6.nodes[:-1] + (root,))
    with pytest.raises(ProofStructureError):
        check_proof(d, F6, SELF_CHECK["pool"])


def _wrong_root(build):
    def raise_at_root(clause, pi):
        raise AssertionError("derivation root differs from the pi clause")

    def op():
        with mock.patch.object(gtproofs, "_check_root", raise_at_root):
            with pytest.raises(AssertionError, match="differs from the pi clause"):
                build()

    return op


OPS = {"build": _build, "parse": _parse, "check": _check, "pn": _pn, "ppi": _ppi}
RAISING = {"build": _build_over_budget, "parse": _parse_malformed, "check": _check_malformed,
           "pn": _wrong_root(_pn), "ppi": _wrong_root(_ppi)}


@pytest.mark.parametrize("op", OPS)
def test_leaves_gc_enabled(restore_gc, op):
    gc.enable()
    OPS[op]()
    assert gc.isenabled()


@pytest.mark.parametrize("op", OPS)
def test_leaves_gc_disabled(restore_gc, op):
    gc.disable()
    OPS[op]()
    assert not gc.isenabled()


@pytest.mark.parametrize("op", RAISING)
def test_restores_gc_when_it_raises(restore_gc, op):
    gc.enable()
    RAISING[op]()
    assert gc.isenabled()


@pytest.mark.parametrize("op,owner,attr", [
    ("build", lr_engine._Engine, "run"),
    ("parse", proof_io, "_parse"),
    ("check", checker, "_check_valid"),
    ("pn", gtproofs.Skeleton, "clauses"),
    ("ppi", gtproofs.Skeleton, "clauses"),
])
def test_collector_is_paused_while_the_work_runs(restore_gc, monkeypatch, op, owner, attr):
    seen = []
    inner = getattr(owner, attr)

    def spy(*args):
        seen.append(gc.isenabled())
        return inner(*args)

    monkeypatch.setattr(owner, attr, spy)
    gc.enable()
    OPS[op]()
    assert seen == [False]


def test_pause_nests(restore_gc):
    gc.enable()
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_leaving_the_pause_runs_no_collection(restore_gc):
    # the postponed collection waits for the caller's next allocation
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info)

    keep = []
    gc.enable()
    gc.callbacks.append(count)
    try:
        with collector_paused():
            keep.extend([i] for i in range(10_000))
        ran = len(starts)
    finally:
        gc.callbacks.remove(count)
    assert ran == 0


def test_built_proofs_leave_no_cycles(restore_gc):
    f = gen_ggt(9, 1)
    gc.collect()
    gc.disable()
    for build in (build_pool_with_stats, build_regrti_with_stats):
        d, stats = build(f)
        parsed = parse_proof(serialize_proof(d))
        assert check_proof(parsed, f, SELF_CHECK["pool"]).ok
        del d, stats, parsed
        assert gc.collect() == 0, build.__name__


def test_gt_derivations_leave_no_cycles(restore_gc):
    gc.collect()
    gc.disable()
    d = build_pn(12)
    e = build_ppi(8, PI8)
    del d, e
    assert gc.collect() == 0
