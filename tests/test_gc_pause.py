"""Building and parsing circuits leave cyclic garbage collection alone.

A circuit stores its gates as one flat list of ints, so neither a build
nor ``import_text`` makes an object per gate for the collector to walk, and
neither touches the collector's state.  The tests count collections and
bytes, not seconds.
"""
import gc
import tracemalloc

import pytest

from revdiv.adders import AdderBuilder
from revdiv.divider import RESTORING, DividerParams, build_divider, make_params
from revdiv.qasm import QasmParseError, export_text, import_text


def _collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def _count_collections(fn, *args):
    """``fn(*args)`` and the number of collections it ran, from no debt."""
    gc.collect()
    before = _collections()
    result = fn(*args)
    return result, _collections() - before


@pytest.fixture
def collector_disabled():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_build_runs_no_collection():
    # a built circuit is one flat list of ints, so a build leaves the young
    # generation nothing to count up to a collection (110 with a Gate per gate)
    _, runs = _count_collections(build_divider, make_params(64, "vbe", RESTORING))
    assert runs == 0
    assert gc.isenabled()


def test_built_circuit_holds_under_32_bytes_per_gate():
    # three 8-byte slots per gate, plus the list's spare room and the
    # fragments and templates the build keeps (61.8 with a Gate per gate)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c, _ = build_divider(make_params(64, "vbe", RESTORING))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 32 * len(c.gates)


def _raising_build(m):
    raise RuntimeError("adder build failed")


RAISING = DividerParams(n=4, adder=AdderBuilder("raising", _raising_build))


def _build():
    build_divider(make_params(4, "cuccaro", RESTORING))


def _build_raising():
    with pytest.raises(RuntimeError, match="^adder build failed$"):
        build_divider(RAISING)


def _import_raising():
    with pytest.raises(QasmParseError, match="^line 2: unknown gate 'h'$"):
        import_text("OPENQASM 3.0;\nh a[0];\n")


CALLS = [
    pytest.param(_build, id="build"),
    pytest.param(_build_raising, id="build-raises"),
    pytest.param(_import_raising, id="import-raises"),
]


@pytest.mark.parametrize("call", CALLS)
def test_enabled_collector_is_enabled_after(call):
    call()
    assert gc.isenabled()


@pytest.mark.parametrize("call", CALLS)
def test_disabled_collector_stays_disabled(call, collector_disabled):
    call()
    assert not gc.isenabled()


def test_import_leaves_the_collector_alone(monkeypatch):
    # a pause here showed no end-to-end gain, so the parser has none
    text = export_text(build_divider(make_params(4, "cuccaro", RESTORING))[0])
    calls = []
    for name in ("disable", "enable", "isenabled", "collect", "freeze"):
        use = getattr(gc, name)
        monkeypatch.setattr(gc, name, lambda *a, name=name, use=use: calls.append(name) or use(*a))
    assert export_text(import_text(text)) == text
    assert calls == []
