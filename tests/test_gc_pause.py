"""Cyclic garbage collection is paused while a divider is built.

``build_divider`` pauses the collector and restores its previous state;
``import_text`` leaves it alone.  The tests count collections, not seconds.
"""
import gc
import hashlib
import sys
import threading

import pytest

from revdiv import circuit
from revdiv.adders import AdderBuilder
from revdiv.circuit import gc_paused
from revdiv.divider import KINDS, RESTORING, DividerParams, build_divider, make_params
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


def test_build_runs_at_most_one_collection():
    # the one is the young pass once the collector is back on; 110 unpaused
    _, runs = _count_collections(build_divider, make_params(64, "vbe", RESTORING))
    assert runs <= 1
    assert gc.isenabled()


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


def test_nested_pauses_restore_the_outer_state():
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def _digests() -> list[str]:
    """The QASM digests of the four dividers at n=32."""
    texts = (
        export_text(build_divider(make_params(32, adder, kind))[0])
        for kind in KINDS
        for adder in ("cuccaro", "vbe")
    )
    return [hashlib.sha256(t.encode()).hexdigest() for t in texts]


def test_threads_share_the_collector_flag():
    # each thread's pause may start or end inside the other's
    serial = _digests()
    results: list[list[list[str]]] = [[], []]

    def work(out):
        for _ in range(3):
            out.append(_digests())

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert gc.isenabled()
    assert results == [[serial] * 3, [serial] * 3]


def test_a_restore_cannot_fall_between_read_and_disable(monkeypatch):
    # Another thread's pause ends just after this thread's pause has read the
    # flag (disabled, by that pause) and before it disables.  Were the
    # restore to land there, this pause would disable the collector last and,
    # having read it disabled, never enable it again.
    inside, may_exit, exited = threading.Event(), threading.Event(), threading.Event()

    def other():
        with gc_paused():
            inside.set()
            may_exit.wait(60)
        exited.set()

    class Collector:  # gc, with the other pause's end between read and disable
        enable = staticmethod(gc.enable)
        disable = staticmethod(gc.disable)

        @staticmethod
        def isenabled():
            state = gc.isenabled()
            may_exit.set()
            exited.wait(0.2)  # times out while the restore waits its turn
            return state

    t = threading.Thread(target=other)
    t.start()
    assert inside.wait(60)
    monkeypatch.setattr(circuit, "gc", Collector)
    with gc_paused():
        pass
    t.join(timeout=60)
    assert not t.is_alive()
    assert gc.isenabled()


def test_import_leaves_the_collector_alone(monkeypatch):
    # a pause here showed no end-to-end gain, so the parser has none
    text = export_text(build_divider(make_params(4, "cuccaro", RESTORING))[0])
    calls = []

    class Collector:  # records every use of gc from revdiv.circuit
        def __getattr__(self, name):
            calls.append(name)
            return getattr(gc, name)

    monkeypatch.setattr(circuit, "gc", Collector())
    assert export_text(import_text(text)) == text
    assert calls == []
