"""Tracepoints on the observer bus: probe adapters, multicast, and the
disabled-state contract."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import observe
from repro.errors import ConfigError
from repro.trace import tracepoints
from repro.trace.tracepoints import EVENT_IDS, EVENT_NAMES, TRACEPOINTS


def _subscribe(probes):
    sub = observe.Subscription(tracepoints.handlers(probes))
    sub.attach()
    return sub


def test_all_slots_none_while_disabled():
    for name in observe.EVENTS:
        assert getattr(observe, name) is None


def test_event_ids_are_stable_and_nonzero():
    assert sorted(EVENT_IDS.values()) == list(range(1, len(TRACEPOINTS) + 1))
    for name, ev_id in EVENT_IDS.items():
        assert EVENT_NAMES[ev_id] == name


def test_attach_enables_and_detach_disables():
    calls = []
    probe = lambda a=0, b=0, c=0: calls.append((a, b, c))  # noqa: E731
    sub = _subscribe({"mm_vmscan_evict": probe})
    assert observe.evict_done is not None
    observe.evict_done([SimpleNamespace(vpn=1)], 2, 3)
    assert calls == [(1, 2, 3)]
    sub.detach()
    assert observe.evict_done is None


def test_multicast_fans_out_in_attach_order():
    order = []
    first = lambda a=0, b=0, c=0: order.append(("first", a))  # noqa: E731
    second = lambda a=0, b=0, c=0: order.append(("second", a))  # noqa: E731
    sub_first = _subscribe({"swap_io_done": first})
    sub_second = _subscribe({"swap_io_done": second})
    observe.swap_io(SimpleNamespace(vpn=9), 3, 0)
    assert order == [("first", 9), ("second", 9)]
    # Detaching one leaves the other attached (and drops the shim).
    sub_first.detach()
    order.clear()
    observe.swap_io(SimpleNamespace(vpn=7), 3, 0)
    assert order == [("second", 7)]
    sub_second.detach()
    assert observe.swap_io is None


def test_unknown_tracepoint_rejected():
    with pytest.raises(ConfigError):
        tracepoints.handlers({"mm_no_such_event": lambda: None})
    with pytest.raises(ConfigError):
        observe.attach("mm_no_such_event", lambda: None)
    with pytest.raises(ConfigError):
        observe.detach("mm_no_such_event", lambda: None)


def test_detach_unattached_probe_is_noop():
    observe.detach("fault_done", lambda: None)
    assert observe.fault_done is None


def test_detach_all_and_active():
    assert observe.active() == ()
    probe = lambda a=0, b=0, c=0: None  # noqa: E731
    _subscribe({"mglru_age": probe, "mm_fault_minor": probe})
    assert set(observe.active()) == {"aging_walk", "fault_done"}
    observe.detach_all()
    assert observe.active() == ()
    assert observe.aging_walk is None
    assert observe.fault_done is None


def test_payload_labels_are_three_tuples():
    for name, labels in TRACEPOINTS.items():
        assert len(labels) == 3, name
        assert all(isinstance(label, str) for label in labels)
