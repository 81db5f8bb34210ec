"""No protocol sends per-receiver ``Mac`` objects inside payloads.

Channel MACs live at the transport now (stamped by
``Network.send`` at delivery fan-out time); a ``Mac``
inside a payload would silently re-lock that message class out of the
multicast fast path.  This sweeps live traffic of all five protocols --
including XPaxos checkpointing, fault detection and a view change, the
paths that used to embed MACs -- and inspects every payload recursively.
"""

import dataclasses

import pytest

from repro.common.config import ProtocolName
from repro.crypto.primitives import Mac
from repro.faults.injector import FaultSchedule
from repro.protocols.xpaxos import messages as xmsg
from tests.conftest import make_harness


def contains_mac(obj, depth=0):
    """Recursively look for a Mac anywhere inside a payload."""
    if depth > 8:
        return False
    if isinstance(obj, Mac):
        return True
    if isinstance(obj, (tuple, list, set, frozenset)):
        return any(contains_mac(item, depth + 1) for item in obj)
    if isinstance(obj, dict):
        return any(contains_mac(k, depth + 1) or contains_mac(v, depth + 1)
                   for k, v in obj.items())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return any(
            contains_mac(getattr(obj, f.name), depth + 1)
            for f in dataclasses.fields(obj))
    return False


def sweep(protocol, **overrides):
    harness = make_harness(protocol, **overrides)
    offenders = []

    def inspect(src, dst, payload):
        if contains_mac(payload):
            offenders.append((src, dst, type(payload).__name__))
        return True

    harness.runtime.network.send_filter = inspect
    return harness, offenders


@pytest.mark.parametrize("protocol", list(ProtocolName),
                         ids=[p.value for p in ProtocolName])
def test_no_macs_in_payloads_under_failover(protocol):
    harness, offenders = sweep(protocol)
    harness.arm(FaultSchedule().crash_for(1_000.0, 0, 800.0))
    driver = harness.drive(duration_ms=3_000.0)
    assert driver.throughput.total > 0  # traffic actually flowed
    assert offenders == []


def test_no_macs_in_xpaxos_checkpoint_and_detection_traffic():
    """The paths that used to embed Macs: PreChk, replies, and the
    fault-detection view change."""
    harness, offenders = sweep(ProtocolName.XPAXOS, checkpoint_period=8,
                               use_fault_detection=True)
    harness.arm(FaultSchedule().suspect(1_500.0, 1))
    driver = harness.drive(duration_ms=3_000.0)
    assert driver.throughput.total > 100
    primary = harness.replica(0)
    assert primary.stable_checkpoint is not None  # PreChk/CHKPT ran
    assert any(r.view_changes_completed > 0 for r in harness.replicas)
    assert offenders == []


def test_mac_fields_gone_from_message_classes():
    """The two classes that embedded Macs no longer declare them."""
    for cls in (xmsg.PreChk, xmsg.ReplyMsg):
        names = {f.name for f in dataclasses.fields(cls)}
        assert "mac" not in names, cls
