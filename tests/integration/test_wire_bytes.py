"""Every wire class states its own modelled size, ``wire_bytes``.

A message's size sets its uplink serialization time and the per-kB MAC
and digest CPU of sender and receivers, so it is part of every simulated
result.  The runtime's send verbs read it from the payload
(``NodeBase.send_authenticated`` and its siblings); no send names a
size.  This checks that every registered protocol class defines
``wire_bytes`` on itself -- a class constant, a field or a property,
never inherited -- and pins each class's rule to the numbers the sends
used before the classes stated them: one instance per fixed-size class,
a wrapped request or batch, a reply's own ``wire_bytes`` field, and the
log-carrying classes built with k committed and m prepared entries
(docs/execution.md, "Modelled sizes").
"""

import dataclasses

import pytest

import repro.protocols.base as base
import repro.protocols.campaign as campaign
import repro.protocols.paxos.replica as paxos
import repro.protocols.pbft.replica as pbft
import repro.protocols.xpaxos.messages as xmsg
import repro.protocols.zab.replica as zab
import repro.protocols.zyzzyva.replica as zyzzyva
from repro.crypto.authenticators import POLICIES
from repro.crypto.primitives import Digest
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request

#: The protocol classes (tests register probes of their own).
CLASSES = sorted((cls for cls in POLICIES
                  if cls.__module__.startswith("repro.")),
                 key=lambda cls: (cls.__module__, cls.__qualname__))

FIXED = {
    base.SyncRequest: 16,
    paxos.Accepted: 48, paxos.NewBallot: 32, paxos.Promise: 256,
    pbft.CommitMsg: 48,
    zyzzyva.CommitCert: 96,
    zab.Ack: 32, zab.CommitZab: 32,
    xmsg.CommitVote: 64, xmsg.FastCommit: 96, xmsg.Suspect: 48,
    xmsg.VcFinal: 256, xmsg.VcConfirm: 96, xmsg.NewView: 1024,
    xmsg.FaultAccusation: 256, xmsg.PreChk: 44, xmsg.Chkpt: 96,
    xmsg.LazyChk: 512, xmsg.FetchEntries: 48, xmsg.SignedReplyShare: 96,
    xmsg.SignedReplies: 256,
}
WRAPS_A_REQUEST = (base.ClientRequestMsg, xmsg.Replicate, xmsg.ReSend)
WRAPS_A_BATCH = (paxos.Accept, paxos.Learn, pbft.PrePrepare,
                 zyzzyva.OrderReq, zab.Proposal, xmsg.Prepare,
                 xmsg.FastPrepare)
REPLIES = (base.GenericReply, xmsg.ReplyMsg)
CARRIES_LOGS = (xmsg.ViewChange, pbft.ViewChange, zyzzyva.ViewChange,
                zab.FollowerInfo, base.SyncReply, xmsg.FetchReply,
                campaign.NewView, zab.NewEpoch, xmsg.LazyCommit)


def build(cls, **given):
    """An instance of ``cls``: ``given`` fields, None for the rest."""
    return cls(**{f.name: given.get(f.name)
                  for f in dataclasses.fields(cls)})


def batch(size, client=0):
    return Batch((Request("op", 1, client, size - 10),
                  Request("op", 2, client, 10)))


#: Three batches of different sizes: k = 2 committed, m = 3 prepared.
BATCHES = [batch(100), batch(250, 1), batch(1024, 2)]
COMMITTED = BATCHES[:2]
PREPARED = BATCHES
SUM_C = sum(b.size_bytes for b in COMMITTED)
SUM_P = sum(b.size_bytes for b in PREPARED)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_every_wire_class_states_its_size_itself(cls):
    assert "wire_bytes" in cls.__dict__, (
        f"{cls.__qualname__} must define wire_bytes where it is defined")


def test_every_wire_class_is_pinned_below():
    pinned = {*FIXED, *WRAPS_A_REQUEST, *WRAPS_A_BATCH, *REPLIES,
              *CARRIES_LOGS}
    assert pinned == set(CLASSES)


@pytest.mark.parametrize("cls", sorted(FIXED, key=lambda c: c.__module__
                                       + c.__qualname__),
                         ids=lambda cls: cls.__qualname__)
def test_a_fixed_size(cls):
    assert build(cls).wire_bytes == FIXED[cls]
    assert cls.wire_bytes == FIXED[cls]  # a constant: no call to read it


@pytest.mark.parametrize("cls", WRAPS_A_REQUEST,
                         ids=lambda cls: cls.__qualname__)
def test_the_request_it_wraps(cls):
    assert build(cls, request=Request("op", 1, 0, 777)).wire_bytes == 777


@pytest.mark.parametrize("cls", WRAPS_A_BATCH,
                         ids=lambda cls: cls.__qualname__)
def test_the_batch_it_wraps(cls):
    assert build(cls, batch=BATCHES[2]).wire_bytes == 1024


def test_a_lazy_commit_is_its_entry_s_batch():
    entry = CommitEntry(5, 0, BATCHES[1], ())
    assert build(xmsg.LazyCommit, entry=entry).wire_bytes == 250


@pytest.mark.parametrize("cls", REPLIES, ids=lambda cls: cls.__qualname__)
def test_a_reply_s_size_is_its_own_field(cls):
    assert build(cls, wire_bytes=64).wire_bytes == 64
    assert build(cls, wire_bytes=0).wire_bytes == 0


def test_xpaxos_view_change():
    commits = tuple((sn, CommitEntry(sn, 0, b, ()))
                    for sn, b in enumerate(COMMITTED, 1))
    prepares = tuple((sn, PrepareEntry(sn, 0, b, None))
                     for sn, b in enumerate(PREPARED, 1))
    empty = build(xmsg.ViewChange, commit_entries=())
    assert empty.wire_bytes == 128
    vc = build(xmsg.ViewChange, commit_entries=commits,
               prepare_entries=prepares)
    assert vc.wire_bytes == (128 + SUM_C + 128 * len(COMMITTED)
                             + SUM_P + 64 * len(PREPARED))


def test_pbft_view_change():
    committed = tuple(enumerate(COMMITTED, 1))
    prepared = tuple((sn, Digest(b"d" * 32), b)
                     for sn, b in enumerate(PREPARED, 1))
    vc = build(pbft.ViewChange, committed=committed, prepared=prepared)
    assert vc.wire_bytes == (SUM_C + 16 * len(COMMITTED)
                             + SUM_P + 48 * len(PREPARED) + 128)
    assert build(pbft.ViewChange, committed=(),
                 prepared=()).wire_bytes == 128


def test_zyzzyva_view_change():
    vc = build(zyzzyva.ViewChange, entries=tuple(enumerate(COMMITTED, 1)))
    assert vc.wire_bytes == SUM_C + 16 * len(COMMITTED) + 128


def test_zab_follower_info():
    entries = tuple((sn, 0, b) for sn, b in enumerate(PREPARED, 1))
    info = build(zab.FollowerInfo, entries=entries)
    assert info.wire_bytes == SUM_P + 24 * len(PREPARED) + 128


def test_sync_reply_counts_its_batches_not_its_snapshot():
    reply = build(base.SyncReply, snapshot=b"s" * 4096,
                  entries=tuple(enumerate(COMMITTED, 1)))
    assert reply.wire_bytes == SUM_C + 64
    assert reply.header_bytes == 64


def test_fetch_reply_counts_its_batches():
    entries = tuple(CommitEntry(sn, 0, b, ())
                    for sn, b in enumerate(PREPARED, 1))
    assert build(xmsg.FetchReply, entries=entries).wire_bytes == SUM_P + 64
    assert build(xmsg.FetchReply, entries=()).wire_bytes == 64


def test_both_new_views():
    """PBFT and Zyzzyva announce a view with the merged batches and a
    128-B header; Zab's NEW-EPOCH carries no entries and is 64 B.  A
    follower's MAC check is charged over the header."""
    entries = tuple(enumerate(COMMITTED, 1))
    announced = build(campaign.NewView, entries=entries)
    assert announced.wire_bytes == SUM_C + 128
    assert announced.header_bytes == 128
    epoch = build(zab.NewEpoch, entries=())
    assert epoch.wire_bytes == epoch.header_bytes == 64
    assert isinstance(epoch, campaign.NewView)
    assert POLICIES[zab.NewEpoch] is POLICIES[campaign.NewView]
