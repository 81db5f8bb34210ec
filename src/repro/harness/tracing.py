"""Structured message tracing and ASCII sequence diagrams.

Attach a :class:`MessageTracer` to a network before a run and it records
every delivered message as a :class:`TraceEvent`.  The trace can be
filtered (by time, participant, message type) and rendered as an ASCII
sequence diagram -- the same artifact as the paper's Figure 2 (common-case
message patterns) and Figure 3 (view change), but regenerated from a live
protocol execution rather than drawn by hand.

Example::

    tracer = MessageTracer.attach(runtime.network)
    ... run ...
    print(render_sequence_diagram(
        tracer.filter(kinds={"FastPrepare", "FastCommit", "ReplyMsg"}),
        participants=["c0", "r0", "r1"]))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.net.network import Network


@dataclass(frozen=True)
class TraceEvent:
    """One delivered message."""

    time: float
    src: str
    dst: str
    kind: str
    payload: Any

    def __str__(self) -> str:
        return f"{self.time:10.2f}ms {self.src:>4} -> {self.dst:<4} {self.kind}"


class MessageTracer:
    """Records every message a network delivers."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._enabled = True

    @classmethod
    def attach(cls, network: Network) -> "MessageTracer":
        """Wrap every endpoint's delivery callback with recording.

        Must be called after all endpoints are attached (i.e. after
        ``build_cluster``) and before the run.
        """
        tracer = cls()
        for name in list(network.names):
            endpoint = network.endpoint(name)

            def spying(src: str, body: Any, auth: Any, size_bytes: int,
                       _original=endpoint.deliver, _dst=name) -> None:
                # Deliveries are traced by their body: the transport
                # authenticator is channel plumbing, not a protocol
                # message.
                if tracer._enabled:
                    tracer.events.append(TraceEvent(
                        time=network.sim.now, src=src, dst=_dst,
                        kind=type(body).__name__, payload=body))
                _original(src, body, auth, size_bytes)

            endpoint.deliver = spying
        return tracer

    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop recording (e.g. to skip a warmup phase)."""
        self._enabled = False

    def resume(self) -> None:
        """Resume recording."""
        self._enabled = True

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self.events.clear()

    # ------------------------------------------------------------------
    def filter(
        self,
        kinds: Optional[Set[str]] = None,
        participants: Optional[Set[str]] = None,
        start_ms: float = 0.0,
        end_ms: float = float("inf"),
        limit: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Select a slice of the trace.

        Args:
            kinds: keep only these message type names.
            participants: keep messages whose src AND dst are in the set.
            start_ms / end_ms: time window.
            limit: keep at most this many events (from the start).
        """
        selected = []
        for event in self.events:
            if not start_ms <= event.time <= end_ms:
                continue
            if kinds is not None and event.kind not in kinds:
                continue
            if participants is not None and (
                    event.src not in participants
                    or event.dst not in participants):
                continue
            selected.append(event)
            if limit is not None and len(selected) >= limit:
                break
        return selected

    def count_by_kind(self) -> Dict[str, int]:
        """Message-type histogram -- handy for complexity assertions."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


def render_sequence_diagram(
    events: Sequence[TraceEvent],
    participants: Optional[Sequence[str]] = None,
    width: int = 14,
) -> str:
    """Render events as an ASCII sequence diagram.

    Participants become columns; each event is a row with an arrow from
    the source column to the destination column, labeled with the message
    kind and timestamp.
    """
    if participants is None:
        seen: List[str] = []
        for event in events:
            for name in (event.src, event.dst):
                if name not in seen:
                    seen.append(name)
        participants = seen
    columns = {name: index for index, name in enumerate(participants)}

    def position(index: int) -> int:
        return index * width + width // 2

    header = "".join(name.center(width) for name in participants)
    lines = [header]
    ruler = ""
    for index in range(len(participants)):
        ruler = ruler.ljust(position(index)) + "|"
    lines.append(ruler)

    for event in events:
        if event.src not in columns or event.dst not in columns:
            continue
        src_position = position(columns[event.src])
        dst_position = position(columns[event.dst])
        low, high = sorted((src_position, dst_position))
        row = list(" " * (len(participants) * width))
        for index in range(len(participants)):
            row[position(index)] = "|"
        if low != high:
            for x in range(low + 1, high):
                row[x] = "-"
            if dst_position > src_position:
                row[high - 1] = ">"
            else:
                row[low + 1] = "<"
        label = f" {event.kind} @{event.time:.1f}ms"
        lines.append("".join(row).rstrip() + label)
    return "\n".join(lines)


def message_complexity(
    tracer: MessageTracer,
    committed_ops: int,
    protocol_kinds: Optional[Set[str]] = None,
) -> float:
    """Messages per committed operation -- the quantity behind the paper's
    'communication complexity of state-of-the-art CFT protocols' claim.

    Args:
        tracer: the recorded run.
        committed_ops: operations committed during the recording.
        protocol_kinds: restrict to these message types (None = all).
    """
    if committed_ops <= 0:
        raise ValueError("committed_ops must be positive")
    if protocol_kinds is None:
        total = len(tracer.events)
    else:
        total = sum(1 for e in tracer.events if e.kind in protocol_kinds)
    return total / committed_ops
