"""Each rule family fires with the exact rule id and line number.

Every test injects a deliberate violation into a generated fixture tree
and asserts (a) the right rule fires at the right ``file:line``, and
(b) the sanctioned idiom next to it stays silent.
"""

from __future__ import annotations

from tests.analysis.conftest import found, line_of, rules_fired

# ---------------------------------------------------------------------------
# D-series: determinism
# ---------------------------------------------------------------------------

D001_SRC = """\
    import os
    import random
    import uuid


    def pick(options):
        return random.choice(options)


    def token():
        return os.urandom(8), uuid.uuid4()


    def sanctioned(rng):
        # Draws on an instance are the seeded-stream idiom.
        seeded = random.Random(7)
        return rng.random() + seeded.random()
"""


class TestD001GlobalRng:
    def test_draw_and_entropy_fire_at_exact_lines(self, lint_tree):
        report = lint_tree({"pkg/sampler.py": D001_SRC})
        hits = found(report, "D001")
        assert (
            "pkg/sampler.py", line_of(D001_SRC, "random.choice")) in hits
        assert ("pkg/sampler.py", line_of(D001_SRC, "os.urandom")) in hits
        # choice, urandom and uuid4 each fire (urandom/uuid4 share a line)
        assert len(hits) == 3
        assert rules_fired(report) == ["D001"]

    def test_rng_module_is_allowlisted(self, lint_tree):
        report = lint_tree({"repro/common/rng.py": D001_SRC})
        assert found(report, "D001") == []


D002_SRC = """\
    import time
    from datetime import datetime


    def stamp():
        return time.time(), time.perf_counter()


    def today():
        return datetime.now()


    def virtual(sim):
        return sim.now
"""


class TestD002WallClock:
    def test_clock_reads_fire(self, lint_tree):
        report = lint_tree({"pkg/metrics.py": D002_SRC})
        hits = found(report, "D002")
        assert ("pkg/metrics.py", line_of(D002_SRC, "time.time()")) in hits
        assert ("pkg/metrics.py", line_of(D002_SRC, "datetime.now")) in hits
        # time.time, perf_counter and datetime.now each fire
        assert len(hits) == 3
        assert rules_fired(report) == ["D002"]


D003_SRC = """\
    def grade(slots_a, slots_b, names):
        for seqno in set(slots_a) & set(slots_b):
            check(seqno)
        for name in {n.strip() for n in names}:
            check(name)
        replicas = [r for r in frozenset(names)]
        for seqno in sorted(set(slots_a) | set(slots_b)):
            check(seqno)
        for item in sorted({1, 2, 3}):
            check(item)
"""


class TestD003SetIteration:
    def test_set_iterations_fire_and_sorted_is_silent(self, lint_tree):
        report = lint_tree({"pkg/checker.py": D003_SRC})
        hits = found(report, "D003")
        assert ("pkg/checker.py",
                line_of(D003_SRC, "set(slots_a) & set(slots_b)")) in hits
        assert ("pkg/checker.py",
                line_of(D003_SRC, "{n.strip() for n in names}")) in hits
        assert ("pkg/checker.py",
                line_of(D003_SRC, "frozenset(names)")) in hits
        # The two sorted(...) loops must not fire.
        assert len(hits) == 3


# ---------------------------------------------------------------------------
# A-series: authentication
# ---------------------------------------------------------------------------

A001_MESSAGES = """\
    from dataclasses import dataclass


    def register(cls, policy):
        return cls


    def register_modeled(cls):
        return register(cls, "modeled-mac")


    @dataclass(frozen=True)
    class Ping:
        seq: int


    @dataclass(frozen=True)
    class Pong:
        seq: int


    @dataclass(frozen=True)
    class Probe:
        seq: int


    @dataclass(frozen=True)
    class Accuse:
        who: int


    @register_modeled
    @dataclass(frozen=True)
    class Hello:
        who: int


    @dataclass(frozen=True)
    class Inner:
        data: bytes


    register(Pong, "null")

    for _cls in (Probe,):
        register(_cls, "null")
"""

A001_REPLICA = """\
    from pkg.protocols.demo.messages import Accuse, Hello, Ping, Pong, Probe


    def fanout(net, names):
        m = Ping(1)
        net.multicast_authenticated(names, m, size_bytes=64)
        net.send("r1", Pong(2))
        probe = Probe(3)
        net.send_authenticated("r2", probe)


    def build_hello():
        return Hello(0)


    def greet(net):
        h = build_hello()
        net.multicast(["a", "b"], h)


    def forward(net, accusation: Accuse):
        net.multicast_authenticated(["a"], accusation)


    def accuse(net):
        forward(net, Accuse(4))
"""


class TestA001UnregisteredWireMessage:
    def fixture(self):
        return {
            "pkg/protocols/demo/messages.py": A001_MESSAGES,
            "pkg/protocols/demo/replica.py": A001_REPLICA,
        }

    def test_only_the_sent_unregistered_classes_fire(self, lint_tree):
        report = lint_tree(self.fixture())
        hits = found(report, "A001")
        # Ping: sent via a local, never registered -> fires at its def.
        assert ("demo/messages.py",
                line_of(A001_MESSAGES, "class Ping")) in hits
        # Accuse: reaches the transport through an annotated parameter.
        assert ("demo/messages.py",
                line_of(A001_MESSAGES, "class Accuse")) in hits
        # Pong (direct register), Probe (tuple-loop register), Hello
        # (decorator register + helper-return send) and Inner (never
        # sent) must all stay silent.
        assert len(hits) == 2

    def test_signed_constructor_resolves_to_its_class(self, lint_tree):
        """``msg.Vote.signed(...)`` builds a ``Vote``: sent unregistered
        it fires, whether built inline or through a local."""
        messages = """\
            from dataclasses import dataclass


            def register(cls, policy):
                return cls


            class Signed:
                @classmethod
                def signed(cls, sign, **fields):
                    return cls(**fields, sig=sign(fields))


            @dataclass(frozen=True)
            class Vote(Signed):
                seq: int
                sig: object


            @dataclass(frozen=True)
            class Share(Signed):
                seq: int
                sig: object


            @dataclass(frozen=True)
            class Final(Signed):
                seq: int
                sig: object


            register(Final, "null")
        """
        report = lint_tree({
            "pkg/protocols/demo/messages.py": messages,
            "pkg/protocols/demo/replica.py": """\
                from pkg.protocols.demo import messages as msg


                def vote(node, names):
                    vote = msg.Vote.signed(node.sign, seq=1)
                    node.multicast_authenticated(names, vote)
                    node.send_authenticated(
                        "r0", msg.Share.signed(node.sign, seq=2))
                    final = msg.Final.signed(node.sign, seq=3)
                    node.send_authenticated("r0", final)
            """,
        })
        assert sorted(found(report, "A001")) == [
            ("demo/messages.py", line_of(messages, "class Vote")),
            ("demo/messages.py", line_of(messages, "class Share")),
        ]

    def test_smr_messages_path_is_in_scope(self, lint_tree):
        report = lint_tree({
            "pkg/smr/messages.py": """\
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class Bare:
                    x: int
            """,
            "pkg/smr/runtime.py": """\
                from pkg.smr.messages import Bare


                def go(net):
                    net.send("r0", Bare(1))
            """,
        })
        assert len(found(report, "A001")) == 1

    def test_non_messages_modules_are_out_of_scope(self, lint_tree):
        report = lint_tree({
            "pkg/app.py": """\
                from dataclasses import dataclass


                @dataclass
                class Loose:
                    x: int


                def go(net):
                    net.send("r0", Loose(1))
            """,
        })
        assert found(report, "A001") == []


A002_CACHE = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Entry:
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", abs(self.value))


def poke(entry, digest):
    object.__setattr__(entry, "value", 7)


def memo(entry, digest):
    object.__setattr__(entry, "_cached_digest", digest)  # repro: lint-ok[A002] fixture suppression
"""


class TestA002FrozenMessageMutation:
    def fixture(self):
        return {"pkg/protocols/demo/state.py": A002_CACHE}

    def test_mutation_outside_post_init_fires(self, lint_tree):
        report = lint_tree(self.fixture())
        hits = found(report, "A002")
        assert ("demo/state.py",
                line_of(A002_CACHE, 'object.__setattr__(entry, "value"')) \
            in hits
        assert len(hits) == 1  # __post_init__ and the suppression stay quiet

    def test_crypto_primitives_is_exempt(self, lint_tree):
        report = lint_tree({
            "pkg/crypto/primitives.py": """\
                def cache_on_instance(obj, attr, value):
                    object.__setattr__(obj, attr, value)
            """,
        })
        assert found(report, "A002") == []

    def test_nested_function_inside_post_init_is_allowed(self, lint_tree):
        report = lint_tree({
            "pkg/app.py": """\
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class Conf:
                    n: int

                    def __post_init__(self):
                        def fix(v):
                            object.__setattr__(self, "n", v)
                        fix(3)
            """,
        })
        assert found(report, "A002") == []


# ---------------------------------------------------------------------------
# S-series: simulator hygiene
# ---------------------------------------------------------------------------

S001_SRC = """\
    def schedule(callback, pending=[]):
        pending.append(callback)


    def init(opts={}, tags=set(), order=None):
        return opts, tags, order


    def fine(callback, pending=None, limit=8, name=""):
        return pending
"""


class TestS001MutableDefault:
    def test_mutable_defaults_fire(self, lint_tree):
        report = lint_tree({"pkg/sched.py": S001_SRC})
        hits = found(report, "S001")
        assert ("pkg/sched.py", line_of(S001_SRC, "pending=[]")) in hits
        assert ("pkg/sched.py", line_of(S001_SRC, "opts={}")) in hits
        assert len(hits) == 3  # opts={} and tags=set() share a line


class TestS002HeapOutsideCore:
    def test_import_fires_outside_core(self, lint_tree):
        src = """\
            import heapq


            def push(q, item):
                heapq.heappush(q, item)
        """
        report = lint_tree({"pkg/queue.py": src})
        assert found(report, "S002") == [
            ("pkg/queue.py", line_of(src, "import heapq"))]

    def test_sim_core_is_allowed(self, lint_tree):
        report = lint_tree({"repro/sim/core.py": "import heapq\n"})
        assert found(report, "S002") == []


S003_SRC = """\
    class LightEntry:
        def __init__(self, t):
            self.t = t


    class PooledEntry:
        __slots__ = ("t",)

        def __init__(self, t):
            self.t = t


    class Singleton:
        def __init__(self):
            self.big = {}


    def drain(n):
        out = []
        for i in range(n):
            out.append(LightEntry(i))
            out.append(PooledEntry(i))
        return out, Singleton()
"""


class TestS003MissingSlots:
    def test_loop_instantiated_class_without_slots_fires(self, lint_tree):
        report = lint_tree({"repro/net/pool.py": S003_SRC})
        # LightEntry fires (loop + no slots); PooledEntry has slots;
        # Singleton is never instantiated in a loop.
        assert found(report, "S003") == [
            ("net/pool.py", line_of(S003_SRC, "class LightEntry"))]

    def test_slots_dataclass_decorator_counts(self, lint_tree):
        report = lint_tree({"repro/sim/entry.py": """\
            from dataclasses import dataclass


            @dataclass(frozen=True, slots=True)
            class Entry:
                t: float


            def refill(n):
                return [Entry(float(i)) for i in range(n)]
        """})
        assert found(report, "S003") == []

    def test_cold_modules_are_out_of_scope(self, lint_tree):
        report = lint_tree({"pkg/tools.py": S003_SRC})
        assert found(report, "S003") == []


class TestS004BlockingCall:
    def test_sleep_in_sim_layer_fires(self, lint_tree):
        src = """\
            import time


            def settle(ms):
                time.sleep(ms / 1000.0)
                return open("state.bin")
        """
        report = lint_tree({"repro/protocols/demo/replica.py": src})
        hits = found(report, "S004")
        assert ("demo/replica.py", line_of(src, "time.sleep")) in hits
        assert ("demo/replica.py", line_of(src, "open(")) in hits

    def test_harness_may_do_real_io(self, lint_tree):
        report = lint_tree({"repro/harness/runner.py": """\
            def snapshot(path, payload):
                with open(path, "w") as fh:
                    fh.write(payload)
        """})
        assert found(report, "S004") == []
