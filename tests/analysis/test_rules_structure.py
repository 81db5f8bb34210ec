"""The P-series: each one-path rule fires on its planted violation with
its exact rule id and line, and its sanctioned idiom stays silent; on
the real tree, each row and allow-list entry still matches real code.

Fixture trees are laid out as ``src/repro/...`` so the real table in
:mod:`repro.analysis.rules_structure` applies to them unchanged.
"""

from __future__ import annotations

import dataclasses
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.analysis import rules_structure
from repro.analysis.base import make_rules
from repro.analysis.engine import iter_python_files, parse_modules, run_lint
from tests.analysis.conftest import line_of, write_tree


def hits(report, rule):
    """``(path under src/ or the fixture root, line)`` of each finding."""
    return [(f.file.split("/src/", 1)[-1] if "/src/" in f.file
             else "/".join(f.file.rsplit("/", 2)[-2:]), f.line)
            for f in report.findings if f.rule == rule]


# -- P001: one caller per single door ---------------------------------------
RUNNER = """\
    class ExperimentRunner:
        def build(self, config):
            return build_cluster(config, 4)


    def run_cell(cell):
        runtime = ExperimentRunner().build(cell.config)
        FaultInjector(runtime).arm(cell.schedule)
        return make_driver(runtime, cell.workload)
"""

SECOND_BUILDER = """\
    def figure_run(config, workload, schedule):
        runtime = build_cluster(config, 8)
        FaultInjector(runtime).arm(schedule)
        return make_driver(runtime, workload)
"""


def test_p001_a_second_run_path_fires_and_the_runner_is_silent(lint_tree):
    report = lint_tree({
        "src/repro/harness/runner.py": RUNNER,
        "src/repro/harness/figures.py": SECOND_BUILDER,
        "tests/test_x.py": SECOND_BUILDER,  # tests are out of scope
    })
    assert hits(report, "P001") == [
        ("repro/harness/figures.py", line)
        for line in range(2, 5)]


def test_p001_a_site_that_stopped_calling_fires_at_line_1(lint_tree):
    moved = RUNNER.replace("make_driver(runtime", "drive(runtime")
    [finding] = lint_tree({"src/repro/harness/runner.py": moved}).findings
    assert (finding.rule, finding.line) == ("P001", 1)
    assert "make_driver" in finding.message


def test_p001_keystore_verify_outside_the_three_checks_fires(lint_tree):
    view_change = """\
        def _on_chkpt(self, m):
            if self.keystore.verify_digest(m.sig, m.payload_digest):
                self._record_chkpt(m)
    """
    report = lint_tree({
        "src/repro/protocols/xpaxos/signed.py": """\
            def verify_signed(node, m):
                return node.keystore.verify_digest(m.sig, m.digest)
        """,
        "src/repro/protocols/xpaxos/replica.py": """\
            class XPaxosReplica:
                def _verify_request(self, request):
                    return self.keystore.verify_digest(request.sig, 1)
        """,
        "src/repro/protocols/xpaxos/checkpoint.py": """\
            def proof_valid(replica, proof):
                return replica.keystore.verify(proof.sig, 1)
        """,
        "src/repro/protocols/xpaxos/view_change.py": view_change,
    })
    assert hits(report, "P001") == [
        ("repro/protocols/xpaxos/view_change.py",
         line_of(view_change, "keystore.verify_digest"))]


def test_p001_a_payload_helper_fires_wherever_it_is_called(lint_tree):
    messages = """\
        def prepare_payload(view, seqno):
            return ("prepare", view, seqno)


        def sign_prepare(sign, view, seqno):
            return sign(prepare_payload(view, seqno))
    """
    report = lint_tree({
        "src/repro/protocols/xpaxos/messages.py": messages,
        "tests/test_payload.py": "assert prepare_payload(0, 1)\n",
    })
    assert hits(report, "P001") == [
        ("repro/protocols/xpaxos/messages.py", 6),
        ("tests/test_payload.py", 1)]


def test_p001_a_second_application_site_fires(lint_tree):
    runtime = """\
        class ReplicaBase:
            def execute_slot(self, seqno, batch):
                results = self.app.execute_batch(batch.ops)
                return results or self.app.execute_batch(batch.ops)

            def restore_to(self, seqno, snapshot):
                self.app.restore(snapshot)
    """
    paxos = """\
        class PaxosReplica:
            def _install(self, snapshot):
                self.app.restore(snapshot)
    """
    report = lint_tree({"src/repro/smr/runtime.py": runtime,
                        "src/repro/protocols/paxos/replica.py": paxos})
    assert hits(report, "P001") == [
        ("repro/protocols/paxos/replica.py", 3),
        ("repro/smr/runtime.py", 4)]
    assert "too many" in report.findings[1].message


def test_p001_a_second_reply_construction_site_fires(lint_tree):
    xpaxos = """\
        class XPaxosReplica:
            def make_reply(self, view, seqno, request, result):
                return msg.ReplyMsg(view, seqno, result)

            def _answer(self, view, seqno, result):
                return msg.ReplyMsg(view, seqno, result)
    """
    report = lint_tree({
        "src/repro/protocols/base.py": """\
            def make_reply(self, view, seqno, request, result):
                return GenericReply(view, seqno, result)
        """,
        "src/repro/protocols/xpaxos/replica.py": xpaxos,
        "src/repro/protocols/zab/replica.py":
            "def reply(v, s, r):\n    return GenericReply(v, s, r)\n",
    })
    assert hits(report, "P001") == [
        ("repro/protocols/xpaxos/replica.py", 6),
        ("repro/protocols/zab/replica.py", 2)]


def test_p001_a_protocol_reaching_the_wire_itself_fires(lint_tree):
    """Only the runtime's send verbs call ``network.send``: a protocol
    that does would put a size of its own on the wire."""
    runtime = """\
        class NodeBase:
            def send_authenticated(self, dst, payload):
                self.network.send(self.name, ((dst, payload, 1),))

            def send(self, items):
                self.network.send(self.name, items)

            def multicast_authenticated(self, dsts, payload):
                self.network.send(self.name, [(d, payload, 1) for d in dsts])

            def _fanout_with_self(self, names, payload, self_handler):
                network = self.network
                network.send(self.name, [(n, payload, 1) for n in names])
                self_handler()
                network.send(self.name, [(n, payload, 1) for n in names])
    """
    pbft = """\
        class PbftReplica:
            def _vote(self, vote):
                self.network.send(self.name, [("r1", vote, 48)])
    """
    report = lint_tree({"src/repro/smr/runtime.py": runtime,
                        "src/repro/protocols/pbft/replica.py": pbft})
    assert hits(report, "P001") == [
        ("repro/protocols/pbft/replica.py", line_of(pbft, "network.send"))]


def test_p001_a_derived_value_stored_outside_its_builder_fires(lint_tree):
    adversary = "def forge(vc, digest):\n" \
        "    msg.ViewChange._set_payload_digest(vc, digest)\n" \
        "    msg.ViewChange.payload_digest.__set__(vc, digest)\n"
    report = lint_tree({"src/repro/faults/adversary.py": adversary})
    assert hits(report, "P001") == [("repro/faults/adversary.py", 2),
                                    ("repro/faults/adversary.py", 3)]


# -- P002: line budgets -----------------------------------------------------
def test_p002_a_451_line_file_and_a_31_line_constructor_fire(tmp_path):
    def lines(count):
        return "".join(f"x{i} = {i}\n" for i in range(count))

    def replica(init_lines):
        return ("class XPaxosReplica:\n    def __init__(self):\n"
                + "".join(f"        self.a{i} = {i}\n"
                          for i in range(init_lines - 1))
                + "\n    def other(self):\n        return 1\n")

    write_tree(tmp_path, {
        "src/repro/protocols/xpaxos/lazy.py": lines(451),
        "src/repro/protocols/xpaxos/detection.py": lines(450),
        "src/repro/protocols/pbft/replica.py": lines(600),
        "src/repro/protocols/xpaxos/replica.py": replica(31),
        "src/repro/protocols/xpaxos/client.py": replica(31),
    })
    report = run_lint([str(tmp_path)], only=["P002"])
    assert hits(report, "P002") == [("repro/protocols/xpaxos/lazy.py", 451),
                                    ("repro/protocols/xpaxos/replica.py", 2)]
    write_tree(tmp_path, {"src/repro/protocols/xpaxos/replica.py": replica(30),
                          "src/repro/protocols/xpaxos/lazy.py": lines(450)})
    assert run_lint([str(tmp_path)], only=["P002"]).findings == []


# -- P003: options are read in constructors ---------------------------------
def test_p003_an_option_read_in_a_handler_fires(lint_tree):
    component = """\
        class FaultDetector:
            def __init__(self, config):
                self.enabled = config.use_fault_detection

            def _on_prepare(self, src, m):
                if self.config.use_fault_detection:
                    self.check(m)
    """
    report = lint_tree({
        "src/repro/protocols/xpaxos/detection.py": component,
        "src/repro/protocols/paxos/replica.py": component,  # not held
    })
    assert hits(report, "P003") == [
        ("repro/protocols/xpaxos/detection.py", 6)]


# -- P004: reachability, down to definitions --------------------------------
RUNNER_MODULE = """\
    from repro.harness.util import helper

    class ExperimentRunner:
        def __init__(self):
            self.runs = 0

        def sweep(self):
            return helper()

        def unused_method(self):
            return dead_helper()

    def run_cell(cell):
        return cell

    def dead_helper():
        return only_from_dead()

    def only_from_dead():
        return 0
"""

CHECKER = """\
    class SafetyChecker:
        def check(self):
            return True

        def assert_safe(self):
            assert self.check()
"""

TREE = {
    "src/repro/__init__.py": "from repro.common.config import ClusterConfig\n"
                             "__all__ = ['ClusterConfig']\n",
    "src/repro/__main__.py": "from repro.cli import main\n",
    "src/repro/cli.py": """\
        def main():
            from repro.harness.runner import run_cell
            return run_cell(None)
    """,
    "src/repro/common/__init__.py": "",
    "src/repro/common/config.py": """\
        class ClusterConfig:
            def replace(self):
                return self
    """,
    "src/repro/harness/__init__.py": "",
    "src/repro/harness/runner.py": RUNNER_MODULE,
    "src/repro/harness/util.py": "def helper():\n    return 1\n",
    "src/repro/faults/__init__.py": "",
    "src/repro/faults/checker.py": CHECKER,
    "src/repro/harness/orphan.py": "def lost():\n    return 2\n",
    "examples/demo.py": "from repro.faults.checker import SafetyChecker\n"
                        "SafetyChecker().check()\n",
    "benchmarks/test_fig.py": "from repro.harness.runner import Experiment"
                              "Runner\nExperimentRunner().sweep()\n",
    # Tests reach nothing.
    "tests/test_orphan.py": "from repro.harness.orphan import lost\n"
                            "from repro.harness.runner import dead_helper\n",
}


def test_p004_unreached_module_and_definitions_fire_at_their_lines(
        lint_tree):
    report = lint_tree(TREE)
    assert hits(report, "P004") == [
        ("repro/common/config.py", 2),
        ("repro/harness/orphan.py", 1),
        ("repro/harness/runner.py",
         line_of(RUNNER_MODULE, "def unused_method")),
        ("repro/harness/runner.py", line_of(RUNNER_MODULE, "def dead_")),
        ("repro/harness/runner.py", line_of(RUNNER_MODULE, "def only_")),
    ]
    messages = [f.message for f in report.findings]
    assert "ClusterConfig.replace" in messages[0]
    assert "module repro.harness.orphan" in messages[1]


UTIL_WITH_METHODS = """\
    class Meter:
        def read(self):
            return 1

        def _sample(self):
            return 2

        sample = _sample

        def total(self):
            return 3

    def helper():
        total = Meter().read() + Meter().sample()
        return total
"""


def test_p004_a_method_sharing_only_a_local_name_fires(lint_tree):
    # A bare name is a local or a global: only an attribute, a string or
    # the method's own class body reaches a method.
    report = lint_tree({**TREE, "src/repro/harness/util.py":
                        UTIL_WITH_METHODS})
    util = [line for path, line in hits(report, "P004")
            if path == "repro/harness/util.py"]
    assert util == [line_of(UTIL_WITH_METHODS, "def total")]


def test_p004_the_allow_list_keeps_test_apparatus(lint_tree, monkeypatch):
    apparatus = ("repro/faults/checker.py", line_of(CHECKER, "assert_safe"))
    assert apparatus not in hits(lint_tree(TREE), "P004")
    monkeypatch.setattr(rules_structure, "REACHABLE", dataclasses.replace(
        rules_structure.REACHABLE, allow=()))
    assert apparatus in hits(lint_tree(TREE), "P004")


def test_p004_apparatus_the_entry_points_reach_fires(lint_tree):
    # The oracle and the test apparatus are for tests only.
    demo = TREE["examples/demo.py"] + "SafetyChecker().assert_safe()\n"
    report = lint_tree({**TREE, "examples/demo.py": demo})
    [stale] = [f for f in report.findings if "allow-list" in f.message]
    assert (stale.rule, stale.line) == ("P004", line_of(CHECKER, "assert_s"))


def test_p004_a_partial_run_stays_quiet(tmp_path):
    root = write_tree(tmp_path, TREE)
    for paths in (["src/repro/harness"], ["src", "benchmarks"]):
        report = run_lint([str(root / path) for path in paths],
                          only=["P004"])
        assert report.findings == [], paths


def test_p004_a_tree_with_no_entry_points_stays_quiet(lint_tree):
    report = lint_tree({"src/repro/harness/orphan.py": TREE[
        "src/repro/harness/orphan.py"], "pkg/util.py": "def f():\n    pass\n"})
    assert hits(report, "P004") == []


# -- The real tree: every row and allow-list entry holds something ----------
# A row whose scope, callee or site no longer matches the code checks
# nothing, and the clean real-tree run would pass vacuously; so each one
# is loosened or tightened here and the real tree must then fail where it
# names.
REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def real_modules():
    """The tree ``repro lint`` checks by default, parsed once."""
    modules, errors = parse_modules(iter_python_files(
        [str(REPO / d) for d in ("src", "tests", "benchmarks", "examples")]))
    assert errors == []
    return modules


def lint_parsed(modules, rule_id):
    """One rule's findings over already parsed modules (the real tree
    carries no ``lint-ok[P...]`` marker, so none is resolved here)."""
    [rule] = make_rules(only=[rule_id])
    findings = [f for module in modules for f in rule.check_module(module)]
    return findings + rule.finish_project()


def _allow_id(entry):
    return entry.replace("repro.", "")


@pytest.mark.parametrize("entry", rules_structure.REACHABLE.allow,
                         ids=_allow_id)
def test_p004_each_allow_list_entry_keeps_something(real_modules,
                                                    monkeypatch, entry):
    allow = rules_structure.REACHABLE.allow
    monkeypatch.setattr(rules_structure, "REACHABLE", dataclasses.replace(
        rules_structure.REACHABLE,
        allow=tuple(other for other in allow if other != entry)))
    qualname_pattern = entry.partition(":")[2]
    named = []
    for finding in lint_parsed(real_modules, "P004"):
        module = finding.file.split("/src/", 1)[1][:-3].replace("/", ".")
        first = finding.message.split()[0]
        named.append(fnmatchcase(f"{module}:{first}", entry)
                     if qualname_pattern else
                     first == "module" and fnmatchcase(module, entry))
    assert any(named), f"{entry} allow-lists nothing P004 reports"


SITE_ROWS = [row for row in rules_structure.ONE_CALLERS if row.sites]


@pytest.mark.parametrize("row", SITE_ROWS, ids=lambda row: row.callee)
def test_p001_each_listed_site_makes_its_call(real_modules, monkeypatch,
                                              row):
    # With its sites struck, the row fires once per listed call and
    # nowhere else: every site is a real call the glob matches.
    monkeypatch.setattr(rules_structure, "ONE_CALLERS",
                        (dataclasses.replace(row, sites=()),))
    fired = sorted(f.file.split("/src/", 1)[1]
                   for f in lint_parsed(real_modules, "P001"))
    assert fired == sorted(site.rpartition(":")[0] for site in row.sites)


@pytest.mark.parametrize("row", rules_structure.LINE_BUDGETS,
                         ids=lambda row: row.function or row.scope)
def test_p002_each_budget_covers_real_code(real_modules, monkeypatch, row):
    # At a budget of one line, the row fires on every file in its scope
    # (or once, on its function): the scope and the name still match.
    monkeypatch.setattr(rules_structure, "LINE_BUDGETS",
                        (dataclasses.replace(row, limit=1),))
    fired = lint_parsed(real_modules, "P002")
    scope = row.scope.removeprefix("src/")
    in_scope = [m for m in real_modules
                if f"/src/{scope}" in m.path and len(m.lines) > 1]
    assert len(fired) == (len(in_scope) if row.function is None else 1)
    assert all(f"/src/{scope}" in f.file for f in fired)
