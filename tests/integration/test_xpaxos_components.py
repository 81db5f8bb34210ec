"""``XPaxosReplica`` stays split along the paper's algorithms
(docs/execution.md, "Where each algorithm lives").

An AST sweep in the manner of ``test_one_signature_check.py``, so that the
one-class replica cannot grow back unnoticed: no module of the package
outgrows a screenful of algorithms, the core's constructor stays a list of
its own state, an option is decided where a component is built and never
in a handler body, and every message class has exactly one handler
registration.
"""

import ast
from pathlib import Path

import repro
from repro.crypto.authenticators import authenticator_for
from repro.protocols.xpaxos import messages as msg

XPAXOS = Path(repro.__file__).resolve().parent / "protocols" / "xpaxos"
MAX_FILE_LINES = 450
MAX_INIT_LINES = 30
OPTIONS = ("use_lazy_replication", "use_fault_detection")
#: Addressed to clients: the two a replica never receives.
CLIENT_BOUND = {"ReplyMsg", "SignedReplies"}


def modules():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(XPAXOS.glob("*.py"))}


def option_reads_outside_constructors(tree):
    """``(function, option)`` for every ``<...>.use_*`` read that is not
    inside a function called ``__init__``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in OPTIONS \
                and function != "__init__":
            found.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def handler_keys(tree):
    """Message-class names used as keys of a dict literal that is assigned
    to, or merged into, something called ``_handlers``."""
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            table = node.value
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "update" and node.args:
            targets, table = [node.func.value], node.args[0]
        else:
            continue
        if isinstance(table, ast.Dict) and any(
                isinstance(t, ast.Attribute) and t.attr == "_handlers"
                for t in targets):
            keys += [key.attr for key in table.keys
                     if isinstance(key, ast.Attribute)]
    return keys


def test_sweeps_see_what_they_are_for():
    tree = ast.parse(
        "class R:\n"
        "    def __init__(self, config):\n"
        "        self.lazy = config.use_lazy_replication\n"
        "        self._handlers = {msg.Prepare: self._on_prepare}\n"
        "    def _on_prepare(self, src, m):\n"
        "        if self.config.use_fault_detection:\n"
        "            self.replica._handlers.update({msg.Chkpt: self.f})\n")
    assert option_reads_outside_constructors(tree) == \
        [("_on_prepare", "use_fault_detection")]
    assert handler_keys(tree) == ["Prepare", "Chkpt"]


def test_no_module_outgrows_its_algorithms():
    sizes = {name: len((XPAXOS / name).read_text().splitlines())
             for name in modules()}
    assert {n: s for n, s in sizes.items() if s > MAX_FILE_LINES} == {}


def test_core_constructor_lists_its_own_state_and_no_more():
    replica = next(node for node in modules()["replica.py"].body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "XPaxosReplica")
    init = next(node for node in replica.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert init.end_lineno - init.lineno + 1 <= MAX_INIT_LINES


def test_options_are_decided_at_construction():
    reads = {name: option_reads_outside_constructors(tree)
             for name, tree in modules().items()}
    assert {n: r for n, r in reads.items() if r} == {}


def test_every_message_class_is_registered_by_exactly_one_owner():
    keys = [key for tree in modules().values() for key in handler_keys(tree)]
    assert len(keys) == len(set(keys)), sorted(keys)
    wire_classes = {name for name, cls in vars(msg).items()
                    if isinstance(cls, type) and cls.__module__ == msg.__name__
                    and authenticator_for(cls) is not None}
    assert set(keys) == wire_classes - CLIENT_BOUND
