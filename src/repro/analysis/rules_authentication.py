"""A-series: transport-authentication rules.

PR 5 moved authentication into the transport: a message class must be
bound to an :class:`~repro.crypto.authenticators.Authenticator` policy
or the runtime refuses to send it.  That refusal only happens when the
offending send actually executes -- a rarely-taken path (a view-change
edge, a detection accusation) can carry an unregistered message through
review and fail in production.  This rule finds the gap statically.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.base import ModuleInfo, Rule, rule

#: The transport verbs whose payload argument must be a registered
#: message class: the ``Network``/runtime primitives plus the runtime's
#: self-including fan-out wrapper.
_SEND_METHODS = frozenset({
    "send", "multicast", "send_authenticated", "multicast_authenticated",
    "_fanout_with_self",
})

#: Functions that bind a class to a policy.  ``register`` is the
#: registry primitive; ``register_*`` covers wrappers like
#: ``protocols.base.register_modeled`` (usable as calls or decorators).
def _is_register_name(name: str) -> bool:
    return name == "register" or name.startswith("register_")


def _callee_name(func: ast.AST) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr == "signed":
            # ``msg.Vote.signed(sign, ...)`` constructs a ``Vote``.
            return _callee_name(func.value)
        return func.attr
    return ""


def _is_messages_module(module: ModuleInfo) -> bool:
    """Is this a wire-message definition module?

    The convention covered by the rule: ``protocols/<name>/messages.py``
    and ``smr/messages.py``.
    """
    parts = module.parts
    if parts[-1] != "messages.py" or len(parts) < 2:
        return False
    return parts[-2] == "smr" or "protocols" in parts[:-1]


@rule
class UnregisteredWireMessageRule(Rule):
    """A sent wire-message dataclass must register an authenticator.

    For every ``@dataclass`` defined in a messages module
    (``protocols/*/messages.py``, ``smr/messages.py``) that appears as a
    payload of a transport send -- constructed (``Cls(...)`` or its
    ``Cls.signed(...)`` constructor) directly inside a
    ``send*``/``multicast*`` call, or assigned to a local that is then
    passed to one -- there must be a static ``register(<Class>,
    <policy>)`` binding (direct call, ``register_*`` wrapper or
    decorator, or the tuple-loop idiom ``for _cls in (A, B): ...``).
    Without it the send raises only at runtime, on whatever rarely-taken
    path first exercises the message.  Classes never observed in a send
    call are exempt: envelope *contents* (``Request`` inside
    ``ClientRequestMsg``) are authenticated by their carrier.
    """

    id = "A001"
    title = "wire message sent without a static authenticator binding"

    def __init__(self) -> None:
        super().__init__()
        #: class name -> (path, line) of its definition.
        self._message_classes: Dict[str, Tuple[str, int]] = {}
        self._registered: Set[str] = set()
        #: callee name observed as a send payload -> (path, line) of the
        #: first send site (resolved against classes and helpers at the
        #: end of the project pass).
        self._sent_callees: Dict[str, Tuple[str, int]] = {}
        #: helper function name -> the class its ``return Cls(...)``
        #: constructs (one level: ``vc = self._build_vc(); send(vc)``).
        self._helper_returns: Dict[str, str] = {}

    # -- per-module collection ----------------------------------------------

    def check_module(self, module: ModuleInfo):
        self._module = module
        self._findings = []
        if _is_messages_module(module):
            self._collect_message_classes(module)
        self._collect_registrations(module.tree)
        self._collect_sends(module)
        return []

    def _collect_message_classes(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            is_dataclass = any(
                _callee_name(d.func) == "dataclass"
                if isinstance(d, ast.Call) else _callee_name(d) == "dataclass"
                for d in node.decorator_list)
            if is_dataclass:
                self._message_classes.setdefault(
                    node.name, (module.path, node.lineno))

    def _collect_registrations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_register_name(
                    _callee_name(node.func)):
                if node.args and isinstance(node.args[0], ast.Name):
                    self._registered.add(node.args[0].id)
            elif isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    name = _callee_name(
                        dec.func if isinstance(dec, ast.Call) else dec)
                    if _is_register_name(name):
                        self._registered.add(node.name)
            elif isinstance(node, ast.For):
                self._collect_loop_registration(node)

    def _collect_loop_registration(self, node: ast.For) -> None:
        """``for _cls in (A, B, C): register(_cls, POLICY)``"""
        if not (isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))):
            return
        loop_var = node.target.id
        registers_loop_var = any(
            isinstance(inner, ast.Call)
            and _is_register_name(_callee_name(inner.func))
            and inner.args and isinstance(inner.args[0], ast.Name)
            and inner.args[0].id == loop_var
            for stmt in node.body for inner in ast.walk(stmt))
        if registers_loop_var:
            for element in node.iter.elts:
                if isinstance(element, ast.Name):
                    self._registered.add(element.id)

    def _collect_sends(self, module: ModuleInfo) -> None:
        """Record which class names flow into transport send calls.

        Resolution is deliberately shallow: a direct ``Cls(...)``
        argument, a Name argument previously assigned from ``Cls(...)``
        (or from a helper call) in the same function body, plus one
        level of helper indirection -- a function whose ``return`` is a
        ``Cls(...)`` marks ``Cls`` sent wherever that helper's result is
        passed to a transport verb.  That covers the codebase's send
        idioms; anything fancier still fails at runtime.
        """
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assigned: Dict[str, str] = {}
            # Annotated parameters resolve too: a helper that takes
            # ``accusation: msg.FaultAccusation`` and forwards it to a
            # transport verb marks FaultAccusation as sent.
            all_args = (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs)
            for arg in all_args:
                ann = arg.annotation
                if isinstance(ann, ast.Name):
                    assigned[arg.arg] = ann.id
                elif isinstance(ann, ast.Attribute):
                    assigned[arg.arg] = ann.attr
            for stmt in ast.walk(node):
                if (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Call)):
                    cls = _callee_name(stmt.value.func)
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and cls:
                            assigned[target.id] = cls
            for stmt in ast.walk(node):
                if (isinstance(stmt, ast.Return)
                        and isinstance(stmt.value, ast.Call)):
                    returned = _callee_name(stmt.value.func)
                    if returned:
                        self._helper_returns.setdefault(node.name, returned)
                elif (isinstance(stmt, ast.Return)
                        and isinstance(stmt.value, ast.Name)):
                    returned = assigned.get(stmt.value.id)
                    if returned:
                        self._helper_returns.setdefault(node.name, returned)
            for stmt in ast.walk(node):
                if not (isinstance(stmt, ast.Call)
                        and _callee_name(stmt.func) in _SEND_METHODS):
                    continue
                where = (module.path, stmt.lineno)
                args = list(stmt.args) + [kw.value for kw in stmt.keywords]
                for arg in args:
                    if isinstance(arg, ast.Call):
                        cls = _callee_name(arg.func)
                        if cls:
                            self._sent_callees.setdefault(cls, where)
                    elif isinstance(arg, ast.Name):
                        cls = assigned.get(arg.id)
                        if cls:
                            self._sent_callees.setdefault(cls, where)

    # -- project verdict ----------------------------------------------------

    def finish_project(self):
        # Resolve observed send-payload callees: a callee is the class
        # itself, or a helper whose return constructs the class.
        sent: Dict[str, Tuple[str, int]] = {}
        for callee, where in self._sent_callees.items():
            resolved = callee if callee in self._message_classes else \
                self._helper_returns.get(callee)
            if resolved in self._message_classes:
                sent.setdefault(resolved, where)
        findings = []
        for name in sorted(self._message_classes):
            if name in self._registered or name not in sent:
                continue
            path, line = self._message_classes[name]
            sent_path, sent_line = sent[name]
            findings.append(self.emit(
                path, line,
                f"message dataclass {name} is passed to a transport "
                f"send ({sent_path}:{sent_line}) but never bound to an "
                f"authenticator policy via register(); the runtime will "
                f"refuse it at send time"))
        return findings


@rule
class FrozenMessageMutationRule(Rule):
    """``object.__setattr__`` outside ``__post_init__`` breaks the
    digest-cache immutability contract.

    The canonical encoder keeps every frozen wire message's encoding on
    the instance, and carried digests (``Request.body_digest``, the
    ``payload_digest`` of signed messages) sit there too; none is ever
    invalidated: a message mutated after its first digest would keep
    authenticating under the stale digest, silently defeating content
    tampering detection.  Frozen dataclasses may
    initialise derived fields in ``__post_init__`` (the instance has
    not escaped yet), and ``crypto/primitives.py`` owns the sanctioned
    memoization hook (:func:`cache_on_instance`); every other
    ``object.__setattr__`` is a frozen-instance mutation and is
    flagged.
    """

    id = "A002"
    title = "object.__setattr__ outside __post_init__ mutates a frozen message"

    def __init__(self) -> None:
        super().__init__()
        self._func_stack: List[str] = []

    def check_module(self, module: ModuleInfo):
        # The digest-cache implementation itself is the one sanctioned
        # mutation site.
        if module.parts[-2:] == ("crypto", "primitives.py"):
            return []
        self._func_stack = []
        return super().check_module(module)

    def visit_FunctionDef(self, node: ast.FunctionDef):
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and "__post_init__" not in self._func_stack):
            self.report(
                node,
                "object.__setattr__ outside __post_init__ mutates a "
                "frozen instance; messages are immutable once digested "
                "(the digest memo is never invalidated) -- initialise "
                "derived fields in __post_init__, or memoize derived "
                "values via crypto.primitives.cache_on_instance")
        self.generic_visit(node)
