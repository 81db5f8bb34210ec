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
#: message class: ``Network.send``, the runtime's three send verbs and
#: its self-including fan-out wrapper.
_SEND_METHODS = frozenset({
    "send", "send_authenticated", "multicast_authenticated",
    "_fanout_with_self",
})

#: Decorators that bind a class to a policy.  ``register(policy)`` is
#: the registry primitive; ``register_*`` covers wrappers like
#: ``protocols.base.register_modeled``.
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


def _payload_candidates(args: List[ast.AST],
                        appended: Dict[str, List[ast.AST]]) -> List[ast.AST]:
    """The expressions among a send's ``args`` that may be payloads:
    each argument, the elements of a list or tuple literal (the items
    of ``send``), and what was appended to a list passed by name."""
    found: List[ast.AST] = []
    pending = list(args)
    seen: Set[str] = set()
    while pending:
        arg = pending.pop()
        if isinstance(arg, (ast.List, ast.Tuple)):
            pending.extend(arg.elts)
            continue
        found.append(arg)
        if isinstance(arg, ast.Name) and arg.id not in seen:
            seen.add(arg.id)
            pending.extend(appended.get(arg.id, ()))
    return found


#: Besides ``register`` and its wrappers (which also bind a policy), the
#: decorators that mark a class as a wire message: the layout generator
#: ``wire``, and ``dataclass``, which a message class written without
#: ``register`` may carry instead.
_MESSAGE_DECORATORS = frozenset({"wire", "dataclass"})


def _in_message_scope(module: ModuleInfo) -> bool:
    """Is this module under ``protocols/`` or ``smr/``, where wire
    messages are defined (``messages.py``, a baseline's ``replica.py``,
    ``protocols/base.py``, ...)?"""
    return "protocols" in module.parts[:-1] or "smr" in module.parts[:-1]


@rule
class UnregisteredWireMessageRule(Rule):
    """A sent wire message must register an authenticator.

    For every class decorated ``@register(...)``, ``@register_*``,
    ``@wire`` or ``@dataclass`` in any module under ``protocols/`` or
    ``smr/`` that appears as a payload of a transport send -- constructed (``Cls(...)`` or its
    ``Cls.signed(...)`` constructor) directly inside a
    ``send*``/``multicast*`` call, or assigned to a local that is then
    passed to one -- there must be a ``@register(<policy>)`` or
    ``@register_*`` decorator on the class.  Without it the send raises
    only at runtime, on whatever rarely-taken path first exercises the
    message.  A call after the definition does not count: ``register``
    lays the class out anew (``crypto.primitives.wire``) and binds the
    copy it returns, so the module's name would still be the unbound
    class.  Classes never observed in a send
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
        if _in_message_scope(module):
            self._collect_message_classes(module)
        self._collect_registrations(module.tree)
        self._collect_sends(module)
        return []

    def _collect_message_classes(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = [_callee_name(d.func if isinstance(d, ast.Call) else d)
                     for d in node.decorator_list]
            if any(name in _MESSAGE_DECORATORS or _is_register_name(name)
                   for name in names):
                self._message_classes.setdefault(
                    node.name, (module.path, node.lineno))

    def _collect_registrations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    name = _callee_name(
                        dec.func if isinstance(dec, ast.Call) else dec)
                    if _is_register_name(name):
                        self._registered.add(node.name)

    def _collect_sends(self, module: ModuleInfo) -> None:
        """Record which class names flow into transport send calls.

        Resolution is deliberately shallow: a direct ``Cls(...)``
        argument, a Name argument previously assigned from ``Cls(...)``
        (or from a helper call) in the same function body, plus one
        level of helper indirection -- a function whose ``return`` is a
        ``Cls(...)`` marks ``Cls`` sent wherever that helper's result is
        passed to a transport verb.  The ``(dst, payload)`` items of
        ``send`` count too, written as a list literal or appended
        (``items.append((dst, reply))``) to a list passed by name.
        That covers the codebase's send idioms; anything fancier still
        fails at runtime.
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
            appended: Dict[str, List[ast.AST]] = {}
            for stmt in ast.walk(node):
                func = getattr(stmt, "func", None)
                if (isinstance(func, ast.Attribute) and func.attr == "append"
                        and isinstance(func.value, ast.Name) and stmt.args):
                    appended.setdefault(func.value.id, []).append(
                        stmt.args[0])
            for stmt in ast.walk(node):
                if not (isinstance(stmt, ast.Call)
                        and _callee_name(stmt.func) in _SEND_METHODS):
                    continue
                where = (module.path, stmt.lineno)
                args = _payload_candidates(
                    list(stmt.args) + [kw.value for kw in stmt.keywords],
                    appended)
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
                f"message class {name} is passed to a transport "
                f"send ({sent_path}:{sent_line}) but never bound to an "
                f"authenticator policy by a @register decorator; the "
                f"runtime will refuse it at send time"))
        return findings


def _is_instance_dict(node: ast.AST) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars" and bool(node.args))


@rule
class FrozenMessageMutationRule(Rule):
    """``object.__setattr__`` outside ``__post_init__``, or a write into
    an instance dict outside the one layout generator, breaks the
    digest-cache immutability contract.

    The canonical encoder keeps every wire message's encoding on the
    instance, and carried digests (``Request.body_digest``, the
    ``payload_digest`` of signed messages) sit there too; none is ever
    invalidated: a message mutated after its first digest would keep
    authenticating under the stale digest, silently defeating content
    tampering detection.  Frozen dataclasses may
    initialise derived fields in ``__post_init__`` (the instance has
    not escaped yet), and ``crypto/primitives.py`` owns the sanctioned
    writers (the constructors ``wire`` generates, derived values and
    kept encodings); every other ``object.__setattr__`` is a
    frozen-instance mutation and is flagged.  Wire messages have no
    instance dict (``wire`` lays them out in slots), but other frozen
    dataclasses do: a write through ``x.__dict__`` or ``vars(x)`` --
    subscript assignment, ``del``, ``update`` or ``setdefault`` --
    outside ``wire`` is flagged, ``__post_init__`` included: it
    bypasses the frozen ``__setattr__`` just as well.
    """

    id = "A002"
    title = ("object.__setattr__ outside __post_init__, or an instance "
             "dict write, mutates a frozen message")

    #: The one function allowed to write an instance dict.
    INIT_HELPER = "wire"

    def __init__(self) -> None:
        super().__init__()
        self._func_stack: List[str] = []
        self._in_primitives = False

    def check_module(self, module: ModuleInfo):
        # The digest-cache implementation itself is the one sanctioned
        # object.__setattr__ site, and its init helper the one dict
        # writer.
        self._in_primitives = \
            module.parts[-2:] == ("crypto", "primitives.py")
        self._func_stack = []
        return super().check_module(module)

    def _check_dict_write(self, target: ast.AST, node: ast.AST) -> None:
        if not _is_instance_dict(target):
            return
        if self._in_primitives and self.INIT_HELPER in self._func_stack:
            return
        self.report(
            node,
            "write into an instance dict bypasses the frozen "
            "__setattr__; build wire messages with crypto.primitives.wire "
            "-- derived values are a wire class's derived_values")

    def visit_Assign(self, node: ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_dict_write(target.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        if isinstance(node.target, ast.Subscript):
            self._check_dict_write(node.target.value, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_dict_write(target.value, node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef):
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("update", "setdefault")):
            self._check_dict_write(func.value, node)
        if (isinstance(func, ast.Attribute) and not self._in_primitives
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and "__post_init__" not in self._func_stack):
            self.report(
                node,
                "object.__setattr__ outside __post_init__ mutates a "
                "frozen instance; messages are immutable once digested "
                "(the digest memo is never invalidated) -- initialise "
                "derived fields in __post_init__, or declare derived "
                "values in a wire class's derived_values")
        self.generic_visit(node)
