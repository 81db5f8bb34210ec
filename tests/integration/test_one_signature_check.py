"""XPaxos has one place that says what a signature covers and one function
that checks it (docs/authenticators.md, "Signed payloads").

An AST sweep, so that a hand-rolled check cannot come back unnoticed: a
``keystore.verify*`` call outside :func:`verify_signed` decides for itself
whether the signer is tied to the sender the message names -- which is how
the forgeries ``tests/xpaxos/test_signed_messages.py`` pins got in.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
XPAXOS = SRC / "protocols" / "xpaxos"

#: The only functions under ``protocols/xpaxos/`` that may call the
#: keystore's verify primitives: the shared verifier, the client-request
#: check, and the checkpoint-proof check (bare signatures, uncharged).
VERIFY_CALLERS = {"verify_signed", "_verify_request", "proof_valid"}


def keystore_verify_callers(tree):
    """Names of the functions that call ``<...>keystore.verify*(...)``."""
    callers = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith("verify")
                    and "keystore" in ast.unparse(node.func.value)):
                callers.add(function.name)
    return callers


def test_sweep_sees_a_hand_rolled_check():
    tree = ast.parse(
        "def _on_chkpt(self, m):\n"
        "    if self.keystore.verify_digest(m.sig, m.payload_digest):\n"
        "        self._record_chkpt(m)\n")
    assert keystore_verify_callers(tree) == {"_on_chkpt"}


def test_xpaxos_verifies_signatures_in_one_place():
    callers = set()
    for path in sorted(XPAXOS.glob("*.py")):
        callers |= keystore_verify_callers(ast.parse(path.read_text()))
    assert callers == VERIFY_CALLERS


def test_no_payload_helper_is_left_or_called():
    messages = ast.parse((XPAXOS / "messages.py").read_text())
    helpers = [node.name for node in messages.body
               if isinstance(node, ast.FunctionDef)
               and node.name.endswith("_payload")]
    assert helpers == []
    calls = []
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", ""))
                if name.endswith("_payload"):
                    calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert calls == []
