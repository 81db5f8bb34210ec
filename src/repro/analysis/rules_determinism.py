"""D-series: determinism rules.

Every experiment in this repository must replay byte-identically from
its seed (the scenario golden, the parallel-merge contract and the
seed-oracle tests all depend on it).  The runtime already
guards part of this -- ``guard_global_rng`` raises on a module-level RNG
draw inside a matrix cell -- but a static pass catches the whole class
of bug at lint time, before an 85-cell matrix run ever starts.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, path_endswith, rule

#: ``random`` module attributes that draw from (or reseed) the shared
#: global stream.  ``Random``/``getstate``/``setstate`` are deliberately
#: absent: constructing a seeded instance is the *sanctioned* idiom, and
#: the parallel executor snapshots state without drawing.
_GLOBAL_DRAWS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "binomialvariate", "seed",
})

#: Entropy sources that can never be replayed from a seed at all.
_ENTROPY_CALLS = frozenset({
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("random", "SystemRandom"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("secrets", "token_urlsafe"),
    ("secrets", "randbelow"),
    ("secrets", "choice"),
    ("secrets", "randbits"),
})

#: Wall-clock reads.  Virtual time comes from ``Simulator.now``.
_WALL_CLOCK = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
})

#: ``datetime``-style "what time is it" constructors.
_NOW_ATTRS = frozenset({"now", "utcnow", "today"})

#: The seeded-stream helpers themselves.
_RNG_ALLOWED = ("repro/common/rng.py",)


def _dotted_pair(func: ast.AST):
    """``("mod", "attr")`` for a ``mod.attr`` callee, else ``None``."""
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)):
        return (func.value.id, func.attr)
    return None


@rule
class GlobalRngRule(Rule):
    """Module-level RNG draws escape the seeded-stream discipline.

    Every stochastic component must draw from a ``random.Random`` stream
    derived via ``repro.common.rng.stream`` -- the module-level
    ``random.*`` functions share one hidden global state, so any draw
    perturbs every other undisciplined drawer, and forked ``--jobs``
    workers inherit (and then diverge from) the parent's state.  The
    runtime guard (``guard_global_rng``) catches this only when the
    offending path actually executes inside a cell; this rule catches it
    in any code path at lint time.  ``os.urandom``/``uuid.uuid4``/
    ``secrets`` are flagged unconditionally: they cannot be replayed
    from a seed at all.
    """

    id = "D001"
    title = "module-level RNG draw or unseedable entropy source"

    def visit_Call(self, node: ast.Call) -> None:
        pair = _dotted_pair(node.func)
        if pair is not None and not path_endswith(self._module,
                                                  *_RNG_ALLOWED):
            mod, attr = pair
            if mod == "random" and attr in _GLOBAL_DRAWS:
                self.report(node, f"module-level random.{attr}() draws "
                                  "from the shared global stream; derive "
                                  "a stream with repro.common.rng.stream")
            elif pair in _ENTROPY_CALLS:
                self.report(node, f"{mod}.{attr}() is unseedable "
                                  "entropy; runs using it cannot be "
                                  "replayed from a seed")
        self.generic_visit(node)


@rule
class WallClockRule(Rule):
    """Wall-clock reads.

    Simulated components must take time from ``Simulator.now`` (virtual
    milliseconds); a host-clock read smuggles nondeterminism into
    schedules, timeouts or serialized output.  Code whose job is
    measuring real seconds (``benchmarks/e2e/clock.py``) says so at the
    call with ``# repro: lint-ok[D002]`` and a why-comment.
    """

    id = "D002"
    title = "wall-clock read"

    def visit_Call(self, node: ast.Call) -> None:
        pair = _dotted_pair(node.func)
        if pair in _WALL_CLOCK:
            self.report(node, f"{pair[0]}.{pair[1]}() reads the host "
                              "clock; simulated code must use "
                              "Simulator.now")
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _NOW_ATTRS
                and self._names_datetime(node.func.value)):
            self.report(node, f"datetime.{node.func.attr}() reads "
                              "the host clock; simulated code must "
                              "use Simulator.now")
        self.generic_visit(node)

    @staticmethod
    def _names_datetime(value: ast.AST) -> bool:
        if isinstance(value, ast.Name):
            return value.id in ("datetime", "date")
        if isinstance(value, ast.Attribute):
            return value.attr in ("datetime", "date")
        return False


def _is_set_producing(node: ast.AST) -> bool:
    """Does this expression evaluate to a set (hash-ordered)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        # set algebra: ``set(a) & set(b)``, ``seen - done``, ... -- the
        # result is a set whenever either operand provably is one.
        return (_is_set_producing(node.left)
                or _is_set_producing(node.right))
    return False


@rule
class SetIterationRule(Rule):
    """Iterating a set feeds hash order into downstream behaviour.

    Set iteration order depends on element hashes -- for ``str`` keys
    that means ``PYTHONHASHSEED``, so the same seed can schedule, grade
    or serialize in a different order on a different host.  Any ``for``
    loop or comprehension whose iterable is provably a set (literal,
    ``set()``/``frozenset()`` call, set comprehension, or set algebra
    over one) must wrap it in ``sorted(...)`` to pin the order.
    """

    id = "D003"
    title = "iteration over an unordered set (PYTHONHASHSEED hazard)"

    def _check_iter(self, it: ast.AST) -> None:
        if _is_set_producing(it):
            self.report(it, "iteration order over a set is "
                            "hash-dependent; wrap the iterable in "
                            "sorted(...) to pin it")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp
