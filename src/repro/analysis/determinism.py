"""Determinism rules: sim results must be pure functions of (code, spec).

The engine's bit-identity contract (serial == ``--jobs N`` == cache
replay, byte-identical traces, mergeable metrics) holds only if nothing
in the simulation core reads wall clock, draws from a shared or unseeded
RNG, or lets memory-address / hash-iteration order leak into scheduling
or results. These rules flag those patterns at the source level; the
telemetry triangle test then never has to catch them at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    SIM_SCOPE,
    Finding,
    ModuleInfo,
    Rule,
    in_scope,
    register,
)

#: Time-of-day reads: never acceptable in ``repro`` source (benchmark
#: wall-cost accounting uses the monotonic clock, and only outside the
#: simulation core).
_WALLCLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Monotonic/process clocks: fine for wall-cost metadata in the
#: orchestration layer (``RunResult.wall_s`` is ``compare=False``), but
#: inside the simulation core the only clock is the simulated cycle.
_MONOTONIC = frozenset({
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
})

#: Module-level ``random`` functions all share one hidden global RNG:
#: any caller perturbs every other caller's stream, so results stop
#: being a function of the caller's own seed.
_GLOBAL_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.betavariate", "random.triangular", "random.seed",
    "random.getrandbits", "random.randbytes",
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random", "numpy.random.choice", "numpy.random.shuffle",
    "numpy.random.permutation", "numpy.random.uniform", "numpy.random.normal",
    "numpy.random.seed", "numpy.random.standard_normal",
    "numpy.random.exponential", "numpy.random.poisson",
    "numpy.random.random_sample", "numpy.random.beta", "numpy.random.gamma",
})

#: RNG constructors that must be given an explicit seed argument.
_SEEDED_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
})


def _is_builtin_id_call(node: ast.AST, info: ModuleInfo) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and "id" not in info.imports
    )


def _contains_id_call(node: ast.AST, info: ModuleInfo) -> bool:
    return any(_is_builtin_id_call(child, info) for child in ast.walk(node))


def _is_set_expression(node: ast.AST, info: ModuleInfo) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (
            node.func.id in ("set", "frozenset")
            and node.func.id not in info.imports
        )
    return False


@register
class WallClockRule(Rule):
    id = "det-wallclock"
    family = "determinism"
    summary = (
        "no wall-clock reads: time-of-day anywhere in repro, any host "
        "clock inside the simulation core (sim/noc/core/cache/faults)"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if in_scope(info.module, ("repro.telemetry",)):
            return  # tel-wallclock-payload owns the telemetry layer.
        sim = in_scope(info.module, SIM_SCOPE)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = info.qualname(node.func)
            if origin in _WALLCLOCK:
                yield self.finding(
                    info, node,
                    f"{origin}() reads the wall clock; results and artifacts "
                    "must be functions of (code, spec) -- use sim time, or "
                    "the monotonic clock outside the simulation core",
                )
            elif sim and origin in _MONOTONIC:
                yield self.finding(
                    info, node,
                    f"{origin}() inside the simulation core; the only clock "
                    "here is the simulated cycle count",
                )


@register
class UnseededRandomRule(Rule):
    id = "det-unseeded-random"
    family = "determinism"
    summary = (
        "no shared/unseeded RNGs: module-level random.* calls, Random() "
        "or default_rng() without a seed, random.SystemRandom"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = info.qualname(node.func)
            if origin is None:
                continue
            if origin in _GLOBAL_RANDOM:
                yield self.finding(
                    info, node,
                    f"{origin}() draws from the hidden process-global RNG; "
                    "take a seeded random.Random and draw from it",
                )
            elif origin in _SEEDED_CONSTRUCTORS and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    info, node,
                    f"{origin}() without a seed is entropy-seeded; pass an "
                    "explicit seed derived from the spec",
                )
            elif origin == "random.SystemRandom":
                yield self.finding(
                    info, node,
                    "random.SystemRandom is OS-entropy backed and can never "
                    "replay; use a seeded random.Random",
                )


@register
class IdOrderRule(Rule):
    id = "det-id-order"
    family = "determinism"
    summary = (
        "no id()-derived ordering in the simulation core: id() in sort "
        "keys or collected into sets (addresses vary run to run)"
    )

    _SORTERS = ("sorted", "min", "max")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(info, node)
            elif isinstance(node, ast.SetComp):
                if _contains_id_call(node.elt, info):
                    yield self.finding(
                        info, node,
                        "set comprehension over id() values: iterating or "
                        "ordering it leaks memory-address order into the run",
                    )
            elif isinstance(node, ast.Set):
                if any(_contains_id_call(elt, info) for elt in node.elts):
                    yield self.finding(
                        info, node,
                        "set literal of id() values: iterating or ordering "
                        "it leaks memory-address order into the run",
                    )

    def _check_call(self, info: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        is_sorter = (
            isinstance(func, ast.Name)
            and func.id in self._SORTERS
            and func.id not in info.imports
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if is_sorter:
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = _contains_id_call(value, info) or (
                    isinstance(value, ast.Name)
                    and value.id == "id"
                    and "id" not in info.imports
                )
                if uses_id:
                    yield self.finding(
                        info, node,
                        "sorting by id() orders by memory address, which "
                        "varies across runs and processes; sort by a stable "
                        "field instead",
                    )
        if (
            isinstance(func, ast.Name)
            and func.id in ("set", "frozenset")
            and func.id not in info.imports
            and any(_contains_id_call(arg, info) for arg in node.args)
        ):
            yield self.finding(
                info, node,
                "building a set of id() values: iterating or ordering it "
                "leaks memory-address order into the run",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "add"
            and any(_is_builtin_id_call(arg, info) for arg in node.args)
        ):
            yield self.finding(
                info, node,
                "collecting id() values into a set: iterating or ordering "
                "it leaks memory-address order into the run",
            )


@register
class UnorderedReduceRule(Rule):
    id = "det-unordered-reduce"
    family = "determinism"
    summary = (
        "no reductions over set expressions in the simulation core: "
        "sum()/math.fsum() accumulate in hash order, so float results "
        "(and any order-sensitive fold) vary with the hash seed"
    )

    _REDUCERS = ("sum",)
    _QUAL_REDUCERS = frozenset({"math.fsum", "numpy.sum", "numpy.prod"})

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            named_reducer = (
                isinstance(func, ast.Name)
                and func.id in self._REDUCERS
                and func.id not in info.imports
            )
            qual_reducer = info.qualname(func) in self._QUAL_REDUCERS
            if not named_reducer and not qual_reducer:
                continue
            if _is_set_expression(node.args[0], info):
                yield self.finding(
                    info, node,
                    "reducing a set expression accumulates in hash order; "
                    "reduce a sorted sequence (or a list/tuple built in a "
                    "deterministic order) instead",
                )


#: numpy sort entry points whose default algorithm (introsort) is
#: unstable: equal keys land in an algorithm-dependent order. A
#: bit-identical simulation core may only sort with an explicit
#: ``kind="stable"`` (or ``"mergesort"``, its alias) so every tie-break
#: is part of the spec, not of the sort implementation.
_NP_SORTS = frozenset({
    "numpy.sort",
    "numpy.argsort",
    "numpy.ma.sort",
    "numpy.ma.argsort",
})


@register
class NumpyUnstableSortRule(Rule):
    id = "det-np-unstable-sort"
    family = "determinism"
    summary = (
        "no unstable numpy sorts in the simulation core: np.sort / "
        "np.argsort (and the .argsort() method) default to introsort, "
        'whose tie order is implementation-defined -- pass kind="stable"'
    )

    _STABLE_KINDS = ("stable", "mergesort")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = info.qualname(node.func)
            named = origin in _NP_SORTS
            # The .argsort() method form: the receiver's type is not
            # resolvable statically, but the name is numpy-specific
            # (list.sort is stable and has no argsort).
            method = (
                origin is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "argsort"
            )
            if (named or method) and not self._stable_kind(node):
                yield self.finding(
                    info, node,
                    "numpy's default sort kind is unstable, so equal keys "
                    "land in implementation-defined order; pass "
                    'kind="stable" (and make every tie-break explicit in '
                    "the key) or sort in plain Python",
                )

    def _stable_kind(self, node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "kind":
                value = keyword.value
                return (
                    isinstance(value, ast.Constant)
                    and value.value in self._STABLE_KINDS
                )
        return False


@register
class SetIterationRule(Rule):
    id = "det-set-iter"
    family = "determinism"
    summary = (
        "no direct iteration over set displays/constructors in the "
        "simulation core (hash order is not part of the spec)"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            iters: list[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.func.id not in info.imports
                and node.args
            ):
                iters.append(node.args[0])
            for candidate in iters:
                if _is_set_expression(candidate, info):
                    yield self.finding(
                        info, candidate,
                        "iterating a set expression directly: element order "
                        "follows hashes, not the spec -- sort it (or use a "
                        "dict/tuple, which preserve insertion order)",
                    )
