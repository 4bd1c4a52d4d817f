"""The repo-specific lint rules (RL001-RL003, RL005, RL006) and their registry.

Each rule protects one of the solver invariants the test suite can only
catch indirectly (and expensively) through golden regressions:

* **RL001 cache-key completeness** — call sites of a registered
  :class:`repro.cache.LRUCache` must build keys that thread a
  ``cache_key()`` value (directly, through a same-module helper whose body
  contains one, or through a local name assigned from either), so
  entries computed under different solver tolerances can never alias.
* **RL002 column immutability** — no attribute or subscript stores into
  :class:`~repro.network.provider.Population` column views (or any object
  obtained from ``.alphas`` / ``.theta_hats`` / ...), and no
  ``setflags(write=True)``: value-based ``fingerprint()`` cache identity is
  only sound while columns stay frozen.
* **RL003 nondeterminism ban** (``runner/`` + ``simulation/``) — no wall
  clocks (``time.time``), no module-level ``random`` state, no legacy
  ``np.random.*`` globals (seeded ``default_rng`` generators are fine), no
  direct iteration over sets, and no ``json.dumps`` without
  ``sort_keys=True``: artifact bytes must be identical across processes
  and worker counts.
* **RL005 float-equality ban** (``core/`` + ``network/``) — no ``==`` /
  ``!=`` against non-zero float literals in solver paths; bracket and
  convergence logic must compare against tolerances.  Comparisons against
  exactly ``0.0`` are exempt: zero is an exact sentinel (``kappa == 0.0``,
  ``price == 0.0``) that short-circuits degenerate cases bit-exactly.
* **RL006 tolerance literals** (``core/`` + ``network/``) — numeric
  tolerance constants (``|x| < 1e-2``) may not appear inline inside
  function bodies; they must come from :class:`SolverConfig`, a named
  module-level constant, or a keyword default in the function signature,
  so every tolerance is discoverable and overridable.

The checks are deliberately heuristic AST passes, tuned to this codebase's
idioms; each rule's fixture corpus (``tests/lint/fixtures/``) pins the
exact behaviour.  False positives are suppressed inline with
``# repro-lint: disable=RL###`` plus a justification (see
``CONTRIBUTING.md``).  Codes are never reused: RL004 (njit kernel purity)
was retired with the kernel it checked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

__all__ = ["Finding", "Rule", "RULES", "rule_codes", "get_rule"]

#: ``(line, column, message)`` triples produced by a rule's check function.
RawFinding = Tuple[int, int, str]

CheckFunction = Callable[[ast.Module, PurePath], Iterator[RawFinding]]


@dataclass(frozen=True)
class Finding:
    """One lint violation, pinned to a source location."""

    path: str
    line: int
    column: int
    code: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (see the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Finding":
        """Inverse of :meth:`to_dict` (used by the JSON round-trip tests)."""
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[call-overload]
            column=int(payload["column"]),  # type: ignore[call-overload]
            code=str(payload["code"]),
            message=str(payload["message"]),
        )

    def render(self) -> str:
        """The canonical one-line text form ``path:line:col: CODE message``."""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.code} {self.message}")


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``path_components`` scopes the rule to files with at least one matching
    path component (empty = every file).
    """

    code: str
    name: str
    summary: str
    check: CheckFunction
    path_components: Tuple[str, ...] = ()

    def applies_to(self, path: PurePath) -> bool:
        return (not self.path_components
                or not set(path.parts).isdisjoint(self.path_components))


RULES: Dict[str, Rule] = {}


def _register(rule: Rule) -> Rule:
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    RULES[rule.code] = rule
    return rule


def rule_codes() -> Tuple[str, ...]:
    """Every registered rule code, sorted."""
    return tuple(sorted(RULES))


def get_rule(code: str) -> Rule:
    """The rule registered under ``code``; raises ``KeyError`` if unknown."""
    return RULES[code]


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _functions(module: ast.Module) -> Iterator[FunctionNode]:
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _callee_name(call: ast.Call) -> Optional[str]:
    """The unqualified name a call targets (``f(...)`` or ``x.f(...)``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _local_assignments(func: FunctionNode) -> Dict[str, ast.expr]:
    """Last value expression assigned to each simple local name."""
    assigns: Dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)
              and node.value is not None):
            assigns[node.target.id] = node.value
    return assigns


# --------------------------------------------------------------------------- #
# RL001 — cache-key completeness
# --------------------------------------------------------------------------- #
_CACHE_FACTORY = "LRUCache"
_CACHE_METHODS = frozenset({"get_or_compute", "get", "put"})


def _registered_cache_names(module: ast.Module) -> FrozenSet[str]:
    """Module-level names bound to ``LRUCache(...)`` instances."""
    names = set()
    for node in module.body:
        value = getattr(node, "value", None)
        if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(value, ast.Call)
                and _callee_name(value) == _CACHE_FACTORY):
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _cache_key_helpers(module: ast.Module) -> FrozenSet[str]:
    """Functions/methods whose body references a ``cache_key`` attribute."""
    helpers = set()
    for func in _functions(module):
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr == "cache_key":
                helpers.add(func.name)
                break
    return frozenset(helpers)


def _derives_cache_key(expr: ast.expr, helpers: AbstractSet[str],
                       assigns: Mapping[str, ast.expr],
                       seen: FrozenSet[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "cache_key":
            return True
        if isinstance(node, ast.Call) and _callee_name(node) in helpers:
            return True
    for node in ast.walk(expr):
        if (isinstance(node, ast.Name) and node.id in assigns
                and node.id not in seen):
            if _derives_cache_key(assigns[node.id], helpers, assigns,
                                  seen | {node.id}):
                return True
    return False


def _check_rl001(module: ast.Module, path: PurePath) -> Iterator[RawFinding]:
    caches = _registered_cache_names(module)
    if not caches:
        return
    helpers = _cache_key_helpers(module)
    module_assigns: Dict[str, ast.expr] = {}
    for node in module.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_assigns[target.id] = node.value
    scopes: list[tuple[ast.AST, Mapping[str, ast.expr]]] = [
        (func, _local_assignments(func)) for func in _functions(module)
    ]
    seen_calls: set[int] = set()
    scopes.append((module, module_assigns))
    for scope, assigns in scopes:
        for node in ast.walk(scope):
            if id(node) in seen_calls:
                continue
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CACHE_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in caches
                    and node.args):
                continue
            seen_calls.add(id(node))
            key_expr = node.args[0]
            if not _derives_cache_key(key_expr, helpers, assigns, frozenset()):
                yield (node.lineno, node.col_offset,
                       f"cache key passed to {node.func.value.id}."
                       f"{node.func.attr}() does not thread a cache_key() "
                       "value; keys of registered caches must include "
                       "SolverConfig.cache_key() (directly or via a helper) "
                       "so tolerance variants never alias")


_register(Rule(
    code="RL001",
    name="cache-key-completeness",
    summary="registered-cache call sites must thread config.cache_key()",
    check=_check_rl001,
))


# --------------------------------------------------------------------------- #
# RL002 — column immutability
# --------------------------------------------------------------------------- #
#: The columnar Population's backing columns plus the frozen equilibrium
#: views derived from them.
_COLUMN_ATTRS = frozenset({
    "alphas", "theta_hats", "betas", "revenue_rates", "utility_rates",
    "thetas", "demands", "common_caps",
})
#: Columns tracked through local-name aliases (the strict Population set).
_ALIAS_COLUMN_ATTRS = frozenset({
    "alphas", "theta_hats", "betas", "revenue_rates", "utility_rates",
})


def _derives_from_column(expr: ast.expr, assigns: Mapping[str, ast.expr],
                         seen: FrozenSet[str]) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr in _ALIAS_COLUMN_ATTRS
    if isinstance(expr, ast.Subscript):
        return _derives_from_column(expr.value, assigns, seen)
    if (isinstance(expr, ast.Name) and expr.id in assigns
            and expr.id not in seen):
        return _derives_from_column(assigns[expr.id], assigns,
                                    seen | {expr.id})
    return False


def _is_write_enable(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "setflags"):
        return False
    for keyword in call.keywords:
        if (keyword.arg == "write" and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True):
            return True
    if call.args and isinstance(call.args[0], ast.Constant):
        return call.args[0].value is True
    return False


def _check_rl002(module: ast.Module, path: PurePath) -> Iterator[RawFinding]:
    for node in ast.walk(module):
        if isinstance(node, ast.Call) and _is_write_enable(node):
            yield (node.lineno, node.col_offset,
                   "setflags(write=True) re-enables writes on a frozen "
                   "array; Population columns and cached equilibria must "
                   "stay immutable for fingerprint()-based caching")
    for func in _functions(module):
        assigns = _local_assignments(func)
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in _COLUMN_ATTRS
                        and not (isinstance(target.value, ast.Name)
                                 and target.value.id == "self")):
                    yield (target.lineno, target.col_offset,
                           f"assignment to .{target.attr} rebinds a "
                           "Population/equilibrium column from outside the "
                           "owning object; columns are immutable views")
                elif (isinstance(target, ast.Subscript)
                      and _derives_from_column(target.value, assigns,
                                               frozenset())):
                    yield (target.lineno, target.col_offset,
                           "subscript store into a Population column view "
                           "(or a local alias of one); copy the column "
                           "before mutating")


_register(Rule(
    code="RL002",
    name="column-immutability",
    summary="no stores into Population column views; no setflags(write=True)",
    check=_check_rl002,
))


# --------------------------------------------------------------------------- #
# RL003 — nondeterminism ban in runner/ + simulation/
# --------------------------------------------------------------------------- #
_WALL_CLOCKS = frozenset({"time", "time_ns"})
_NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence"})
_NUMPY_NAMES = frozenset({"np", "numpy"})


def _is_setish(expr: ast.expr, assigns: Mapping[str, ast.expr],
               seen: FrozenSet[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")):
        return True
    if (isinstance(expr, ast.Name) and expr.id in assigns
            and expr.id not in seen):
        return _is_setish(assigns[expr.id], assigns, seen | {expr.id})
    return False


def _check_rl003(module: ast.Module, path: PurePath) -> Iterator[RawFinding]:
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCKS:
                        yield (node.lineno, node.col_offset,
                               f"wall clock time.{alias.name} is "
                               "nondeterministic; use time.perf_counter for "
                               "durations and keep wall times out of "
                               "artifacts")
            elif node.module == "random":
                yield (node.lineno, node.col_offset,
                       "module-level random state is nondeterministic "
                       "across processes; use an explicit seeded "
                       "np.random.default_rng(seed) generator")
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                    and node.attr in _WALL_CLOCKS):
                yield (node.lineno, node.col_offset,
                       f"wall clock time.{node.attr} is nondeterministic; "
                       "use time.perf_counter for durations and keep wall "
                       "times out of artifacts")
            elif (isinstance(node.value, ast.Name)
                  and node.value.id == "random"):
                yield (node.lineno, node.col_offset,
                       f"random.{node.attr} uses the global random state; "
                       "use an explicit seeded np.random.default_rng(seed) "
                       "generator")
            elif (isinstance(node.value, ast.Attribute)
                  and node.value.attr == "random"
                  and isinstance(node.value.value, ast.Name)
                  and node.value.value.id in _NUMPY_NAMES
                  and node.attr not in _NP_RANDOM_ALLOWED):
                yield (node.lineno, node.col_offset,
                       f"legacy np.random.{node.attr} draws from the global "
                       "numpy state; use an explicit seeded "
                       "np.random.default_rng(seed) generator")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "dumps"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "json"):
            sort_keys = [keyword for keyword in node.keywords
                         if keyword.arg == "sort_keys"]
            is_sorted = bool(sort_keys) and all(
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True for keyword in sort_keys)
            if not is_sorted:
                yield (node.lineno, node.col_offset,
                       "json.dumps without sort_keys=True is sensitive to "
                       "dict insertion order; artifact/manifest bytes must "
                       "be canonical")
    for func in _functions(module):
        assigns = _local_assignments(func)
        iters: list[ast.expr] = []
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for expr in iters:
            if _is_setish(expr, assigns, frozenset()):
                yield (expr.lineno, expr.col_offset,
                       "iterating a set has no deterministic order; wrap it "
                       "in sorted(...) before it can feed artifact or "
                       "manifest emission")


_register(Rule(
    code="RL003",
    name="nondeterminism-ban",
    summary="no wall clocks, global RNG state, set iteration or unsorted "
            "JSON in runner/ + simulation/ + service/",
    check=_check_rl003,
    path_components=("runner", "simulation", "service"),
))


# --------------------------------------------------------------------------- #
# RL005 — float-equality ban in core/ + network/
# --------------------------------------------------------------------------- #
def _nonzero_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and node.value != 0.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        return _nonzero_float_literal(node.operand)
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_nonzero_float_literal(element) for element in node.elts)
    return False


def _check_rl005(module: ast.Module, path: PurePath) -> Iterator[RawFinding]:
    for node in ast.walk(module):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if (_nonzero_float_literal(operands[index])
                    or _nonzero_float_literal(operands[index + 1])):
                yield (node.lineno, node.col_offset,
                       "exact ==/!= against a non-zero float literal in a "
                       "solver path; compare against a tolerance (exact "
                       "0.0 sentinels are exempt)")


_register(Rule(
    code="RL005",
    name="float-equality-ban",
    summary="no ==/!= against non-zero float literals in core/ + network/",
    check=_check_rl005,
    path_components=("core", "network"),
))


# --------------------------------------------------------------------------- #
# RL006 — tolerance literals must be named
# --------------------------------------------------------------------------- #
#: Literals smaller than this (in magnitude) inside a function body are
#: treated as inline tolerance/guard constants.
_TOLERANCE_THRESHOLD = 1e-2


def _default_value_nodes(module: ast.Module) -> FrozenSet[int]:
    """Node ids of every expression inside a function signature default."""
    ids = set()
    for func in _functions(module):
        defaults = list(func.args.defaults)
        defaults.extend(d for d in func.args.kw_defaults if d is not None)
        for default in defaults:
            for node in ast.walk(default):
                ids.add(id(node))
    return frozenset(ids)


def _check_rl006(module: ast.Module, path: PurePath) -> Iterator[RawFinding]:
    exempt = _default_value_nodes(module)
    flagged: set[int] = set()
    for func in _functions(module):
        for statement in func.body:
            for node in ast.walk(statement):
                if id(node) in flagged or id(node) in exempt:
                    continue
                if not (isinstance(node, ast.Constant)
                        and isinstance(node.value, float)):
                    continue
                magnitude = abs(node.value)
                if 0.0 < magnitude < _TOLERANCE_THRESHOLD:
                    flagged.add(id(node))
                    yield (node.lineno, node.col_offset,
                           f"inline tolerance literal {node.value!r}; hoist "
                           "it to a named module-level constant or take it "
                           "from SolverConfig so tolerances are "
                           "discoverable and overridable")


_register(Rule(
    code="RL006",
    name="named-tolerances",
    summary="tolerance literals in core/ + network/ must be named "
            "constants or SolverConfig fields",
    check=_check_rl006,
    path_components=("core", "network"),
))
