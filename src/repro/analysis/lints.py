"""Custom AST lint rules encoding this repo's determinism invariants.

Generic linters cannot know that *this* simulator's results are only
trustworthy if the engine never consults a wall clock, never draws from
an unseeded RNG, and never lets an observer mutate an event.  These
rules encode exactly those repo-specific invariants over the stdlib
``ast`` module (no third-party dependency), so a violation fails
``scripts/check_invariants.py`` — and CI — instead of waiting for a
golden trace to drift.

The rules (scope: ``repro/sim``, ``repro/scheduling``, ``repro/cluster``,
``repro/power`` — the engine core — unless noted):

``no-wallclock``
    No ``time``/``datetime`` imports or wall-clock calls.  Simulation
    time comes from the event heap alone; a stray ``time.time()`` makes
    runs time-of-day dependent.
``no-unseeded-rng``
    Only :mod:`repro.sim.rng` may import ``random`` (or touch
    ``numpy.random``/``secrets``).  All stochastic draws must flow
    through named, seeded substreams so traces replay bit-exactly.
``frozen-dataclass``
    Every dataclass in the engine core must be ``frozen=True``; the
    observer-facing lifecycle events in ``sim/events.py`` must also be
    ``slots=True``.  Mutable event/policy objects let instruments (or
    cache round-trips) perturb simulation state.
``no-silent-except``
    No bare ``except:`` and no ``except ...: pass`` in the engine core.
    A swallowed bookkeeping error corrupts live counts silently; the
    engine's contract is to raise ``SimulationError`` loudly.
``no-float-eq``
    No ``==``/``!=`` between floats in scheduling/profile code
    (``repro/scheduling`` plus ``repro/cluster/profile.py``), except
    against the exact sentinel literals ``0.0``/``1.0``/``inf`` that
    are assigned verbatim and never the result of arithmetic.
``registry-module``
    Every module that registers a component with
    ``@<REGISTRY>.register(...)`` must be listed in that registry's
    lazy ``modules=`` tuple in :mod:`repro.registry`, and the registry
    itself must be re-exported from ``repro/__init__``; otherwise the
    builder exists but is unreachable from the public surface.

A finding can be waived for one line with a trailing
``# det: allow(<rule-name>)`` comment; the waiver is itself visible in
review, which is the point.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Finding", "RULE_DOCS", "lint_file", "run_lints"]

#: Package-relative directories forming the deterministic engine core.
ENGINE_DIRS = ("sim", "scheduling", "cluster", "power")

#: The one module allowed to touch the stdlib RNG.
RNG_EXEMPT = ("sim/rng.py",)

#: Modules whose RNG use is forbidden outside :data:`RNG_EXEMPT`.
RNG_MODULES = ("random", "secrets")

#: Wall-clock modules forbidden in the engine core.
CLOCK_MODULES = ("time", "datetime")

#: Float-literal values equality against which is deterministic by
#: construction (assigned verbatim, never computed).
FLOAT_EQ_SENTINELS = (0.0, 1.0, -1.0, float("inf"), float("-inf"))

_ALLOW_RE = re.compile(r"#\s*det:\s*allow\(([a-z0-9_,\s-]+)\)")


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint violation, anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


RULE_DOCS: dict[str, str] = {
    "no-wallclock": "engine core must not consult the wall clock",
    "no-unseeded-rng": "only repro/sim/rng.py may touch randomness",
    "frozen-dataclass": "engine dataclasses frozen; lifecycle events also slotted",
    "no-silent-except": "no bare or silently-passing except in the engine core",
    "no-float-eq": "no float equality in scheduling/profile code (sentinels excepted)",
    "registry-module": "registered builders must be reachable from the public surface",
}


def _in_engine_core(rel: str) -> bool:
    return any(rel == d or rel.startswith(d + "/") for d in ENGINE_DIRS)


def _in_float_eq_scope(rel: str) -> bool:
    return rel.startswith("scheduling/") or rel == "cluster/profile.py"


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _walk_runtime(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that skips ``if TYPE_CHECKING:`` bodies.

    Typing-only imports never execute, so they cannot perturb runtime
    determinism; pruning them lets modules annotate with ``Random``
    etc. without waivers.
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if (
                isinstance(child, ast.If)
                and _is_type_checking_test(child.test)
            ):
                stack.extend(child.orelse)
                continue
            stack.append(child)


def _imported_roots(node: ast.AST) -> Iterator[tuple[str, int]]:
    """Yield ``(root module, line)`` for every runtime import."""
    for sub in _walk_runtime(node):
        if isinstance(sub, ast.Import):
            for alias in sub.names:
                yield alias.name.partition(".")[0], sub.lineno
        elif isinstance(sub, ast.ImportFrom):
            if sub.module is not None and sub.level == 0:
                yield sub.module.partition(".")[0], sub.lineno


# -- rule: no-wallclock --------------------------------------------------------
def _check_wallclock(tree: ast.Module, rel: str) -> Iterator[Finding]:
    if not _in_engine_core(rel):
        return
    for root, line in _imported_roots(tree):
        if root in CLOCK_MODULES:
            yield Finding(
                "no-wallclock", rel, line,
                f"import of {root!r}: simulation time must come from the "
                f"event heap, never the wall clock",
            )
    for node in _walk_runtime(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in CLOCK_MODULES
        ):
            yield Finding(
                "no-wallclock", rel, node.lineno,
                f"call to {node.func.value.id}.{node.func.attr}() in the engine core",
            )


# -- rule: no-unseeded-rng -----------------------------------------------------
def _check_rng(tree: ast.Module, rel: str) -> Iterator[Finding]:
    if not _in_engine_core(rel) or rel in RNG_EXEMPT:
        return
    for root, line in _imported_roots(tree):
        if root in RNG_MODULES:
            yield Finding(
                "no-unseeded-rng", rel, line,
                f"import of {root!r}: draw from a named repro.sim.rng "
                f"substream instead (only sim/rng.py may touch randomness)",
            )
    for node in _walk_runtime(tree):
        # numpy.random reached through any alias's attribute chain
        # (np.random.default_rng(), numpy.random.seed(), ...).
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "_np"):
                yield Finding(
                    "no-unseeded-rng", rel, node.lineno,
                    "numpy.random use in the engine core: route draws "
                    "through repro.sim.rng",
                )


# -- rule: frozen-dataclass ----------------------------------------------------
def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return decorator
    return None


def _decorator_flag(decorator: ast.expr, flag: str) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == flag:
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


def _check_frozen(tree: ast.Module, rel: str) -> Iterator[Finding]:
    if not _in_engine_core(rel):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None:
            continue
        if not _decorator_flag(decorator, "frozen"):
            yield Finding(
                "frozen-dataclass", rel, node.lineno,
                f"dataclass {node.name} in the engine core must be frozen=True "
                f"(mutable spec/event state breaks replay and cache round-trips)",
            )
        if rel == "sim/events.py" and not _decorator_flag(decorator, "slots"):
            yield Finding(
                "frozen-dataclass", rel, node.lineno,
                f"lifecycle event {node.name} must be slots=True (observers "
                f"must not be able to attach state to events)",
            )


# -- rule: no-silent-except ----------------------------------------------------
def _check_silent_except(tree: ast.Module, rel: str) -> Iterator[Finding]:
    if not _in_engine_core(rel):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                "no-silent-except", rel, node.lineno,
                "bare except: in the engine core (catches KeyboardInterrupt "
                "and hides bookkeeping bugs)",
            )
        if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            yield Finding(
                "no-silent-except", rel, node.lineno,
                "silently swallowed exception in the engine core: re-raise "
                "as SimulationError or handle explicitly",
            )


# -- rule: no-float-eq ---------------------------------------------------------
def _is_nonsentinel_float(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return node.value not in FLOAT_EQ_SENTINELS
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_nonsentinel_float(node.operand)
    return False


def _is_float_arithmetic(node: ast.expr) -> bool:
    """Whether ``node`` is arithmetic that plainly produces a float."""
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_float_arithmetic(node.left) or _is_float_arithmetic(node.right)
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    return False


def _check_float_eq(tree: ast.Module, rel: str) -> Iterator[Finding]:
    if not _in_float_eq_scope(rel):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_is_nonsentinel_float(operand) for operand in operands):
            yield Finding(
                "no-float-eq", rel, node.lineno,
                "equality against a computed-looking float literal: compare "
                "with a tolerance, or restructure around an exact sentinel",
            )
        elif sum(_is_float_arithmetic(operand) for operand in operands) >= 2:
            yield Finding(
                "no-float-eq", rel, node.lineno,
                "equality between two float arithmetic expressions: "
                "rounding makes this comparison platform-fragile",
            )


_FILE_RULES: tuple[Callable[[ast.Module, str], Iterator[Finding]], ...] = (
    _check_wallclock,
    _check_rng,
    _check_frozen,
    _check_silent_except,
    _check_float_eq,
)


# -- rule: registry-module (repo-level) ----------------------------------------
def _registry_modules(registry_source: str) -> dict[str, tuple[str, ...]]:
    """Map registry variable name -> declared lazy ``modules`` tuple."""
    tree = ast.parse(registry_source)
    declared: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        value = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if not (
            value is not None
            and isinstance(value, ast.Call)
            and (
                (isinstance(value.func, ast.Name) and value.func.id == "Registry")
                or (isinstance(value.func, ast.Subscript)
                    and isinstance(value.func.value, ast.Name)
                    and value.func.value.id == "Registry")
            )
        ):
            continue
        modules: tuple[str, ...] = ()
        for keyword in value.keywords:
            if keyword.arg == "modules" and isinstance(keyword.value, (ast.Tuple, ast.List)):
                modules = tuple(
                    element.value
                    for element in keyword.value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
        for target in targets:
            if isinstance(target, ast.Name):
                declared[target.id] = modules
    return declared


def _registrations(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Yield ``(registry variable, line)`` for each ``@X.register(...)``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for decorator in node.decorator_list:
            if (
                isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Attribute)
                and decorator.func.attr == "register"
                and isinstance(decorator.func.value, ast.Name)
            ):
                yield decorator.func.value.id, decorator.lineno


def check_registry_surface(package_root: Path) -> Iterator[Finding]:
    """Repo-level rule: registered builders reachable from ``repro``.

    A ``@SCHEDULERS.register("x")`` in a module the registry never
    imports is a silent no-op: the name is unknown until something else
    happens to import the module, which is exactly the import-order
    nondeterminism the registries exist to prevent.
    """
    registry_path = package_root / "registry.py"
    declared = _registry_modules(registry_path.read_text(encoding="utf-8"))
    init_source = (package_root / "__init__.py").read_text(encoding="utf-8")
    init_tree = ast.parse(init_source)
    init_imports: set[str] = set()
    for node in ast.walk(init_tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.registry":
            init_imports.update(alias.name for alias in node.names)
    for name in declared:
        if name not in init_imports:
            yield Finding(
                "registry-module", "registry.py", 1,
                f"registry {name} is not re-exported from repro/__init__",
            )
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel == "registry.py":
            continue
        module = "repro." + rel[:-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for registry_name, line in _registrations(tree):
            if registry_name not in declared:
                continue  # a local/test registry, not one of the globals
            if module not in declared[registry_name]:
                yield Finding(
                    "registry-module", rel, line,
                    f"module {module} registers on {registry_name} but is "
                    f"missing from its modules=() tuple in repro/registry.py "
                    f"— the registration never loads lazily",
                )


# -- driver --------------------------------------------------------------------
def _waived_lines(source: str) -> dict[int, set[str]]:
    waivers: dict[int, set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            waivers[number] = rules
    return waivers


def lint_file(path: Path, rel: str) -> list[Finding]:
    """All findings for one file (waivers already applied)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    waivers = _waived_lines(source)
    findings = []
    for rule in _FILE_RULES:
        for finding in rule(tree, rel):
            if finding.rule in waivers.get(finding.line, ()):
                continue
            findings.append(finding)
    return findings


def run_lints(package_root: Path | str | None = None) -> list[Finding]:
    """Lint the whole ``repro`` package; returns findings sorted by file.

    ``package_root`` is the directory containing ``repro``'s
    ``__init__.py`` (defaults to the installed package's own location,
    so the checker validates the code that actually imports).
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    root = Path(package_root)
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(path, rel))
    findings.extend(check_registry_surface(root))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
