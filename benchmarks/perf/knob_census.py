"""Count the independently settable values under ``src/`` and who sets them.

ROADMAP north star 2 gates on "fewer independently settable values than
today"; this report makes that number reproducible. It names no
parameter: everything it prints is read from the tree.

A **knob** is a defaulted parameter of a public class's ``__init__``, a
defaulted parameter of a public module-level function, or a defaulted
field of a public dataclass, declared under ``src/``. A knob is **passed**
when some call under ``src/``, ``examples/``, ``benchmarks/``,
``.github/`` or ``tests/`` reaches its owner by name (``Owner(...)``,
``mod.Owner(...)``, a subclass's name, or ``super().__init__(...)`` inside
a subclass) and either names it as a keyword or supplies enough positional
arguments to cover it; a dataclass field also counts as passed when a
``replace(...)`` call anywhere names it. ``**splat`` arguments are
opaque and count for nothing.

Three readings are printed:

* **never passed** -- the strict reading above. It over-counts: a knob
  reached only through a forwarding layer (``make_engine(**kwargs)``,
  ``controller_kwargs={...}``) is listed although it is in use.
* **conservative** -- additionally treats as a use every identifier-shaped
  string literal or dict key (``dict(name=...)`` included) and every
  attribute store on something other than ``self`` with the knob's name,
  anywhere in the scanned roots. It under-counts: an unrelated string that
  happens to spell a knob's name hides it.
* **never passed outside tests/** -- the strict reading with ``tests/``
  dropped from the calling roots: a knob only a test sets is a parameter
  no program uses. Its list names only the knobs the strict list does
  not, i.e. those that tests alone pass.

The truth is between the two, and only reading the call sites closes the
gap. This is a report, not a gate; the gate is
``tests/test_public_api.py::test_every_config_field_is_set_by_some_caller``.

A second pass censuses **definitions**: every public top-level function
or class under ``src/``. A definition is **reached** when a ``Name``
load, an ``Attribute`` name, a ``from ... import`` name or an
identifier-shaped string literal spells it in a Python file under
``examples/`` or ``benchmarks/``, any word of any file under
``.github/`` spells it, or ``src/`` spells it outside the definition's
own body. Reach from ``src/`` is transitive: a
reference inside a top-level function, class or assignment counts only
once that definition is reached itself, so a helper only dead code calls
is dead too, and a class a reached table names (``STRATEGIES``) is
reached. Module-level imports (the ``__init__`` re-exports among them)
are bindings, not uses, and count for nothing, as does a package's
``__all__``; other module-level statements, a plain module's ``__all__``
among them, are always reached. Matching is by name, so a
same-named method or attribute anywhere in the reaching code hides a
dead function. Whatever is unreached and not in
``DEFINITION_EXEMPTIONS`` only tests reach; the gate is
``tests/test_public_api.py::test_every_public_definition_is_reached_outside_tests``.

A third pass censuses **methods**: every public method (properties
included) of a public top-level class under ``src/``. Each public method
of any class is its own node in the same reach graph, keyed by its name:
it is reached when the roots above spell that name, and the names its
body spells count only once it is reached, so a helper only a test-only
method calls is dead too. A class's own node keeps the rest of its body
(class attributes, private and dunder methods). A method of a class
with a base from outside ``src/`` (``BaseHTTPRequestHandler``,
``logging.Formatter``) is reached, because that base calls it by name;
the interface markers in ``MARKER_BASES`` call nothing and do not count.
Whatever is unreached and not in ``METHOD_EXEMPTIONS`` only tests call;
the gate is
``tests/test_public_api.py::test_every_public_method_is_reached_outside_tests``.

Usage::

    python benchmarks/perf/knob_census.py [CHECKOUT]
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set

REPO_ROOT = Path(__file__).resolve().parents[2]
DECLARING_ROOT = "src"
CALLING_ROOTS = ("src", "examples", "benchmarks", ".github", "tests")
TEST_ROOT = "tests"
REACHING_ROOTS = ("examples", "benchmarks", ".github")

#: public definitions that only tests reach, each with the reason it stays
DEFINITION_EXEMPTIONS = {
    "repro.control.analysis.is_stable":
        "the oracle tests/core/test_pole_placement.py checks design_gains "
        "against",
    "repro.workloads.web.load_ita_trace":
        "parses the paper's LBL-PKT-4 trace, input from outside the "
        "program; EXPERIMENTS.md names it as the route to the real workload",
}

#: public methods that only tests call, each with the reason it stays
METHOD_EXEMPTIONS = {
    "repro.control.transfer_function.TransferFunction.dc_gain":
        "the oracle tests/control checks the closed loop's unity gain "
        "(Eq. 19) against",
    "repro.core.pole_placement.ControllerGains.closed_loop_poles":
        "the oracle tests/core/test_pole_placement.py checks the poles at "
        "0.7 against",
    "repro.dsms.network.QueryNetwork.expected_cost":
        "the oracle tests/dsms/test_network.py checks PAPER.md's "
        "c = 1/190 s against",
    "repro.dsms.network.QueryNetwork.expected_visits":
        "the selectivity-weighted visit counts expected_cost sums",
}

#: bases that declare an interface but call none of its methods
MARKER_BASES = {"ABC", "Protocol"}


class Knob(NamedTuple):
    """One defaulted parameter or field (``position is None``: keyword-only)."""

    path: str
    owner: str
    name: str
    position: Optional[int]
    is_field: bool


class Uses(NamedTuple):
    """What the calling roots pass, by callee name."""

    keywords: Dict[str, Set[str]]
    depth: Dict[str, int]
    replaced: Set[str]
    loose: Set[str]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(args: ast.arguments, skip_self: bool) -> Iterator[tuple]:
    """``(name, position)`` of each parameter that has a default."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index - (1 if skip_self else 0)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _base_names(cls: ast.ClassDef) -> List[str]:
    return [base.attr if isinstance(base, ast.Attribute)
            else getattr(base, "id", "") for base in cls.bases]


def declared_knobs(root: Path) -> tuple:
    """Every knob under ``root/src`` and the subclass map of its classes."""
    knobs: List[Knob] = []
    bases: Dict[str, List[str]] = {}
    for path in sorted((root / DECLARING_ROOT).rglob("*.py")):
        rel = str(path.relative_to(root))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    knobs.extend(Knob(rel, node.name, name, pos, False)
                                 for name, pos in _defaulted(node.args, False))
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = _base_names(node)
                if node.name.startswith("_"):
                    continue
                dataclass = _is_dataclass(node)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name == "__init__":
                        knobs.extend(
                            Knob(rel, node.name, name, pos, False)
                            for name, pos in _defaulted(item.args, True))
                    elif dataclass and isinstance(item, ast.AnnAssign) \
                            and item.value is not None \
                            and isinstance(item.target, ast.Name) \
                            and "ClassVar" not in ast.dump(item.annotation):
                        knobs.append(Knob(rel, node.name, item.target.id,
                                          None, True))
    return knobs, bases


def _ancestors(name: str, bases: Dict[str, List[str]]) -> Set[str]:
    seen: Set[str] = set()
    stack = [name]
    while stack:
        for base in bases.get(stack.pop(), ()):
            if base and base not in seen:
                seen.add(base)
                stack.append(base)
    return seen


class _CallCollector(ast.NodeVisitor):
    """Record every call's keywords and positional depth by callee name."""

    def __init__(self, uses: Uses, bases: Dict[str, List[str]]):
        self.uses = uses
        self.bases = bases
        self.classes: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases.setdefault(node.name, _base_names(node))
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def _callees(self, func: ast.expr) -> Set[str]:
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if name == "__init__" and self.classes:
                # super().__init__(...) / Base.__init__(self, ...): a call
                # to every ancestor of the enclosing class
                return _ancestors(self.classes[-1], self.bases)
        else:
            return set()
        return {name} | _ancestors(name, self.bases)

    def visit_Call(self, node: ast.Call) -> None:
        keywords = {kw.arg for kw in node.keywords if kw.arg}
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        depth = 1 << 30 if starred else len(node.args)
        callees = self._callees(node.func)
        for callee in callees:
            self.uses.keywords.setdefault(callee, set()).update(keywords)
            self.uses.depth[callee] = max(self.uses.depth.get(callee, 0),
                                          depth)
        if "replace" in callees:
            self.uses.replaced.update(keywords)
        if "dict" in callees:
            self.uses.loose.update(keywords)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.uses.loose.add(node.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Store) and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"):
            self.uses.loose.add(node.attr)
        self.generic_visit(node)


def collected_uses(root: Path, bases: Dict[str, List[str]],
                   roots=CALLING_ROOTS) -> Uses:
    """Walk every ``*.py`` under the given calling roots of ``root``."""
    uses = Uses({}, {}, set(), set())
    collector = _CallCollector(uses, bases)
    for calling_root in roots:
        for path in sorted((root / calling_root).rglob("*.py")):
            collector.visit(ast.parse(path.read_text()))
    return uses


def is_passed(knob: Knob, uses: Uses) -> bool:
    """The strict reading: some call to the owner supplies the knob."""
    if knob.name in uses.keywords.get(knob.owner, ()):
        return True
    if knob.is_field:
        return knob.name in uses.replaced
    return knob.position is not None \
        and uses.depth.get(knob.owner, 0) > knob.position


def _references(node: ast.AST) -> Set[str]:
    """Every name the subtree spells as a use."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
    return names


def _bound_names(node: ast.stmt) -> List[str]:
    """The names a top-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) \
        else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def _class_graph(node: ast.ClassDef, module: str, edges: Dict[str, Set[str]],
                 methods: Dict[str, list], reaching: Set[str],
                 src_classes: Set[str]) -> None:
    """Split a top-level class into the class's own edges and one node per
    public method, keyed by the method's name."""
    public_class = not node.name.startswith("_")
    # a framework base (http.server, logging) calls its subclass's public
    # methods by name; abc and typing bases call nothing
    framework = any(base not in src_classes and base not in MARKER_BASES
                    for base in _base_names(node))
    own = edges.setdefault(node.name, set())
    for item in node.decorator_list + node.bases + node.keywords:
        own |= _references(item)
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or item.name.startswith("_"):
            own |= _references(item) - {node.name}
            continue
        edges.setdefault(item.name, set()).update(
            _references(item) - {item.name})
        if framework:
            reaching.add(item.name)
        elif public_class:
            start = min([item.lineno] + [deco.lineno for deco
                                         in item.decorator_list])
            where = methods.setdefault(f"{module}.{node.name}.{item.name}",
                                       [item.name, 0])
            where[1] += item.end_lineno - start + 1  # a setter adds lines


def _reach(root: Path) -> tuple:
    """The public definitions and methods under ``root/src`` and the set of
    names reached from outside ``tests/``."""
    public: Dict[str, List[tuple]] = {}
    methods: Dict[str, list] = {}  # dotted name -> [method name, lines]
    edges: Dict[str, Set[str]] = {}
    reaching: Set[str] = set()
    trees = {}
    for path in sorted((root / DECLARING_ROOT).rglob("*.py")):
        module = ".".join(path.relative_to(root / DECLARING_ROOT)
                          .with_suffix("").parts)
        trees[module.removesuffix(".__init__"), path.name] = \
            ast.parse(path.read_text())
    src_classes = {node.name for tree in trees.values() for node in tree.body
                   if isinstance(node, ast.ClassDef)}
    for (module, filename), tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = _bound_names(node)
            if names == ["__all__"] and filename == "__init__.py":
                continue
            if names in ([], ["__all__"]):
                reaching |= _references(node)
                continue
            if isinstance(node, ast.ClassDef):
                _class_graph(node, module, edges, methods, reaching,
                             src_classes)
            else:
                for name in names:
                    edges.setdefault(name, set()).update(
                        _references(node) - {name})
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                start = min([node.lineno] + [deco.lineno for deco
                                             in node.decorator_list])
                public.setdefault(node.name, []).append(
                    (module, node.end_lineno - start + 1))
    # the census names definitions only to report them
    census = root / "benchmarks" / "perf" / Path(__file__).name
    for reaching_root in REACHING_ROOTS:
        for path in sorted((root / reaching_root).rglob("*")):
            if path == census or not path.is_file():
                continue
            if path.suffix == ".py":
                reaching |= _references(ast.parse(path.read_text()))
            elif reaching_root == ".github":  # workflow steps run code too
                reaching.update(re.findall(r"[A-Za-z_]\w*",
                                           path.read_text()))
    stack = list(reaching)
    while stack:
        for name in edges.get(stack.pop(), ()):
            if name not in reaching:
                reaching.add(name)
                stack.append(name)
    return public, methods, reaching


def unreached_definitions(root: Path) -> Dict[str, int]:
    """Dotted name -> line count of each public definition under
    ``root/src`` that nothing outside ``tests/`` reaches."""
    public, __, reaching = _reach(root)
    return {f"{module}.{name}": lines
            for name, where in public.items() if name not in reaching
            for module, lines in where}


def unreached_methods(root: Path) -> Dict[str, int]:
    """Dotted name -> line count of each public method of a public class
    under ``root/src`` that nothing outside ``tests/`` reaches."""
    __, methods, reaching = _reach(root)
    return {dotted: lines for dotted, (name, lines) in methods.items()
            if name not in reaching}


def _print_unreached(kind: str, unreached: Dict[str, int],
                     exemptions: Dict[str, str]) -> None:
    print(f"public {kind} under {DECLARING_ROOT}/ only tests reach: "
          f"{len(unreached)} ({sum(unreached.values())} lines)")
    for name, lines in sorted(unreached.items()):
        reason = exemptions.get(name)
        print(f"  {'=' if reason else ' '} {name} ({lines} lines)"
              + (f": {reason}" if reason else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=REPO_ROOT,
                        help="tree to census (default: this repository)")
    root = parser.parse_args(argv).checkout.resolve()
    knobs, bases = declared_knobs(root)
    uses = collected_uses(root, dict(bases))
    never = [knob for knob in knobs if not is_passed(knob, uses)]
    conservative = [knob for knob in never if knob.name not in uses.loose]
    program = collected_uses(root, dict(bases), tuple(
        r for r in CALLING_ROOTS if r != TEST_ROOT))
    untested = [knob for knob in knobs if not is_passed(knob, program)]
    print(f"defaulted parameters and fields under {DECLARING_ROOT}/: "
          f"{len(knobs)}")
    print(f"never passed: {len(never)}")
    print(f"never passed, conservative reading: {len(conservative)}")
    hidden = set(never) - set(conservative)
    for knob in never:
        mark = "~" if knob in hidden else " "
        print(f"  {mark} {knob.path}: {knob.owner}({knob.name})")
    print("(~ = the name also occurs as a string literal, dict key or "
          "attribute store)")
    print(f"never passed outside {TEST_ROOT}/: {len(untested)}")
    for knob in untested:
        if knob not in never:
            print(f"    {knob.path}: {knob.owner}({knob.name})")
    print(f"(the {len(never)} never passed at all are listed above)")
    _print_unreached("definitions", unreached_definitions(root),
                     DEFINITION_EXEMPTIONS)
    _print_unreached("methods", unreached_methods(root), METHOD_EXEMPTIONS)
    print("(= = exempt, with the reason it stays)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
