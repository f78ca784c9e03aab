"""The public surface of ``bianchi`` is what the CLI and the acceptance
criteria reach, read with ``ast`` alone: no numpy, no import of the package.

The roots are every top-level definition of ``bianchi/cli.py``, every name
that ``tests/test_acceptance.py`` imports, and every module-level statement
of the package other than an import or a definition, since each runs at
import. So the verify suites are reached through ``SUITES``, the table that
``bianchi/verify.py`` binds at module level and ``cli.py`` imports. The scan
follows each name that a reached definition or statement refers to, through
the ``from .x import y`` lines of its module, to the module that defines it.
A public top-level function or class under ``src/bianchi`` that is never
reached fails, unless ``ALLOWED`` names it with its reason; a name in
``ALLOWED`` that is reached fails too.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "bianchi"

#: public names kept though the scan does not reach them, each with why
ALLOWED = {
    "bianchi.oracle.subgroups.enumerate_torsion_elements": (
        "the bench tracer calls it to time the torsion pass apart from the search"
    ),
    "bianchi.orders.maximal_orders_isomorphic": (
        "the isomorphism theorem; tests/test_orders.py checks it against brute force"
    ),
    "bianchi.orders.intersection_character": (
        "Satz 24, the character forced on an intersection index; checked against "
        "brute force in tests/test_orders.py"
    ),
    "bianchi.orders.joint_intersection_factor": (
        "Satz 24 for two rational algebras; checked against brute force in "
        "tests/test_orders.py"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class Module:
    def __init__(self, path: Path):
        self.name = _module_name(path)
        self.is_package = path.name == "__init__.py"
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        self.definitions = {}  # top-level function or class name -> its node
        self.imports = {}  # bound name -> (module, name) of a from-import
        self.assigned = set()
        self.statements = []  # what runs at import, beyond imports and defs
        for node in self.tree.body:
            if isinstance(node, _DEFINITIONS):
                self.definitions[node.name] = node
            elif isinstance(node, ast.ImportFrom):
                source = self.source(node)
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (source, alias.name)
            elif not isinstance(node, ast.Import):
                self.statements.append(node)
                for target in ast.walk(node):
                    if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store):
                        self.assigned.add(target.id)

    def source(self, node: ast.ImportFrom) -> str:
        """The absolute name of the module that a from-import reads."""
        if not node.level:
            return node.module
        base = self.name.split(".")
        base = base[: len(base) - node.level + self.is_package]
        return ".".join(base + ([node.module] if node.module else []))


def _package_modules() -> dict[str, Module]:
    modules = (Module(path) for path in sorted(PACKAGE.rglob("*.py")))
    return {module.name: module for module in modules}


def _acceptance_imports() -> list[tuple[str, str]]:
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bianchi")
        for alias in node.names
    ]


def reached_names(modules: dict[str, Module]) -> set[str]:
    """The qualified names of the top-level definitions the roots reach."""
    reached = set()
    work = []

    def reach(module: str, name: str) -> None:
        # follow re-exports to the module that defines the name
        while True:
            mod = modules[module]
            if name in mod.definitions:
                if f"{module}.{name}" not in reached:
                    reached.add(f"{module}.{name}")
                    work.append((mod, mod.definitions[name]))
                return
            if name in mod.assigned:
                return  # a module-level statement, reached as a root
            if name not in mod.imports:
                raise AssertionError(f"{module} neither defines nor imports {name}")
            module, name = mod.imports[name]
            if module not in modules:
                return  # the standard library or numpy

    def refer(mod: Module, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in mod.definitions or sub.id in mod.imports:
                    reach(mod.name, sub.id)
            elif isinstance(sub, ast.ImportFrom):  # an import inside a function
                source = mod.source(sub)
                if source in modules:
                    for alias in sub.names:
                        reach(source, alias.name)

    cli = modules["bianchi.cli"]
    for name in cli.definitions:
        reach(cli.name, name)
    for module, name in _acceptance_imports():
        reach(module, name)
    for mod in modules.values():
        for node in mod.statements:
            refer(mod, node)
    while work:
        refer(*work.pop())
    return reached


def public_names(modules: dict[str, Module]) -> set[str]:
    return {
        f"{mod.name}.{name}"
        for mod in modules.values()
        for name in mod.definitions
        if not name.startswith("_")
    }


def test_every_public_name_is_reached_or_allowed():
    modules = _package_modules()
    public = public_names(modules)
    reached = reached_names(modules)
    assert sorted(public - reached - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() & reached) == []  # a stale entry
    assert sorted(ALLOWED.keys() - public) == []  # a name that is gone
    assert all(ALLOWED.values())


def test_the_packages_reexport_only_what_acceptance_imports():
    # each name has one import path: the module that defines it
    modules = _package_modules()
    package = modules["bianchi"].tree.body
    assert [ast.unparse(node) for node in package[1:]] == []
    oracle = {name for module, name in _acceptance_imports() if module == "bianchi.oracle"}
    assert modules["bianchi.oracle"].imports.keys() == oracle


#: the modules a report runs through, and the enums whose members they test
REPORT_MODULES = ("quadfield", "quaternion", "orders", "classify")
ENUMS = ("SplitType", "SubgroupKind")


def test_no_function_on_the_report_path_loads_an_enum_member():
    # On Python 3.10 and 3.11 a load such as SplitType.INERT costs about ten
    # times a global load, so the functions compare against the module
    # constants that their enum's module binds; module-level statements run
    # once and may load members.
    modules = _package_modules()
    loads = set()
    for name in REPORT_MODULES:
        for fn in ast.walk(modules[f"bianchi.{name}"].tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS
                ):
                    loads.add(f"{name}.py:{node.lineno}: {ast.unparse(node)}")
    assert sorted(loads) == []
