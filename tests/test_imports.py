"""The package's import graph, read from the source with ast.

Every import of one gkdim module by another stands at module level, and
these imports run one way: no chain of them leads back to where it started.
A cycle could otherwise only be held together by imports deferred into
function bodies, which these tests forbid as well. The runtime needs only
the standard library, so every import outside the package names a module in
sys.stdlib_module_names. Every name a module imports is read in it, unless
the import line is marked noqa: F401. Start-up stays cheap: no module
imports dataclasses, which would load inspect (and ast, dis, tokenize) with
every gkdim.cli import, and a fresh interpreter's import of gkdim.cli loads
neither, nor hashlib's OpenSSL binding, nor argparse.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gkdim

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkdim"
# standard-library modules of later Pythons than some supported one: the
# builtin sha2 module that replaced _sha256 in 3.12, which gkdim.cli tries
# after it
LATER_STDLIB = {"_sha2"}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _gkdim_targets(node) -> list:
    """The gkdim modules an Import or ImportFrom node names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and not (node.module or "").startswith("gkdim"):
            return []
        base = (node.module or "").removeprefix("gkdim").lstrip(".")
        if base:
            return [base.split(".")[0]]
        return [a.name for a in node.names if a.name in MODULES]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("gkdim.")]
    return []


def _imports(module: str):
    """(target module, line, inside a function body) for each gkdim import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(), f"{module}.py")
    out = []

    def visit(node, in_function):
        for target in _gkdim_targets(node):
            out.append((target, node.lineno, in_function))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return out


def test_the_scan_sees_the_package():
    assert {"cli", "exactnum", "poincare", "samuel"} <= set(MODULES)
    assert ("samuel", False) in {(t, f) for t, _, f in _imports("cli")}
    assert ("catalog", False) in {(t, f) for t, _, f in _imports("cli")}


def test_no_gkdim_import_inside_a_function():
    deferred = [f"{m}.py:{line} imports {target}" for m in MODULES
                for target, line, in_function in _imports(m) if in_function]
    assert deferred == []


def test_intra_package_imports_are_acyclic():
    # deferred imports count as edges too, so a cycle they close is named
    edges = {m: sorted({t for t, _, _ in _imports(m) if t in MODULES and t != m})
             for m in MODULES}
    done, path = set(), []

    def visit(m):
        if m in path:
            cycle = path[path.index(m):] + [m]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if m in done:
            return
        path.append(m)
        for t in edges[m]:
            visit(t)
        path.pop()
        done.add(m)

    for m in MODULES:
        visit(m)


def test_runtime_imports_only_the_standard_library():
    # every module the package imports is in the standard library or in gkdim
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}:{node.lineno} imports {name}" for name in names
                        if name.split(".")[0] not in
                        sys.stdlib_module_names | LATER_STDLIB | {"gkdim"}]
    assert outside == []


def test_the_export_list_is_what_the_package_imports():
    # every name __init__ imports from a submodule is exported, and nothing else
    tree = ast.parse((PACKAGE / "__init__.py").read_text(), "__init__.py")
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for a in node.names}
    assert sorted(gkdim.__all__) == sorted(imported)
    assert len(set(gkdim.__all__)) == len(gkdim.__all__)
    assert all(hasattr(gkdim, name) for name in gkdim.__all__)


def _module_level_imports(tree):
    """The Import and ImportFrom nodes outside any function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_has_an_unused_import():
    # a name a module imports is read somewhere in it; a re-export the bench
    # tracer rebinds (detect_polynomial in axioms and cli) is marked noqa
    unused = []
    for module in MODULES:
        source = (PACKAGE / f"{module}.py").read_text()
        lines = source.splitlines()
        tree = ast.parse(source, f"{module}.py")
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{module}.py:{node.lineno} imports {name}")
    assert unused == []


def test_no_module_imports_dataclasses():
    # the records are NamedTuples or slotted classes; dataclasses would pull
    # inspect into every start-up and exec each record's methods on import
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # measured against the interpreter's own start-up set, so modules that
    # site loads before gkdim do not count; nor OpenSSL through hashlib
    # (input digests come from the builtin sha256), nor argparse (only
    # cli.main parses a command line)
    script = ("import sys; before = set(sys.modules); import gkdim.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "gkdim.cli" in added
    assert added & {"dataclasses", "inspect", "_hashlib", "hashlib", "argparse"} == set()
