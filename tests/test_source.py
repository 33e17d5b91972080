"""Checks on the package source itself."""

import ast
import collections
import os
import re
import subprocess
import sys
from pathlib import Path

import sepwords

ROOT = Path(__file__).resolve().parent.parent


def _package_nodes(node_type, where=lambda node: True) -> list[str]:
    """file:line of every node of node_type in the package source for
    which `where` holds."""
    root = Path(sepwords.__file__).parent
    return [f"{path.name}:{node.lineno}" for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, node_type) and where(node)]


def test_no_module_keeps_state_behind_a_global_statement():
    # a fixed computation rerun once per process belongs in a test, not
    # behind a module flag; functools.lru_cache memos stay allowed
    assert _package_nodes(ast.Global) == []


def test_no_module_guards_with_assert():
    # python -O strips assert statements, so a guard must raise an exception
    assert _package_nodes(ast.Assert) == []


def test_importing_the_package_binds_every_submodule_but_the_cli():
    # bench/job.py reads sepwords.atlas, .cache, ... after a bare import
    src = str(Path(sepwords.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sepwords, sys; print(sorted(m for m in "
         "('atlas', 'cache', 'cli', 'construct', 'dfa', 'lang', 'lemmas', 'solver') "
         "if m in vars(sepwords)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(["atlas", "cache", "construct", "dfa", "lang",
                               "lemmas", "solver"]) + "\n"


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # importing dataclasses (which imports inspect, ast, dis, ...) and
    # applying it cost more than the rest of `import sepwords`; every
    # command pays the import, so the value classes are plain classes; the
    # command line loads nothing beyond the package and the standard library
    src = str(Path(sepwords.__file__).parent.parent)
    for module in ("sepwords", "sepwords.cli"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; before = set(sys.modules); import {module}; "
             "new = {m.split('.')[0] for m in set(sys.modules) - before}; print(sorted("
             "new - (sys.stdlib_module_names - {'dataclasses', 'inspect'}) - {'sepwords'}))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", (module, proc.stdout)
    assert _package_nodes((ast.Import, ast.ImportFrom), lambda node: any(
        m.split(".")[0] == "dataclasses" for m in _imported_modules(node))) == []


def test_the_package_imports_only_itself_and_the_standard_library():
    # no runtime dependency: `pip install` pulls in nothing else
    assert _package_nodes((ast.Import, ast.ImportFrom), lambda node: (
        getattr(node, "level", 0) == 0  # not relative, as `from .dfa import ...` is
        and any(m.split(".")[0] not in sys.stdlib_module_names
                for m in _imported_modules(node)))) == []


def test_the_package_exports_the_library_twin_of_each_command():
    assert sepwords.__all__ == [
        "exact_sep", "SepCertificate", "SearchBudget", "CertificateCache",
        "build_L_k", "build_G_k", "build_H_k",
        "witness_pair", "verify_witness", "run_lemma_suite",
        "compute_atlas", "Dfa", "accepts", "dfa_from_text", "dfa_to_text",
        "BudgetError",
    ]
    assert all(getattr(sepwords, name) is not None for name in sepwords.__all__)


def test_every_readme_import_from_the_package_runs():
    lines = re.findall(r"from sepwords import [\w, ]+",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert lines
    for line in lines:
        exec(line, {})


def _defaulted_parameters() -> list[tuple[str, str, str]]:
    """(module, function, parameter) for every parameter with a default of
    a function or method in the package source, in source order; a method
    is named Class.method."""
    root = Path(sepwords.__file__).parent
    found = []

    def visit(module, body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.extend((module, prefix + node.name, arg.arg) for arg in with_default)
                visit(module, node.body, f"{prefix}{node.name}.")

    for path in sorted(root.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")).body, "")
    return found


def test_the_option_surface_is_pinned():
    # each defaulted parameter is an option that tests must cover; one that
    # no caller sets to a second value belongs in a constant, and a new one
    # should show up in review
    assert _defaulted_parameters() == [
        ("atlas", "compute_atlas", "cache"),
        ("cli", "main", "argv"),
        ("construct", "CnResult.__init__", "candidates"),
        ("construct", "CnResult.__init__", "exhaustive_searches"),
        ("construct", "CnResult.__init__", "nodes"),
        ("construct", "search_C_n", "budget"),
        ("construct", "search_C_n", "forbid_run_length"),
        ("construct", "search_z_k", "budget"),
        ("construct", "WitnessReport.__init__", "lower_verified_to"),
        ("construct", "WitnessReport.__init__", "upper_witness"),
        ("construct", "WitnessReport.__init__", "statuses"),
        ("construct", "witness_pair", "budget"),
        ("construct", "verify_witness", "budget"),
        ("dfa", "zpath", "i"),
        ("dfa", "dfa_to_text", "provenance"),
        ("lemmas", "LemmaCheck.__init__", "evidence"),
        ("lemmas", "LemmaCheck.__init__", "counterexample"),
        ("lemmas", "run_check", "seed"),
        ("lemmas", "run_check", "negative"),
        ("lemmas", "run_lemma_suite", "ids"),
        ("lemmas", "run_lemma_suite", "seed"),
        ("solver", "SearchBudget.__init__", "max_states"),
        ("solver", "SearchBudget.__init__", "max_nodes"),
        ("solver", "SearchBudget.__init__", "wall_limit"),
        ("solver", "SepCertificate.__init__", "nodes"),
        ("solver", "SepCertificate.__init__", "millis"),
        ("solver", "certificate_from_table", "nodes"),
        ("solver", "certificate_from_table", "start"),
        ("solver", "exact_sep", "budget"),
        ("solver", "run_table", "q"),
        ("solver", "separating_structure", "counters"),
        ("solver", "no_separator_up_to", "budget"),
        ("solver", "lsep_lower_check", "counters"),
    ]


def _functions_reading(name: str) -> list[tuple[str, str]]:
    """(module, function) for each function of the package that reads
    `name` as a variable or an attribute.  A method or a nested function is
    named outer.inner, and a read outside every function "<module>"."""
    root = Path(sepwords.__file__).parent
    found = set()

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
                visit(module, child, inner)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.add((module, where))
            visit(module, child, where)

    for path in sorted(root.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(found)


def test_one_function_reads_the_state_cap():
    # every construction that numbers new states does so through
    # dfa._explore, so none can grow a cap check of its own
    assert _functions_reading("DEFAULT_DETERMINIZE_BUDGET") == [("dfa", "_explore")]


def test_only_constructions_of_unknown_shape_minimize():
    # only where the automaton may not be minimal: the segmented closure's
    # subset automaton, a word list's trie, and whatever a caller hands
    # state_complexity.  The block languages and their reversals are
    # minimal as built, so stc reads their state_count; only the three and
    # jellybean checks minimize them again, through state_complexity, as an
    # independent check of their sizes
    assert _functions_reading("minimize") == [
        ("lang", "_segclo_of_dfa"), ("lang", "finite_language"), ("lang", "state_complexity")]


def test_only_the_lemma_checks_measure_state_complexity():
    # the three and jellybean checks keep Moore's minimize as an independent
    # check of the built sizes; cli.stc reads state_count as built
    assert _functions_reading("state_complexity") == [
        ("lemmas", "_check_jellybean"), ("lemmas", "_check_three")]


def _referenced_names(nodes) -> set[str]:
    """Every name the nodes read as a variable or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def _bench_names() -> set[str]:
    """The attribute names and strings of the bench job and tracer: each
    package name a job calls or the tracer wraps is one of them."""
    names = set()
    for script in ("job.py", "tracer.py"):
        for n in ast.walk(ast.parse((ROOT / "bench" / script).read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def test_every_top_level_function_and_class_is_reached():
    # a definition that neither the command line (the console script
    # sepwords.cli:main), the exports nor a bench job reaches is dead, or a
    # reference only the tests use, which belongs in tests/reference.py.
    # A name counts when it is read, not only when it is called: REGISTRY
    # holds the lemma checks by reference.  Names are matched across
    # modules, and a module-level assignment reaches what it reads only
    # when its target is reached; other module-level code always runs.
    root = Path(sepwords.__file__).parent
    defined = {}
    bodies = collections.defaultdict(list)  # name -> statements that define it
    always = []
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[stmt.name] = f"{path.name}:{stmt.lineno} {stmt.name}"
                bodies[stmt.name].append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for n in (n for target in targets for n in ast.walk(target)):
                    if isinstance(n, ast.Name):
                        bodies[n.id].append(stmt)
            else:
                always.append(stmt)
    todo = {"main"} | set(sepwords.__all__) | _bench_names() | _referenced_names(always)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= _referenced_names(bodies[name]) - reached
    assert sorted(where for name, where in defined.items() if name not in reached) == []
