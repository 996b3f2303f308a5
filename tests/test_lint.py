"""Source checks that hold for the whole package."""

import ast
import doctest
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binsquares

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "binsquares"
README = PACKAGE.parent.parent / "README.md"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so none may carry behaviour
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def absolute_imports(path):
    """The modules a source file imports by absolute name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    # the package has no runtime dependencies: a module imports the standard
    # library or the package itself
    outside = {
        name
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"binsquares"}
    }
    assert not outside, f"{path.name}: imports {sorted(outside)}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # dataclasses pulls in inspect, ast and tokenize, and each decorator
    # compiles its methods at import: a cost every cold proof process pays
    assert "dataclasses" not in absolute_imports(path), f"{path.name} imports dataclasses"


def modules_loaded_by(statement, watched):
    """Which of the ``watched`` modules the import ``statement`` loads in a
    fresh interpreter, beyond those loaded at start-up."""
    script = (
        f"import json, sys\nbefore = set(sys.modules)\n{statement}\n"
        f"print(json.dumps([m for m in {watched!r} if m in set(sys.modules) - before]))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert modules_loaded_by("import binsquares.cli", ["dataclasses", "inspect"]) == []


def test_machine_modules_load_without_the_oracle_and_witness():
    # the package's exports load on first use, so a refutation job loads
    # only the machine side
    watched = ["binsquares.oracle", "binsquares.witness"]
    assert modules_loaded_by("import binsquares.automata, binsquares.lemma_machines", watched) == []


def package_imports(name):
    """The names a module imports from the package, as module:name."""
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names if alias.name.startswith("binsquares")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("binsquares")):
            module = "." * node.level + (node.module or "")
            imported += [f"{module}:{alias.name}" for alias in node.names]
    return imported


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_no_private_name_of_another_module(path):
    # an underscore name belongs to its own module; one that another module
    # needs gets a public name
    private = [entry for entry in package_imports(path.name) if entry.partition(":")[2].startswith("_")]
    assert not private, f"{path.name}: imports {private}"


def test_proofcheck_imports_only_the_machine_type():
    # the quotient checks must share no code with the refinement they check
    assert package_imports("proofcheck.py") == [".automata:Nfa"]


def test_automata_imports_nothing_from_the_package():
    # the NFA kit stays generic: what a machine's edges mean is known only
    # to the module that generates it
    assert package_imports("automata.py") == []


@pytest.mark.parametrize("name", ["witness.py", "lemma_machines.py"])
def test_letters_reach_the_machine_side_only_as_ids(name):
    # folding owns the folded word: these modules never build a Symbol or
    # turn one into its id, so letters arrive as fold's ids
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Symbol":
                calls.append((node.lineno, "Symbol"))
            elif isinstance(func, ast.Attribute) and func.attr in ("Symbol", "encode", "id_of"):
                calls.append((node.lineno, func.attr))
    assert not calls, f"{name}: letter encoding at {calls}"


@pytest.mark.parametrize("name", ["oracle.py", "numberforms.py"])
def test_oracle_imports_nothing_from_the_machine_side(name):
    # the oracle is what the machine constructions are validated against,
    # so it shares no code with them
    machine_side = {"automata", "lemma_machines", "folding", "witness", "proofcheck"}
    modules = set()
    for entry in package_imports(name):
        module, _, imported = entry.partition(":")
        module = module.lstrip(".").removeprefix("binsquares").lstrip(".")
        modules.add(module.partition(".")[0] or imported)  # `from . import x` names x
    assert not modules & machine_side, f"{name}: imports {sorted(modules & machine_side)}"


def test_readme_layout_lists_every_module_once():
    # the README's Layout table has one row per module, so a module cannot
    # be added, renamed or deleted without its row
    readme = README.read_text(encoding="utf-8")
    section = readme.partition("\n## Layout\n")[2].partition("\n## ")[0]
    table = [line for line in section.splitlines() if line.startswith("|")][2:]
    rows = [line.split("|")[1].strip().strip("`") for line in table]
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert sorted(rows) == modules


def test_every_exported_name_resolves():
    # a name dropped from the package must leave __all__ with it
    missing = [name for name in binsquares.__all__ if not hasattr(binsquares, name)]
    assert not missing, f"__all__ names {missing}, which the package lacks"


def test_dir_and_star_import_cover_every_exported_name():
    assert set(binsquares.__all__) <= set(dir(binsquares))
    namespace = {}
    exec("from binsquares import *", namespace)
    assert set(binsquares.__all__) <= set(namespace)


def test_readme_library_examples_run():
    # the README's Library block is a doctest, so a dropped or changed
    # public name cannot leave a stale example behind
    readme = README.read_text(encoding="utf-8")
    section = readme.partition("\n## Library\n")[2].partition("\n## ")[0]
    block = section.partition("```python\n")[2].partition("```")[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    report = []
    results = runner.run(test, out=report.append)
    assert results.attempted == len(test.examples) > 0
    assert not results.failed, "".join(report)
