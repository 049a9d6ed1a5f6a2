"""No public name without a consumer.

``unconsumed_names`` reads the package's modules as source text.  Every
public top-level function and class of a module (all but ``__init__``
and ``__main__``) must be loaded by name somewhere in the package
outside its own definition, be imported by the frozen acceptance test,
or be listed in ``EXCEPTIONS`` with its reason.  A load is a bare name
or an attribute in any expression: a call, a ``type=`` or ``func=``
argument, an ``except`` clause; type annotations and ``__init__``'s
re-exports do not count.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import axialfisher

SRC = Path(axialfisher.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

#: Public names that only the benchmark loads, as "module.name", each
#: with its reason.  The benchmark's files change only in a change of
#: the benchmark itself, which is where these two move to the tests.
EXCEPTIONS = {
    "beam_optics.image_beam_width_sq":
        "perfbench/worker.py calls it for the relayed exposure's width",
    "photon_sim.sample_radii":
        "perfbench/worker.py calls it to count the sampler's bytes per detection",
}


def _loads(tree: ast.AST) -> Counter:
    """How often ``tree`` loads each name, bare or as an attribute,
    outside type annotations."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    skipped = {id(node) for annotation in annotations for node in ast.walk(annotation)}
    loads = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            loads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            loads[node.attr] += 1
    return loads


def unconsumed_names(package: dict[str, str], acceptance: str, perfbench: dict[str, str],
                     exceptions: dict[str, str]) -> list[str]:
    """One line for each public name of ``package`` (module name ->
    source) without a consumer, and for each entry of ``exceptions`` that
    is stale: a name that has a consumer or is not defined, or that no
    module of ``perfbench`` (file stem -> source) loads."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    loads = {module: _loads(tree) for module, tree in trees.items() if module != "__init__"}
    imported = {f"{node.module.rpartition('.')[2]}.{alias.name}"
                for node in ast.walk(ast.parse(acceptance))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("axialfisher.")
                for alias in node.names}
    benchmark = sum((_loads(ast.parse(source)) for source in perfbench.values()), Counter())

    consumed = {}
    for module, tree in trees.items():
        if module.startswith("__"):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                name = f"{module}.{node.name}"
                uses = sum(counts[node.name] for counts in loads.values())
                consumed[name] = uses > _loads(node)[node.name] or name in imported

    faults = [f"{name} has no consumer in the package or the acceptance test"
              for name, used in consumed.items() if not used and name not in exceptions]
    for name in exceptions:
        if name not in consumed:
            faults.append(f"{name} is listed as an exception but is not a public definition")
        elif consumed[name]:
            faults.append(f"{name} is listed as an exception but has a consumer")
        elif not benchmark[name.rpartition(".")[2]]:
            faults.append(f"{name} is listed as an exception but the benchmark does not load it")
    return faults


def _sources(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(directory.glob("*.py"))}


def test_every_public_name_has_a_consumer():
    assert unconsumed_names(_sources(SRC), (TESTS / "test_acceptance.py").read_text(),
                            _sources(PERFBENCH), EXCEPTIONS) == []


#: A synthetic package in which every public name has a consumer:
#: ``a.used`` is called, ``a.Error`` caught, ``b.entry`` called by
#: ``__main__``, ``a.accepted`` imported by the acceptance test and
#: ``a.bench_only`` listed, and loaded by the benchmark.
_PACKAGE = {
    "__init__": "from .a import used\n",
    "__main__": "from .b import entry\nentry()\n",
    "a": ("class Error(ValueError):\n    pass\n\n\n"
          "def used():\n    raise Error\n\n\n"
          "def accepted():\n    return 1\n\n\n"
          "def bench_only(n):\n    return bench_only(n - 1) if n else 0\n"),
    "b": ("from .a import Error, used\n\n\n"
          "def entry():\n    try:\n        used()\n    except Error:\n        pass\n"),
}
_ACCEPTANCE = "from axialfisher.a import accepted\n"
_BENCHMARK = {"worker": "from axialfisher import a\na.bench_only(3)\n"}
_EXCEPTIONS = {"a.bench_only": "the benchmark calls it"}


def test_guard_passes_a_package_whose_names_all_have_consumers():
    assert unconsumed_names(_PACKAGE, _ACCEPTANCE, _BENCHMARK, _EXCEPTIONS) == []


@pytest.mark.parametrize(("package", "perfbench", "exceptions", "fault"), [
    ({**_PACKAGE, "a": _PACKAGE["a"] + "\n\ndef orphan():\n    return orphan()\n"},
     _BENCHMARK, _EXCEPTIONS, "a.orphan has no consumer in the package or the acceptance test"),
    ({**_PACKAGE, "a": _PACKAGE["a"] + "\n\ndef exported():\n    pass\n",
      "__init__": "from . import a\nexported = a.exported\n__all__ = [exported.__name__]\n"},
     _BENCHMARK, _EXCEPTIONS, "a.exported has no consumer in the package or the acceptance test"),
    ({**_PACKAGE, "a": _PACKAGE["a"] + "\n\nclass Hint:\n    pass\n",
      "b": _PACKAGE["b"] + "\n\nDEFAULT: Hint = None\n"},
     _BENCHMARK, _EXCEPTIONS, "a.Hint has no consumer in the package or the acceptance test"),
    (_PACKAGE, _BENCHMARK, {**_EXCEPTIONS, "a.used": "stale"},
     "a.used is listed as an exception but has a consumer"),
    (_PACKAGE, _BENCHMARK, {**_EXCEPTIONS, "a.gone": "stale"},
     "a.gone is listed as an exception but is not a public definition"),
    (_PACKAGE, {"worker": "import json\n"}, _EXCEPTIONS,
     "a.bench_only is listed as an exception but the benchmark does not load it"),
], ids=["uncalled", "re-exported-only", "annotation-only", "stale-exception", "undefined-exception",
        "benchmark-dropped-it"])
def test_guard_names_each_fault(package, perfbench, exceptions, fault):
    assert unconsumed_names(package, _ACCEPTANCE, perfbench, exceptions) == [fault]
