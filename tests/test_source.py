"""Guards on the molstore source itself: annotations that resolve, no
analysis path that reads a whole trace as one array, and no name that
nothing uses."""

import ast
import importlib
import inspect
import pkgutil
import re
import typing
from collections import Counter
from pathlib import Path

import molstore

SOURCE = Path(molstore.__file__).resolve().parent
# The classes that hold or make a whole-trace array: the in-memory trace,
# and the base that builds ``samples`` from a chunked trace's chunks.
WHOLE_ARRAY_CLASSES = {"ChunkedTrace", "CurrentTrace"}


def _modules():
    return [
        importlib.import_module(f"molstore.{info.name}")
        for info in pkgutil.iter_modules([str(SOURCE)])
    ]


def _annotated(module):
    """(name, object) of every function, class and method ``module``
    defines, with a property's getter standing for the property."""
    for name, value in vars(module).items():
        if not (inspect.isfunction(value) or inspect.isclass(value)):
            continue
        if value.__module__ != module.__name__:
            continue
        yield name, value
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_every_annotation_resolves():
    unresolved = []
    for module in _modules():
        for name, value in _annotated(module):
            try:
                typing.get_type_hints(value)
            except Exception as exc:  # a NameError, or a bad annotation
                unresolved.append(f"{module.__name__}.{name}: {exc!r}")
    assert not unresolved


class _SamplesReads(ast.NodeVisitor):
    """Reads of an attribute named ``samples`` outside WHOLE_ARRAY_CLASSES."""

    def __init__(self) -> None:
        self.classes: list[str] = []
        self.found: list[int] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "samples"
            and isinstance(node.ctx, ast.Load)
            and not WHOLE_ARRAY_CLASSES.intersection(self.classes)
        ):
            self.found.append(node.lineno)
        self.generic_visit(node)


def test_no_code_reads_a_whole_trace_array():
    """Analysis reads ``trace.chunks()``; only the whole-array classes read
    ``.samples``, so no path holds the float64 trace again."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    reads = []
    for path in files:
        visitor = _SamplesReads()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        reads += [f"{path.name}:{line}" for line in visitor.found]
    assert not reads


def test_every_public_name_resolves():
    """Each name in ``molstore.__all__`` is an attribute of the package, so
    ``from molstore import *`` imports them all."""
    missing = [name for name in molstore.__all__ if not hasattr(molstore, name)]
    assert not missing
    namespace: dict = {}
    exec("from molstore import *", namespace)
    assert set(molstore.__all__) <= set(namespace)


def _private_names(tree: ast.Module):
    """The module-level names ``tree`` defines that start with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _reads(tree: ast.Module):
    """Every name ``tree`` reads, as a variable or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_name_is_used():
    """Each module-level private name of the source is read somewhere in
    it, so a helper that a merge of two code paths leaves behind fails
    here; tests alone do not keep one alive."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")
    }
    read = {name for tree in trees.values() for name in _reads(tree)}
    unused = [
        f"{file}: {name}"
        for file, tree in sorted(trees.items())
        for name in _private_names(tree)
        if name not in read
    ]
    assert not unused


def _public_definitions(tree: ast.Module):
    """The public module-level functions and classes ``tree`` defines, and
    the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (
                member.name
                for member in node.body
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
            )


def test_every_public_name_is_used():
    """Each public function, class and method of the source is named in the
    source, the tests or README.md somewhere besides its own ``def`` or
    ``class`` line, so a public helper that a merge of two code paths leaves
    behind fails here, as a private one fails the test above."""
    sources = [path.read_text(encoding="utf-8") for path in SOURCE.glob("*.py")]
    others = [*Path(__file__).parent.glob("*.py"), SOURCE.parent.parent / "README.md"]
    text = "\n".join([*sources, *(path.read_text(encoding="utf-8") for path in others)])
    named = Counter(re.findall(r"\w+", text))
    named.subtract(re.findall(r"\b(?:def|class) (\w+)", text))
    unused = sorted(
        name
        for source in sources
        for name in _public_definitions(ast.parse(source))
        if named[name] < 1
    )
    assert not unused
