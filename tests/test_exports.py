"""The package's export surface: ``genrep.__all__`` against what ``genrep/__init__.py`` binds."""

import ast
from pathlib import Path

import genrep


def bound_public_names():
    """The names ``genrep/__init__.py`` binds at module level by import or assignment, less
    those that start with an underscore."""
    tree = ast.parse(Path(genrep.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_names_exactly_the_public_bindings():
    assert len(genrep.__all__) == len(set(genrep.__all__))
    assert set(genrep.__all__) == bound_public_names()


def test_every_exported_name_resolves():
    for name in genrep.__all__:
        assert getattr(genrep, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from genrep import *", namespace)
    assert set(genrep.__all__) <= set(namespace)
