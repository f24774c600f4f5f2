"""The package's export surface: ``genrep.__all__`` against what ``genrep/__init__.py`` binds,
and the one version number that ``genrep --version`` and the package metadata both read."""

import ast
import re
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


def toml_table(text, name):
    """The body of the TOML table ``[name]`` in ``text``, up to the next table header."""
    return re.split(r"^\[", text.split(f"\n[{name}]\n", 1)[1], maxsplit=1, flags=re.M)[0]


def test_the_version_is_written_once():
    # read as text, as Python 3.10 has no tomllib: [project] holds no literal version, and
    # setuptools reads the one genrep --version prints
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = toml_table(text, "project")
    assert re.search(r'^dynamic = \[.*"version".*\]$', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^version = \{ ?attr = "genrep\.__version__" ?\}$',
                     toml_table(text, "tool.setuptools.dynamic"), re.M)
