import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import textwrap

import ssi
from conftest import REPO_DIR


def ssi_classes():
    """Every class defined in an ``ssi`` module, by name."""
    classes = {}
    for info in pkgutil.iter_modules(ssi.__path__):
        module = importlib.import_module(f"ssi.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def attributes(cls):
    """The attributes of ``cls`` and its bases: class attributes and slots
    (``dir``), dataclass fields and every ``self.NAME =`` in its methods."""
    names = set(dir(cls))
    for c in cls.__mro__:
        if c.__module__.split(".")[0] != "ssi":
            continue
        if dataclasses.is_dataclass(c):
            names.update(f.name for f in dataclasses.fields(c))
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(c)))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
    return names


def test_readme_names_only_real_attributes_of_ssi_classes():
    text = re.sub(r"```.*?```", "", (REPO_DIR / "README.md").read_text(), flags=re.S)
    classes = ssi_classes()
    checked, stale = 0, []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)
        if m is None or m[1] not in classes:
            continue
        checked += 1
        if not any(m[2] in attributes(c) for c in classes[m[1]]):
            stale.append(span)
    assert checked >= 10 and not stale, stale
