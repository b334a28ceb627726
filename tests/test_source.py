"""Source hygiene of `src/mhat`, read with the standard library's `ast`.

Every name a module imports is used in that module, and every module-level
private name (`_x`) is referenced somewhere in `src/mhat` besides its own
definition, so a deletion that leaves an import or a helper behind fails
here.  `numerics.__all__` lists exactly that module's public functions and
classes.  `from __future__` imports and the package's re-exports in
`__init__.py` are not checked for use.  Every text-mode `open` names
UTF-8, so no file depends on the locale, and there are two of them: the
one text reader and the one text writer of `data.py`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mhat"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def imports(module: str):
    """(bound name, line) of every import of a module, at any depth."""
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (module == "__init__.py" and node.level > 0):
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def uses(tree: ast.Module):
    """(name, node) of every name a module reads: a loaded name, an attribute,
    a name imported from another module, an `__all__` entry, or a name in an
    annotation written as a string (`-> "LmScorer"`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.name, node) for alias in node.names)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            yield from ((c.value, node) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for c in ast.walk(note) if note is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    parsed = ast.walk(ast.parse(c.value, mode="eval"))
                    yield from ((n.id, c) for n in parsed if isinstance(n, ast.Name))


USES = {module: list(uses(tree)) for module, tree in TREES.items()}


def private_definitions(module: str):
    """(name, node) of every module-level private function, class and assignment."""
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_module_is_read():
    assert {"__init__.py", "model.py", "losses.py", "decode.py"} <= TREES.keys()


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    # an import statement names what it imports, so it is no use of it
    used = {name for name, node in USES[module] if not isinstance(node, ast.ImportFrom)}
    unused = [(name, line) for name, line in imports(module) if name not in used]
    assert unused == [], f"{module}: imported but never used: {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    unreferenced = []
    for name, definition in private_definitions(module):
        own = {id(n) for n in ast.walk(definition)}
        if not any(used == name and id(node) not in own for found in USES.values() for used, node in found):
            unreferenced.append((name, definition.lineno))
    assert unreferenced == [], f"{module}: private names referenced nowhere else: {unreferenced}"


def text_opens(module: str):
    """(line, encoding) of every `open(...)` of a module whose mode has no `b`;
    the encoding is None unless it is a literal."""
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
            if "b" not in ast.literal_eval(mode):
                encoding = keywords.get("encoding")
                yield node.lineno, encoding.value if isinstance(encoding, ast.Constant) else None


def test_text_opens_are_found():
    assert {module for module in TREES if any(text_opens(module))} == {"data.py"}


def text_open_sites():
    """(module, innermost function around it, mode) of every `open(...)` of
    `src/mhat` whose mode has no `b`."""
    for module, tree in TREES.items():
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]  # outer ones first
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                keywords = {k.arg: k.value for k in node.keywords}
                mode = ast.literal_eval(node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r")))
                if "b" not in mode:
                    around = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    yield module, around[-1] if around else None, mode


def test_one_text_reader_and_one_text_writer():
    # the text file format lives in two functions, which every text file goes through
    assert sorted(text_open_sites()) == [("data.py", "read_text_lines", "r"), ("data.py", "write_lines", "w")]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_text_open_names_utf8(module):
    bad = [line for line, encoding in text_opens(module) if encoding != "utf-8"]
    assert bad == [], f"{module}: text-mode open without encoding=\"utf-8\" at lines {bad}"


def test_numerics_all_lists_exactly_its_public_functions_and_classes():
    body = TREES["numerics.py"].body
    public = {n.name for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}
    (listed,) = [ast.literal_eval(n.value) for n in body
                 if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["__all__"]]
    assert len(listed) == len(set(listed)), "numerics.__all__ repeats a name"
    assert set(listed) == public
