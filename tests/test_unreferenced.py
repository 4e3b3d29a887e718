"""Every function, class and method in ``src/prodex`` is named by some code
in ``src/prodex``, and every dataclass field and ``self.x =`` attribute is
read by some, or each is listed here with the reason it stays.

A definition that nothing names, or a field that nothing reads, is dead code
that the line count carries. The scan goes by name alone: a method that
shares its name with a used one counts as used, and a field that shares its
name with an attribute read anywhere counts as read, so it can miss dead
code but never flags live code. Dunder methods are called by the language,
not by name, and are skipped. A field is read where src code loads an
attribute of its name or passes its name to ``getattr`` as a string
constant; setting it, by a constructor, ``replace`` or an assignment, is no
read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prodex"

#: Definitions no code in src names, and why each stays.
UNREFERENCED = {
    "cli.corpus_generate": "a click command; its decorator registers it",
    "cli.compress_cmd": "a click command; its decorator registers it",
    "cli.extract_direct_cmd": "a click command; its decorator registers it",
    "cli.extract_indirect_cmd": "a click command; its decorator registers it",
    "cli.evaluate_cmd": "a click command; its decorator registers it",
    "cli.compare_cmd": "a click command; its decorator registers it",
    "htmltree.select": "the benchmark's tracer wraps it",
    "htmltree.Document.iter_elements": "the benchmark's tracer counts elements with it",
    "htmltree.name_signature": "the reference the tests check the matching scan's signature by",
}

#: Fields and attributes no code in src reads by name, and why each stays.
UNREAD = {
    **{f"schema.FoodProduct.{name}": "read by getattr over the field names"
       for name in ("ingredient_statement", "energy", "fat", "saturated_fat", "carbohydrates",
                    "sugars", "protein", "salt")},
    "dsl.ExtractionOutcome.field_status":
        "why each rule's field failed, which the planned per-page explain.jsonl reads",
    "similarity.SimilarityReport.per_attribute": "part of the report compare gives",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def _fields(node: ast.ClassDef):
    """The name of each field of a dataclass and of each ``self.x =`` in
    the methods of any class."""
    if _is_dataclass(node):
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                yield statement.target.id
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in ast.walk(method):
            targets = (statement.targets if isinstance(statement, ast.Assign) else
                       [statement.target] if isinstance(statement, ast.AnnAssign) else [])
            for target in targets:
                for item in ast.walk(target):
                    if (isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
                            and isinstance(item.value, ast.Name) and item.value.id == "self"):
                        yield item.attr


def _scan():
    """(qualified name, name) of each def and class in src and of each
    field, every name that src code uses as a variable or an attribute, and
    every name it reads as an attribute."""
    defined, fields, names, read = [], [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, path.stem)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualified = f"{owner}.{child.name}"
                    defined.append((qualified, child.name))
                    stack.append((child, qualified))
                    if isinstance(child, ast.ClassDef):
                        fields += [(f"{qualified}.{name}", name) for name in _fields(child)]
                else:
                    stack.append((child, owner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return defined, fields, names, read


def test_every_definition_in_src_is_named_in_src_or_listed():
    defined, _, names, _ = _scan()
    unreferenced = {
        qualified for qualified, name in defined
        if name not in names and not (name.startswith("__") and name.endswith("__"))
    }
    assert unreferenced == set(UNREFERENCED)


def test_every_field_in_src_is_read_in_src_or_listed():
    _, fields, _, read = _scan()
    assert {qualified for qualified, name in fields if name not in read} == set(UNREAD)
