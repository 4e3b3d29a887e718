"""Every function, class and method in ``src/prodex`` is named by some code
in ``src/prodex``, or is listed here with the reason it stays.

A definition that nothing names is dead code that the line count carries.
The scan goes by name alone: a method that shares its name with a used one
counts as used, so it can miss dead code but never flags live code.
Dunder methods are called by the language, not by name, and are skipped.
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


def _definitions_and_names():
    """(qualified name, name) of each def and class in src, and every name
    that src code uses as a variable or an attribute."""
    defined, names = [], set()
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
                else:
                    stack.append((child, owner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return defined, names


def test_every_definition_in_src_is_named_in_src_or_listed():
    defined, names = _definitions_and_names()
    unreferenced = {
        qualified for qualified, name in defined
        if name not in names and not (name.startswith("__") and name.endswith("__"))
    }
    assert unreferenced == set(UNREFERENCED)
