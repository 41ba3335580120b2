import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "thetaconf")
                 .glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


RULE_WORDING = ("must be >= 0", "must be >= 1", "labels must be hashable",
                "duplicate labels")


def test_argument_rules_are_worded_in_errors_only():
    # labels, heights and counts are checked by `errors.check_labels`,
    # `check_height` and `check_count`; a copy elsewhere would drift
    copies = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                copies += [f"{path.name}:{node.lineno}: {words}"
                           for words in RULE_WORDING if words in node.value]
    assert copies == []
