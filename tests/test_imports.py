import ast
import re
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
                "labels must be iterable", "duplicate labels",
                "seed must be")


def test_argument_rules_are_worded_in_errors_only():
    # labels, heights, counts and seeds are checked by
    # `errors.check_labels`, `check_height`, `check_count` and
    # `check_seed`; a copy elsewhere would drift
    copies = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                copies += [f"{path.name}:{node.lineno}: {words}"
                           for words in RULE_WORDING if words in node.value]
    assert copies == []


# the only places that may build an object past its constructor checks:
# (module, enclosing function, class), where the fields are valid by
# construction from arguments already checked
UNCHECKED_SITES = [("cells.py", "_walk", "Configuration"),
                   ("cells.py", "cell_of", "NOrdering"),
                   ("cells.py", "relabel", "Configuration"),
                   ("gamma.py", "enumerate_gamma", "GammaMorphism"),
                   ("nord.py", "enumerate_nord", "NOrdering"),
                   ("nord.py", "from_tree", "NOrdering"),
                   ("nord.py", "sigma_act", "NOrdering"),
                   ("nord.py", "upper_covers", "NOrdering"),
                   ("theta.py", "_lift", "DeltaMorphism"),
                   ("theta.py", "_lift", "ThetaMorphism"),
                   ("theta.py", "homs", "DeltaMorphism"),
                   ("theta.py", "homs", "ThetaMorphism")]


def _unchecked_uses(tree, name):
    """(module, innermost enclosing function, class) for every reference
    to an `_unchecked` attribute in the module `tree`."""
    uses = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_unchecked":
                owner = child.value.id if isinstance(child.value, ast.Name) \
                    else ast.dump(child.value)
                uses.append((name, function, owner))
            walk(child, function)

    walk(tree, None)
    return uses


def test_private_constructors_are_used_only_where_inputs_are_checked():
    # an entry point that handed outside input to `_unchecked` would
    # build objects no check has seen
    uses = []
    for path in SOURCES + sorted(Path(__file__).parent.glob("*.py")):
        uses += _unchecked_uses(ast.parse(path.read_text(), str(path)),
                                path.name)
    assert sorted(uses) == UNCHECKED_SITES


def test_sources_parse_at_the_python_floor():
    # a regex, not tomllib: the floor itself may lack tomllib
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=3\.(\d+)"', pyproject)
    assert floor
    for path in SOURCES:
        ast.parse(path.read_text(), str(path),
                  feature_version=(3, int(floor.group(1))))
