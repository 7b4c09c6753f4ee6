"""The references in ``tests/reference.py`` read only what a document shows.

A reference that reads a cache (``_rows``, ``_units``), a private helper
(``_Pricer``, ``_bundle_ints``) or calls the package code it is meant to
check agrees with that code by construction.  The guard parses the module
and lists every single-underscore name or attribute and every use of the
package's share, subsidy and integer-scaling helpers and of its tree
rounding.
"""
import ast
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.py")
FORBIDDEN = {
    "wprop_share",
    "compute_subsidies",
    "local_subsidy",
    "threshold_owner",
    "scaled",
    "exact_sum",
    "round_tree",
}


def private(name):
    """``_rows`` or ``_Pricer``; not ``_`` nor a dunder."""
    return len(name) > 1 and name[0] == "_" and name[1] != "_"


def guard_violations(source):
    """(line, text) of every private name or attribute and every forbidden import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            found += [(node.lineno, n) for n in names if n in FORBIDDEN or private(n)]
        elif isinstance(node, ast.Attribute):
            if node.attr in FORBIDDEN or private(node.attr):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and private(node.id):
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            found.append((node.lineno, node.name))
    return found


def test_reference_reads_no_private_name_and_imports_no_checked_helper():
    assert guard_violations(REFERENCE_FILE.read_text()) == []


def test_guard_catches_each_kind_of_violation():
    source = REFERENCE_FILE.read_text()
    planted = {
        "inst._rows": "_rows",
        "inst._units": "_units",
        "from subsidy_fairdiv.rounding import _Pricer": "_Pricer",
        "alloc._bundle_ints(inst)": "_bundle_ints",
        "from subsidy_fairdiv import wprop_share": "wprop_share",
        "from subsidy_fairdiv.model import exact_sum, scaled": "exact_sum",
        "import subsidy_fairdiv.rounding.threshold_owner": "threshold_owner",
        "rounding.local_subsidy(inst, alloc, {})": "local_subsidy",
        "compute = model.compute_subsidies": "compute_subsidies",
        "from subsidy_fairdiv.rounding import round_tree": "round_tree",
        "rounding.round_tree(inst, alloc, tree)": "round_tree",
    }
    for line, name in planted.items():
        assert name in [n for _, n in guard_violations(f"{source}\n{line}\n")], line
