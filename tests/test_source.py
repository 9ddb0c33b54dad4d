"""Structural checks on the package source: the one place each size and keep
policy is decided.

The word guard ``MAX_SWEEP_WORDS`` is defined in ``words`` and compared in
three places only: ``BasisEnumeration.__init__`` (every enumeration of
words), ``_sweep_guard`` (the sweeps' triples) and ``GridSpec.points`` (the
region grid's points).  Derived data is kept on an object by the two keep
helpers of ``weights`` only: ``_kept_once`` and ``_kept_levels``, with no
exception; no scope stores a private attribute on another object, so a shift
map is the space's kept rows beside the weight system's kept levels and is
kept on neither.  Each weight system keeps one commutant mu: ``CommutantMu`` is
built only by ``WeightSystem.kept_commutant_mu``.  Automaton
states are laid out in one place: ``weights._prepended_ranks`` is called only
by the builder ``_prefix_automaton`` and by the word-tree steps of
``eigen._transfer_steps``, so no family writes a ``next`` array by hand.
Operators are written as compressed arrays: ``coo_array`` appears nowhere in
the package.  Shifts act through their column maps: the matrix
product ``@`` appears only in ``GradedOperator.apply`` and
``GradedOperator.__matmul__``, which the tests keep as their oracle.
Records are built by ``words.record`` from closures: no module imports
``dataclasses`` or calls ``exec``, ``eval`` or ``compile``.  scipy is
imported only inside ``GradedOperator.__init__`` and
``GradedOperator.from_row_order``, which build every sparse matrix, so a
command that builds none never loads it.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fockshift"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
KEEP_HELPERS = {"weights.py:_kept_once", "weights.py:_kept_levels"}
RECORD_INIT = "words.py:record.__init__"


def _nodes():
    """(``file:qualified scope``, node) for every node of the package's modules."""
    for path in sorted(SOURCE.glob("*.py")):
        work = [(ast.parse(path.read_text(), filename=str(path)), "")]
        while work:
            node, scope = work.pop()
            for child in ast.iter_child_nodes(node):
                inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, SCOPES) else scope
                yield f"{path.name}:{inner}", child
                work.append((child, inner))


def _names(node) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def test_the_word_guard_is_defined_once_and_compared_in_three_places():
    nodes = list(_nodes())
    defined = {scope for scope, node in nodes
               if isinstance(node, ast.Assign) and any("MAX_SWEEP_WORDS" in _names(t) for t in node.targets)}
    compared = {scope for scope, node in nodes if isinstance(node, ast.Compare) and "MAX_SWEEP_WORDS" in _names(node)}
    assert defined == {"words.py:"}
    assert compared == {"words.py:BasisEnumeration.__init__", "weights.py:_sweep_guard", "eigen.py:GridSpec.points"}


def test_only_the_keep_helpers_memoise_on_objects():
    # object.__setattr__ also sets a frozen record's fields in the record initialiser and in __post_init__
    setters, readers = set(), set()
    for scope, node in _nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "__setattr__" and _names(func) == {"object"}:
            setters.add(scope)
        if isinstance(func, ast.Name) and func.id == "vars":
            readers.add(scope)
    assert {scope for scope in setters if not scope.endswith(".__post_init__")} == KEEP_HELPERS | {RECORD_INIT}
    assert readers == KEEP_HELPERS
    # a store to a private attribute of an object other than self or cls keeps data on that object
    stores = set()
    for scope, node in _nodes():
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) and sub.attr.startswith("_")
                            and not sub.attr.startswith("__") and _names(sub.value) - {"self", "cls"}):
                        stores.add(scope)
    assert stores == set()


def _callers(name: str) -> set[str]:
    """The scopes that call a function or method of this name."""
    callers = set()
    for scope, node in _nodes():
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                callers.add(scope)
    return callers


def test_each_weight_system_keeps_one_commutant_mu():
    assert _callers("CommutantMu") == {"weights.py:WeightSystem.kept_commutant_mu"}


def test_only_the_prefix_builder_and_the_word_tree_lay_out_states():
    assert _callers("_prepended_ranks") == {"weights.py:_prefix_automaton", "eigen.py:_transfer_steps"}


def test_no_operator_takes_the_coo_route():
    # not called, and not named either: no name, attribute, import or definition of it
    named = {scope for scope, node in _nodes()
             if "coo_array" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))}
    assert named == set()
    assert _callers("from_entries") == set()


def test_operator_products_are_gathers_on_the_shift_maps():
    nodes = list(_nodes())
    products = {scope for scope, node in nodes if isinstance(node, ast.MatMult)}
    assert products == {"fock.py:GradedOperator.apply", "fock.py:GradedOperator.__matmul__"}
    stacks = {scope for scope, node in nodes
              if isinstance(node, ast.Attribute) and node.attr in ("hstack", "vstack") and _names(node) == {"sp"}}
    assert stacks == set()
    scipy_imports = {scope for scope, node in nodes
                     if isinstance(node, (ast.Import, ast.ImportFrom)) and "scipy" in ast.unparse(node)}
    assert scipy_imports == {"fock.py:GradedOperator.__init__", "fock.py:GradedOperator.from_row_order"}


def test_records_are_built_without_generated_code():
    nodes = list(_nodes())
    imports = {scope for scope, node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
               and "dataclasses" in ast.unparse(node)}
    calls = {scope for scope, node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")}
    assert imports == set() and calls == set()


def test_the_structural_counts_read_no_cutoff():
    # the vacuum kernel and the joint eigenspace are counted on a certified structure: no float
    # tolerance is read, and the only float literals are the unit weight and an empty entry
    scopes = {"fock.py:vacuum_kernel_check", "eigen.py:joint_eigenspace_dim"}
    names, floats = set(), set()
    for scope, node in _nodes():
        if scope in scopes:
            names |= {node.id} if isinstance(node, ast.Name) else {node.attr} if isinstance(node, ast.Attribute) else set()
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value not in (0.0, 1.0):
                floats.add(node.value)
    assert names & {"finfo", "frexp", "ldexp", "eps"} == set() and floats == set()
    assert {scope for scope, _ in _nodes()} >= scopes
