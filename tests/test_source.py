"""Rules the source of nhswe keeps, read from its syntax trees (the project
runs no linter): invariants raise typed errors, not asserts, which vanish
under python -O; the package prints nothing, its callers report; and no
function writes module-level state, since a cache kept in a module keeps
every array it holds alive for the life of the process (2 zb kept in a
module dict keyed by id(zb) would hold one array per scenario ever run).
Caches belong on the object they describe, as the mesh's operator
geometry and the bathymetry's bottom terms are kept.  Only the public
entry points take a PhysicalParams; every layer below takes the dry
threshold h_eps, the wet mask or the wave speed it reads, with no default."""

import ast
from pathlib import Path

import pytest

import nhswe

MODULES = sorted(Path(nhswe.__file__).parent.glob("*.py"))

# methods that mutate the container they are called on
MUTATORS = frozenset(
    {"update", "setdefault", "append", "extend", "insert", "add", "pop", "popitem",
     "clear", "remove", "discard"}
)


def test_the_package_has_modules():
    assert {path.stem for path in MODULES} >= {"core", "projection", "timeloop", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statement_and_no_print_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        )
    ]
    assert not found


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _root(node):
    """The name an attribute or subscript chain starts from, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(nodes):
    """Names stored or imported anywhere in the given nodes."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def module_state_writes(tree) -> list[int]:
    """Lines where a function writes a module-level name: a `global`
    statement, a subscript or attribute store (or del) into the name, or a
    mutating method called on a module-level container."""
    defs = [s for s in tree.body if isinstance(s, (*_FUNCTIONS, ast.ClassDef))]
    module = _bound_names([s for s in tree.body if s not in defs])
    module |= {s.name for s in defs}
    # containers: names a module-level statement assigns (not imports or defs)
    data = {
        t.id
        for s in tree.body
        if isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (s.targets if isinstance(s, ast.Assign) else [s.target])
        for t in ast.walk(target)
        if isinstance(t, ast.Name)
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        local = _bound_names([fn.args, *(fn.body if isinstance(fn.body, list) else [fn.body])])
        shared = module - local
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(node.lineno)
            elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if _root(node) in shared:
                    found.append(node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and _root(node.func.value) in shared & data
            ):
                found.append(node.lineno)
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_writes_module_state(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}" for line in module_state_writes(tree)] == []


def test_the_module_state_rule_finds_each_kind_of_write():
    bad = '''
import numpy as np
_TWICE = {}
_SEEN = []
class Box:
    pass
def twice(zb):
    key = id(zb)
    if key not in _TWICE:
        _TWICE[key] = 2.0 * zb
    return _TWICE[key]
def remember(zb):
    _SEEN.append(zb)
    _TWICE.setdefault(id(zb), zb)
    _TWICE.update({})
def patch(value):
    np.cached = value
    Box.last = value
def count():
    global _SEEN
    _SEEN = []
def drop(key):
    del _TWICE[key]
'''
    assert module_state_writes(ast.parse(bad)) == [10, 13, 14, 15, 17, 18, 20, 23]
    fine = '''
import numpy as np
_TWICE = {}
def own(mesh, zb):
    _TWICE = {}
    _TWICE[id(zb)] = zb
    mesh._geometry["P1P0"] = zb
    out = np.append(zb, 1.0)
    out[0] = 0.0
    return _TWICE.get(id(zb)), out
'''
    assert module_state_writes(ast.parse(fine)) == []


# the functions a caller hands a PhysicalParams; every layer below them takes
# the h_eps or the wet mask it reads
ENTRY_POINTS = frozenset(
    {"timeloop.run", "timeloop.step_euler", "timeloop.step_heun", "timeloop.project_state",
     "hyperbolic.cfl_dt"}
)
# what a stepper computes once and hands down; a default would let a caller
# drop it and have it recomputed, or replaced by a stand-in threshold
HANDED_DOWN = frozenset({"wet", "speed", "h_eps"})


def _parameters(path):
    """(qualified function name, parameter, its default or None) of every
    function in the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        pairs = [*zip(positional, defaults), *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in pairs:
            yield f"{path.stem}.{fn.name}", arg, default


def test_only_the_entry_points_take_physical_params_and_nothing_handed_down_has_a_default():
    takes_params, defaulted = set(), []
    for path in MODULES:
        for name, arg, default in _parameters(path):
            if arg.annotation is not None and "PhysicalParams" in ast.unparse(arg.annotation):
                takes_params.add(name)
            if arg.arg in HANDED_DOWN and default is not None:
                defaulted.append(f"{name}({arg.arg}={ast.unparse(default)})")
    assert takes_params == ENTRY_POINTS
    assert defaulted == []
