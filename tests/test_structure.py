"""Ideal arithmetic has one home: the additive span and the proven sum of two
ideals are used only inside `zdgraph/ideals.py`; every other module reaches
them through the ideal layer's helpers.  The span itself has one caller, the
sum that no known ideal matches.  A ring has one read per shape: points
through `mul_at`, whole rows and columns through `mul_rows` and `mul_cols`.
Array plumbing lives in `zdgraph/rings.py`: only it packs element sets into
bits, and only its `_blocks` reads the block budget `_BLOCK_ELEMS`.  Every IPO
is built in `zdgraph/semigroups.py`, and the checks module imports no private
name of the layers below it.  A ring's split is read where rings are built and
validated, where a split ring's lists and IPO are composed, and by the
recursion that decides what to compose.  Above the ideal and semigroup layers, element
sets are read as sets, never as bits.  Every private module-level name is read
somewhere in the package, so no dead helper stays."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "zdgraph").glob("*.py"))
PRIVATE = {"_known_sum", "_additive_span"}


def _uses(path: Path) -> list[str]:
    """Names in PRIVATE that `path` references, calls or imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in PRIVATE and not isinstance(node, ast.FunctionDef):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_spans_and_sums_stay_in_the_ideal_layer():
    outside = [use for path in SOURCES if path.name != "ideals.py" for use in _uses(path)]
    assert outside == []


def test_the_only_span_is_a_missed_sum():
    # additive generators come from the ideals' own generators, and every
    # pool-pair product from the lattice, so the one span left is in _Sums.add
    spans = [use for path in SOURCES for use in _uses(path) if use.endswith(" _additive_span")]
    tree = ast.parse((SOURCES[0].parent / "ideals.py").read_text())
    sums = next(node for node in tree.body if getattr(node, "name", None) == "_Sums")
    add = next(node for node in sums.body if getattr(node, "name", None) == "add")
    inside_add = [f"ideals.py:{line} _additive_span" for line in range(add.lineno, add.end_lineno + 1)]
    assert len(spans) == 1 and spans[0] in inside_add, spans


LINES = {"mul_rows", "mul_cols"}


def _called_names(func: ast.expr) -> set[str]:
    """The method names a call's callee can be: `r.mul_rows`, or either
    branch of `(r.mul_rows if ... else r.mul_cols)`."""
    if isinstance(func, ast.IfExp):
        return _called_names(func.body) | _called_names(func.orelse)
    return {getattr(func, "attr", None) or getattr(func, "id", None)}


def test_whole_line_reads_take_one_argument():
    # a product over named x and y is a point read, mul_at(xs[:, None], ys);
    # mul_rows and mul_cols read whole rows and columns, and nothing else
    found = {"called with a subset": [], "defined with a subset": [], "ProductRing._block": []}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and _called_names(node.func) & LINES:
                if len(node.args) + len(node.keywords) > 1:
                    found["called with a subset"].append(where)
            if isinstance(node, ast.FunctionDef) and node.name in LINES:
                a = node.args
                params = [p for p in a.posonlyargs + a.args + a.kwonlyargs if p.arg != "self"]
                if len(params) != 1 or a.vararg or a.kwarg:
                    found["defined with a subset"].append(where)
            if isinstance(node, ast.ClassDef) and node.name == "ProductRing":
                if any(getattr(f, "name", None) == "_block" for f in node.body):
                    found["ProductRing._block"].append(where)
    assert not any(found.values()), found


PACKING = {"packbits", "unpackbits", "from_bytes", "to_bytes"}


def test_only_rings_packs_element_sets():
    # the bit layout of an element set is written once, next to ElementSet
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in SOURCES
        if path.name != "rings.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in PACKING
    ]
    assert found == []


def test_only_blocks_reads_the_block_budget():
    # every blocked pass asks _blocks for its slices, so none computes its own step
    allowed = set()
    reads = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_blocks" and path.name == "rings.py":
                allowed |= {f"rings.py:{line}" for line in range(node.lineno, node.end_lineno + 1)}
            if isinstance(node, ast.Name) and node.id == "_BLOCK_ELEMS" and isinstance(node.ctx, ast.Load):
                reads.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "_BLOCK_ELEMS":
                reads.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "_BLOCK_ELEMS" for a in node.names):
                reads.append(f"{path.name}:{node.lineno}")
    assert allowed and [read for read in reads if read not in allowed] == []


BIT_LAYERS = {"rings.py", "ideals.py", "semigroups.py"}


def test_checks_read_element_sets_as_sets():
    # size, equality, membership and ElementSet.__le__ say what a check reads;
    # .bits, bit_count and shifts would compute with the encoding instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in BIT_LAYERS
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("bits", "bit_count"))
        or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift))
    ]
    assert found == []


LOWER_LAYERS = {"rings", "ideals", "semigroups"}


def test_every_ipo_is_built_in_the_semigroup_layer():
    # build_ipo and compose_ideals_and_ipo decide an IPO's layout (label order, index
    # dtype); the checks module composes through them and reaches no private
    # helper of the layers below it
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and path.name != "semigroups.py":
                if "FiniteSemigroupWithZero" in _called_names(node.func):
                    found.append(f"{where} FiniteSemigroupWithZero")
            if isinstance(node, ast.ImportFrom) and path.name == "theorems.py" and node.module in LOWER_LAYERS:
                found += [f"{where} {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_a_split_is_read_only_where_it_is_composed():
    # rings.py builds and validates splits, semigroups.py composes a split
    # ring's lists and IPO, and theorems._ideals_and_ipo recurses into the
    # factors; no other code knows how a split ring is composed (`str.split`
    # is a call, the ring's split a property read)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "theorems.py":
            helper = next(node for node in tree.body if getattr(node, "name", None) == "_ideals_and_ipo")
            allowed = set(range(helper.lineno, helper.end_lineno + 1))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "split" and id(node) not in called:
                if path.name not in ("rings.py", "semigroups.py") and node.lineno not in allowed:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _module_private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level functions, classes and constants of a module whose
    names have one leading underscore, each with the statement defining it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def test_every_private_module_name_is_used():
    # a helper, class or constant that nothing reads is dead; a read inside
    # its own definition (recursion) does not count, nor does an import
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    reads = []  # (file, line, name)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((name, node.lineno, node.attr))
    unused = []
    for name, tree in trees.items():
        for private, node in _module_private_definitions(tree).items():
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(read == private and not (where == name and line in inside) for where, line, read in reads):
                unused.append(f"{name}:{node.lineno} {private}")
    assert unused == []
