"""Every function and method of the package has a use.

A module-level function or a non-dunder method of src/twinobs must be
named somewhere in the package outside its own definition, be exported
through ``twinobs.__all__``, or stand in ALLOWED with the reason it
stays.  A helper with none of these is a second copy of a rule that the
pipeline applies elsewhere, and this test keeps such helpers from coming
back unnoticed.

A module-level function counts as named where its module uses it by
name, or where another module imports it or reads it as an attribute of
its module; a method counts as named wherever an attribute of that name
is read.  The re-exports of ``__init__`` count only through ``__all__``.
A method that shares its name with a field of some record is counted
as named by every read of that field, so each such method stands in
FIELD_NAMED_METHODS with the reason it stays.

The same scan keeps five rules of the package's code: every record
declares its fields once, in FIELDS, with ``linops.Record.__init__`` the
only code that stores them, every random draw comes from the standard
library's ``random``, no module but ``spin`` forms a Kronecker product,
``linops.rank_cut`` and ``linops.group_starts`` alone decide where a
rank cut falls and where a spectrum splits into groups, and no code
holds a ``global`` or ``nonlocal`` statement.
"""

import ast
import inspect
from pathlib import Path

import twinobs

import reference

SRC = Path(twinobs.__file__).parent

ALLOWED = {
    "__init__.__getattr__": "PEP 562 hook: the interpreter calls it to load an exported name lazily",
    "__init__.__dir__": "PEP 562 hook: dir(twinobs) lists the lazily loaded names",
    "cli._Parser.parse_known_args": "argparse override: parse_args and the subparsers action call it",
    "linops.range_basis": "perfbench traces it, and perfbench/test_perfbench.py calls it",
    "measurement.CriteriaReport.coherent": "verdict of the event_equivalence report",
    "measurement.MeasurementOutcome.post_state_plus": "Lüders state of an exported report outcome",
    "measurement.MeasurementOutcome.post_state_minus": "Lüders state of an exported report outcome",
    "serialize.decomposition_to_document": "writes the file that `schmidt --decomposition` reads",
    "spectral.DetectableSplit.reassemble": "inverse of split_detectable on the record it returns",
    "spectral.DetectableSplit.undetectable_lifted": "the 0' ⊕ A'' part of a split_detectable record",
    "spin.spin_z": "S_z of one spin, the partner of spin_lowering for spin observables",
    "states.RelevantRestriction.embed": "inverse compression of the restrict_to_relevant record",
    "twins.ObservablePair.coords": "hermitian_basis coordinates of an exported pair",
    "twins.ObservablePair.scaled": "real multiple of an exported pair, itself a twin",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _definitions(modules: dict, dunders: bool = False) -> list:
    """(qualified name, module, class or None, def node) of every
    module-level function and method, dunder methods only if asked."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{mod}.{node.name}", mod, None, node))
            elif isinstance(node, ast.ClassDef):
                out.extend((f"{mod}.{node.name}.{item.name}", mod, node.name, item)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and (dunders or not _is_dunder(item.name)))
    return out


def _references(mod: str, tree: ast.Module):
    """(node, ("function", module, name) or ("attribute", name)) for each
    use of a name in one module of the package."""
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    imported[a.asname or a.name] = (node.module, a.name)
    own = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in own:
                yield node, ("function", mod, node.id)
            elif node.id in imported:
                yield node, ("function", *imported[node.id])
        elif isinstance(node, ast.Attribute):
            yield node, ("attribute", node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield node, ("function", aliases[node.value.id], node.attr)


def _orphans() -> set:
    modules = _modules()
    refs = [(ref, node) for mod, tree in modules.items() if mod != "__init__"
            for node, ref in _references(mod, tree)]
    exported = set(twinobs.__all__)
    orphans = set()
    for qualname, mod, cls, node in _definitions(modules):
        inside = {id(n) for n in ast.walk(node)}
        key = ("function", mod, node.name) if cls is None else ("attribute", node.name)
        named = any(ref == key and id(where) not in inside for ref, where in refs)
        if not named and not (cls is None and node.name in exported):
            orphans.add(qualname)
    return orphans


def test_every_function_and_method_is_named_exported_or_allowed():
    unexplained = sorted(_orphans() - set(ALLOWED))
    assert not unexplained, (
        f"no caller in src/twinobs, not in twinobs.__all__ and not in ALLOWED: {unexplained}"
    )


# Methods named like a FIELDS entry of some record: the scan above cannot
# tell a call of one from a read of the field, so each is listed here.
FIELD_NAMED_METHODS = {
    "twins.ObservablePair.d_plus": "dimension of the pair's plus side, as BipartiteState.d_plus",
    "twins.ObservablePair.d_minus": "dimension of the pair's minus side, as BipartiteState.d_minus",
}


def test_methods_named_like_a_record_field_are_listed():
    modules = _modules()
    fields = {name for node in _records(modules).values() for item in node.body
              if isinstance(item, ast.Assign)
              and [getattr(t, "id", None) for t in item.targets] == ["FIELDS"]
              for name in ast.literal_eval(item.value)}
    shadowed = {qualname for qualname, _, cls, node in _definitions(modules)
                if cls is not None and node.name in fields}
    assert not shadowed - set(FIELD_NAMED_METHODS), (
        f"methods named like a record field, not in FIELD_NAMED_METHODS: "
        f"{sorted(shadowed - set(FIELD_NAMED_METHODS))}")
    assert not set(FIELD_NAMED_METHODS) - shadowed, (
        f"FIELD_NAMED_METHODS entries that are gone or renamed: "
        f"{sorted(set(FIELD_NAMED_METHODS) - shadowed)}")


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose definition is gone or has gained a caller leaves the list
    stale = sorted(set(ALLOWED) - _orphans())
    assert not stale, f"ALLOWED entries that are gone or have a caller: {stale}"


# Records declare their fields once, in FIELDS, and linops.Record.__init__
# stores them.  The only other writes to an instance dict are the memo of
# a pair's spectra, which a state keeps beside its fields.
RECORD_BASES = {"Record", "ValueRecord"}
DICT_WRITERS = {"linops.Record.__init__", "spectral._pair_spectra",
                "spectral.find_complete_twins"}
# a __dict__ that is the receiver of one of these calls is written
_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__",
                  "__delitem__"}


def _records(modules: dict) -> dict:
    """qualified name -> ClassDef of every subclass of linops.Record,
    the abstract RECORD_BASES left out."""
    classes = {node.name: (mod, node) for mod, tree in modules.items() for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def is_record(name: str) -> bool:
        return name == "Record" or any(
            isinstance(b, ast.Name) and b.id in classes and is_record(b.id)
            for b in classes[name][1].bases)

    return {f"{mod}.{name}": node for name, (mod, node) in classes.items()
            if name not in RECORD_BASES and is_record(name)}


def _dict_writes(tree: ast.Module):
    """The __dict__ attributes of one module that are written through:
    assigned or deleted by subscript, the receiver of a mutating call, or
    bound to a name (an alias that may be written later)."""
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "__dict__"):
            continue
        parent = parents[id(node)]
        if (isinstance(parent, ast.Subscript) and not isinstance(parent.ctx, ast.Load)
                or isinstance(parent, ast.Attribute) and parent.attr in _DICT_MUTATORS
                or isinstance(parent, (ast.Assign, ast.NamedExpr, ast.AnnAssign))):
            yield node


def test_every_record_declares_distinct_fields():
    records = _records(_modules())
    assert "linops.Tolerances" in records and "twins.ObservablePair" in records
    bad = {}
    for qualname, node in records.items():
        fields = [ast.literal_eval(item.value) for item in node.body
                  if isinstance(item, ast.Assign)
                  and [getattr(t, "id", None) for t in item.targets] == ["FIELDS"]]
        if not (len(fields) == 1 and isinstance(fields[0], tuple) and fields[0]
                and all(isinstance(f, str) for f in fields[0])
                and len(set(fields[0])) == len(fields[0])):
            bad[qualname] = fields
    assert not bad, f"records without one non-empty FIELDS tuple of distinct names: {bad}"


def test_instance_dicts_are_written_only_by_the_record_constructor_and_the_memo():
    modules = _modules()
    writes = {id(node): f"{mod}.py:{node.lineno}"
              for mod, tree in modules.items() for node in _dict_writes(tree)}
    writers = set()
    for qualname, _, _, node in _definitions(modules, dunders=True):
        inside = {id(n) for n in ast.walk(node)} & writes.keys()
        if inside:
            writers.add(qualname)
            for key in inside:
                del writes[key]
    assert writers | set(writes.values()) == DICT_WRITERS, (
        f"instance dict written by {sorted(writers)} and at {sorted(writes.values())}")


def test_no_global_or_nonlocal_statement():
    # a state's derived data is kept on the state (its cached properties or
    # the pair-spectra memo) or in the layout lru_cache, never in a module
    # global that a function rebinds
    uses = sorted(f"{mod}.py:{node.lineno}" for mod, tree in _modules().items()
                  for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal)))
    assert not uses, f"global or nonlocal statement at {uses}"


def test_draws_come_from_random_not_numpy_random():
    # one draw rule: a seeded random.Random, as find_complete_twins uses
    uses = sorted(
        f"{mod}.py:{node.lineno}" for mod, tree in _modules().items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any("numpy.random" in f"{getattr(node, 'module', None)}.{a.name}" for a in node.names))
    assert not uses, f"numpy.random used at {uses}"


def test_only_spin_names_kron():
    # product operators are applied by local products (linops.apply_local,
    # linops.local_compress); spin builds its small ladder operators densely
    uses = sorted(
        f"{mod}.py:{node.lineno}" for mod, tree in _modules().items() if mod != "spin"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "kron"
        or isinstance(node, ast.Attribute) and node.attr == "kron"
        or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "kron"
        or isinstance(node, ast.alias) and "kron" in (node.name, node.asname))
    assert not uses, f"kron named at {uses}"


# The one rank-cut rule and the one grouping rule, by the form that the
# cut scan finds in each.
CUT_RULES = {"linops.rank_cut": "cut", "linops.group_starts": "grouping"}
# Comparisons of the cut form that are not rank cuts, each with the reason
# it stays; keyed by function and source text, so a new comparison in the
# same function is still found.
CUT_FORMS_ALLOWED = {
    ("linops.low_rank_cut", "theta[keep][0] - slack <= tol * (top + err)"):
        "certificate: the smallest kept Ritz value clears the cut by the residual and rounding",
    ("linops.low_rank_cut", "slack >= tol * (top - err)"):
        "certificate: zero, and so every dropped eigenvalue, clears the cut by the residual",
    ("states.BipartiteState.__init__", "vals[0] < -tol.rank_tol * max(vals[-1], 1.0)"):
        "positivity rule: rejects rho whose smallest eigenvalue is below -rank_tol * max(lambda_max, 1)",
    ("linops._fix_phases", "modulus >= _PIVOT_FLOOR * top"):
        "phase convention: picks the pivot entry of each eigenvector column; it counts nothing",
}
_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _reads_largest(node) -> bool:
    """node reads the largest of sorted values (s[0], s[-1]) or takes a
    maximum (max, np.max, .max)."""
    if isinstance(node, ast.Subscript):
        return ast.unparse(node.slice) in ("0", "-1")
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "max"


def _consecutive_difference(node) -> bool:
    """node is a[1:] - a[:-1] or a call of diff."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return (isinstance(node.left, ast.Subscript) and ast.unparse(node.left.slice) == "1:"
                and isinstance(node.right, ast.Subscript)
                and ast.unparse(node.right.slice) == ":-1")
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "diff"


def _cut_forms(fn: ast.AST) -> list:
    """[(form, source)] of the comparisons in fn, nested functions
    included, that decide a rank cut or a grouping: "cut" where a side
    is a product with a factor that reads a largest value, directly or
    through a name that fn binds to one, and "grouping" where a side is
    a difference of consecutive values."""
    largest = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
               and any(_reads_largest(n) for n in ast.walk(node.value))
               for target in node.targets if isinstance(target, ast.Name)}

    def scaled_largest(side) -> bool:
        side = side.operand if isinstance(side, ast.UnaryOp) else side
        return (isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                and any(_reads_largest(n) or isinstance(n, ast.Name) and n.id in largest
                        for n in ast.walk(side)))

    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare) and any(isinstance(op, _ORDER) for op in node.ops):
            sides = [node.left, *node.comparators]
            if any(scaled_largest(side) for side in sides):
                found.append(("cut", ast.unparse(node)))
            elif any(_consecutive_difference(side) for side in sides):
                found.append(("grouping", ast.unparse(node)))
    return found


def test_scan_finds_each_replaced_comparison():
    # the six comparisons that rank_cut and group_starts replaced, as
    # reference.py keeps them
    replaced = {reference.kernel_basis_rank: "cut", reference.range_null_keep: "cut",
                reference.low_rank_keep: "cut", reference.detectable_rank: "cut",
                reference.eigenspace_labels: "grouping", reference.cluster_starts: "grouping"}
    for fn, form in replaced.items():
        found = _cut_forms(ast.parse(inspect.getsource(fn)))
        assert [f for f, _ in found] == [form], (fn.__name__, found)


def test_rank_cuts_and_groupings_go_through_the_linops_rules():
    found = {(qualname, source): form for qualname, _, _, node in _definitions(_modules(), True)
             for form, source in _cut_forms(node)}
    rules = {qualname: form for (qualname, _), form in found.items() if qualname in CUT_RULES}
    assert rules == CUT_RULES, f"the rules' own comparisons are not found: {rules}"
    others = {key: form for key, form in found.items() if key[0] not in CUT_RULES}
    unexplained = sorted(set(others) - set(CUT_FORMS_ALLOWED))
    assert not unexplained, f"rank cut or grouping outside linops.rank_cut/group_starts: {unexplained}"
    stale = sorted(set(CUT_FORMS_ALLOWED) - set(others))
    assert not stale, f"CUT_FORMS_ALLOWED entries that are gone or reworded: {stale}"
