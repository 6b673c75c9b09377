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
"""

import ast
from pathlib import Path

import twinobs

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


def _definitions(modules: dict) -> list:
    """(qualified name, module, class or None, def node) of every
    module-level function and non-dunder method."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{mod}.{node.name}", mod, None, node))
            elif isinstance(node, ast.ClassDef):
                out.extend((f"{mod}.{node.name}.{item.name}", mod, node.name, item)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name))
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


def test_allowlist_names_only_uncalled_definitions():
    # an entry whose definition is gone or has gained a caller leaves the list
    stale = sorted(set(ALLOWED) - _orphans())
    assert not stale, f"ALLOWED entries that are gone or have a caller: {stale}"
