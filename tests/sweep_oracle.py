"""The nested-loop side-effect sweep, kept as a test-only oracle.

This is Algorithm insert's stage-3 sweep as it ran before the compiled
delta-join plans (:mod:`repro.views.plans`): for every seed position and
every new template, extend the partial assignment alias by alias in the
query's table order, fetching candidates by an index lookup on concrete
equality values (or a scan) and re-checking every equality conjunct the
alias closes.  It skips non-equality conjuncts entirely.  The
differential tests compare the compiled sweep against it.
"""

from __future__ import annotations

from repro.relational.conditions import And, Col, Const, Eq, Predicate
from repro.relational.query import SPJQuery
from repro.relational.database import Database
from repro.errors import UpdateRejectedError
from repro.relview.symbolic import Atom, Derivation, SymVar, Template, make_atom
from repro.views.registry import EdgeView, EdgeViewRegistry


def sweep_side_effects(
    registry: EdgeViewRegistry,
    db: Database,
    templates: dict[tuple[str, tuple], Template],
) -> list[Derivation]:
    """Every symbolic derivation (of any view) using ≥1 new template."""
    new_by_relation: dict[str, list[Template]] = {}
    for template in templates.values():
        if template.is_new:
            new_by_relation.setdefault(template.relation, []).append(template)
    if not new_by_relation:
        return []
    derivations: list[Derivation] = []
    for view in registry.views():
        derivations.extend(_sweep_view(view, db, new_by_relation))
    return derivations

def _sweep_view(
    view: EdgeView,
    db: Database,
    new_by_relation: dict[str, list[Template]],
) -> list[Derivation]:
    query = view.query
    tables = list(query.tables)
    relations = [relation for relation, _ in tables]
    if not any(rel in new_by_relation for rel in relations):
        return []
    conjuncts = list(query.where.conjuncts())
    out: list[Derivation] = []
    for seed_pos, (relation, alias) in enumerate(tables):
        for seed in new_by_relation.get(relation, ()):  # U at seed position
            partial: dict[str, tuple] = {alias: seed.values}
            atoms = _alias_atoms(db, query, conjuncts, alias, partial)
            if atoms is None:
                continue
            out.extend(
                _extend(
                    view,
                    db,
                    new_by_relation,
                    tables,
                    conjuncts,
                    seed_pos,
                    partial,
                    frozenset(atoms),
                    skip={alias},
                )
            )
    return out


def _extend(
    view: EdgeView,
    db: Database,
    new_by_relation: dict[str, list[Template]],
    tables: list[tuple[str, str]],
    conjuncts: list[Predicate],
    seed_pos: int,
    partial: dict[str, tuple],
    atoms: frozenset[Atom],
    skip: set[str],
) -> list[Derivation]:
    """Nested-loop extension of a partial symbolic assignment."""
    remaining = [
        (i, rel, alias)
        for i, (rel, alias) in enumerate(tables)
        if alias not in partial
    ]
    if not remaining:
        row = tuple(
            partial[col.alias][
                db.schema(_relation_of_t(tables, col.alias)).index_of(col.attr)
            ]
            for _, col in view.query.project
        )
        return [Derivation(view.name, row, atoms)]
    index, relation, alias = remaining[0]
    out: list[Derivation] = []
    candidates: list[tuple[tuple, bool]] = []
    for row in _concrete_candidates(db, view.query, relation, alias, conjuncts, partial):
        candidates.append((row, False))
    if index > seed_pos:
        # Positions after the seed may also take new templates.
        for template in new_by_relation.get(relation, ()):  # U again
            candidates.append((template.values, True))
    for values, _is_template in candidates:
        trial = dict(partial)
        trial[alias] = values
        extra = _alias_atoms(db, view.query, conjuncts, alias, trial)
        if extra is None:
            continue
        out.extend(
            _extend(
                view,
                db,
                new_by_relation,
                tables,
                conjuncts,
                seed_pos,
                trial,
                atoms | frozenset(extra),
                skip,
            )
        )
    return out


def _relation_of_t(tables: list[tuple[str, str]], alias: str) -> str:
    for relation, a in tables:
        if a == alias:
            return relation
    raise KeyError(alias)


def _concrete_candidates(
    db: Database,
    query,
    relation: str,
    alias: str,
    conjuncts: list[Predicate],
    partial: dict[str, tuple],
) -> list[tuple]:
    """Base rows for ``alias`` compatible with concrete bound values.

    Uses indexed point lookups on equality conjuncts whose other side is
    already bound to a *concrete* value.
    """
    table = db.table(relation)
    eq_attrs: list[str] = []
    eq_values: list[object] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, Eq):
            continue
        pairs = [
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ]
        for this, other in pairs:
            if not (isinstance(this, Col) and this.alias == alias):
                continue
            if isinstance(other, Const):
                eq_attrs.append(this.attr)
                eq_values.append(other.value)
            elif isinstance(other, Col) and other.alias in partial:
                cell = _term_cell(db, query, partial, other)
                if not isinstance(cell, SymVar):
                    eq_attrs.append(this.attr)
                    eq_values.append(cell)
            break
    if eq_attrs:
        order = sorted(range(len(eq_attrs)), key=lambda i: eq_attrs[i])
        attrs = tuple(eq_attrs[i] for i in order)
        values = tuple(eq_values[i] for i in order)
        if not table.has_index(attrs) and len(attrs) > 1:
            # Fall back to the first single attribute.
            attrs = (attrs[0],)
            values = (values[0],)
        return table.lookup(attrs, values)
    return list(table.rows())


def _alias_atoms(
    db: Database,
    query,
    conjuncts: list[Predicate],
    alias: str,
    partial: dict[str, tuple],
) -> list[Atom] | None:
    """Check/collect conditions that became fully bound by adding ``alias``.

    Returns ``None`` when a concrete condition fails; otherwise the atoms
    contributed by symbolic comparisons.
    """
    atoms: list[Atom] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, Eq):
            continue
        cols = list(conjunct.columns())
        if not any(c.alias == alias for c in cols):
            continue
        if any(c.alias not in partial for c in cols):
            continue
        left = _term_cell(db, query, partial, conjunct.left)
        right = _term_cell(db, query, partial, conjunct.right)
        result = make_atom(left, right)
        if result is False:
            return None
        if result is not True:
            atoms.append(result)
    return atoms


def _term_cell(db: Database, query, partial: dict[str, tuple], term):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Col):
        relation = query.relation_of(term.alias)
        return partial[term.alias][db.schema(relation).index_of(term.attr)]
    raise UpdateRejectedError(f"unsupported term {term!r} in insertion sweep")



def narrowed_matching_rows(
    view: EdgeView, db: Database, parent_params: tuple, child_sem: tuple
) -> list[tuple]:
    """``matching_rows`` as a narrowed SPJ query (visible columns bound)."""
    visible = list(parent_params) + list(child_sem)
    extra = [
        Eq(col, Const(value))
        for (_, col), value in zip(view.query.project, visible)
    ]
    return _narrowed(view, db, extra)


def narrowed_rows_referencing(
    view: EdgeView, db: Database, alias: str, key: tuple
) -> list[tuple]:
    """``rows_referencing`` as a narrowed SPJ query (one key bound)."""
    _, slots = view.key_layout[alias]
    extra = [
        Eq(Col(alias, attr), Const(value))
        for (_, attr), value in zip(slots, key)
    ]
    return _narrowed(view, db, extra)


def _narrowed(view: EdgeView, db: Database, extra: list[Predicate]) -> list[tuple]:
    query = view.query
    narrowed = SPJQuery(
        f"{query.name}__point", query.tables, query.project,
        And(query.where, *extra),
    )
    return narrowed.evaluate(db).rows
