"""Compiled delta-join plans over the edge views.

Every question the translators ask of an edge view is a join with some
columns already bound:

- the ΔR side-effect sweep of Algorithm insert binds one *seed*
  occurrence to a new tuple template and enumerates every completion —
  the delta rule of incremental view maintenance,
  ``ΔV = ⋃ᵢ R₁ ⋈ … ⋈ ΔRᵢ ⋈ … ⋈ Rₙ`` (Gupta, Mumick & Subrahmanian,
  SIGMOD 1993), one plan per seed position ``i``;
- ``matching_rows`` binds the visible columns of one edge;
- ``rows_referencing`` binds the key of one base occurrence.

:func:`compile_view` turns each of these into a :class:`JoinPlan` once
per view: a binding order in which every step probes a hash index on
columns whose values are already known (a constant, an argument, or a
cell of an occurrence bound earlier), plus, per step, the conjuncts that
step closes with their cell offsets precomputed.  :meth:`JoinPlan.execute`
runs a plan by depth-first extension; it is written once for both
callers, concrete point probes and the symbolic sweep, which passes its
own equality (``make_atom``) and symbolic cell type.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.relational.conditions import Col, Const, Eq, Predicate
from repro.relational.database import Database
from repro.relational.query import SPJQuery, eval_predicate
from repro.relational.schema import RelationSchema

Term = tuple[int, object]
"""A compiled term: ``(position, column index)`` into the bound rows, or
``(-1, value)`` for a constant.  Position ``n`` (one past the last table
occurrence) holds a point plan's arguments."""

PROBE = "probe"
"""Step access: hash-index lookup on values known to be concrete."""
PROBE_OR_SCAN = "probe-or-scan"
"""Step access: index lookup unless a probe value is still symbolic."""
SCAN = "scan"
"""Step access: every row of the relation."""


@dataclass(frozen=True)
class Check:
    """One conjunct, evaluated at the step that binds its last column."""

    pred: Predicate
    left: Term | None = None
    right: Term | None = None
    """Equalities: the two sides, decided by the caller's ``unify``."""
    columns: Mapping[Col, Term] | None = None
    """Every other conjunct: the term of each column it reads."""


@dataclass(frozen=True)
class PlanStep:
    """Bind one table occurrence."""

    alias: str
    relation: str
    position: int
    """Index of the occurrence in the query's ``tables``."""
    access: str
    probe_attrs: tuple[str, ...]
    """Index probed (``()`` for a scan), sorted as the index is keyed."""
    probe_terms: tuple[Term, ...]
    checks: tuple[Check, ...]
    takes_templates: bool = False
    """Sweep only: the position lies after the seed, so it may also take
    new tuple templates (each derivation is enumerated at its first new
    template's position, so none is found twice)."""

    def describe(self) -> str:
        if self.access == SCAN:
            how = "scan"
        else:
            how = f"{self.access}({', '.join(self.probe_attrs)})"
        extra = "+U" if self.takes_templates else ""
        return f"{self.alias}:{self.relation} {how}{extra}"


@dataclass(frozen=True)
class JoinPlan:
    """A compiled binding order for one view question."""

    name: str
    aliases: tuple[str, ...]
    """The query's table occurrences, in ``tables`` order."""
    seed: str | None
    """Alias bound to a seed tuple before the first step (sweep plans)."""
    seed_checks: tuple[Check, ...]
    steps: tuple[PlanStep, ...]
    project: tuple[Term, ...]

    @property
    def binding_order(self) -> tuple[str, ...]:
        """Aliases in the order the plan binds them (seed first)."""
        head = (self.seed,) if self.seed is not None else ()
        return head + tuple(step.alias for step in self.steps)

    def __repr__(self) -> str:
        parts = [f"{self.seed}:seed"] if self.seed is not None else []
        parts.extend(step.describe() for step in self.steps)
        return f"<JoinPlan {self.name}: {' -> '.join(parts)}>"

    def execute(
        self,
        db: Database,
        seed: tuple | None = None,
        args: tuple = (),
        templates: Mapping[str, Sequence[tuple]] | None = None,
        unify: Callable[[object, object], object] = operator.eq,
        symbolic: type | None = None,
    ) -> list[tuple[tuple, tuple]]:
        """Every completion as ``(projected row, atoms)``.

        ``seed`` is the row bound at the seed position (sweep plans);
        ``args`` are the values bound by a point plan.  ``unify(left,
        right)`` decides an equality: ``True``/``False``, or an atom
        recorded as the condition under which the completion holds.
        Cells of type ``symbolic`` are never used as probe values, and a
        non-equality conjunct over them is left undecided.  ``templates``
        are extra candidate rows, per relation, for steps that take
        templates.
        """
        bound: list = [None] * len(self.aliases)
        bound.append(args)
        if self.seed is not None:
            bound[self.aliases.index(self.seed)] = seed
        out: list[tuple[tuple, tuple]] = []
        atoms: list = []
        if _passes(self.seed_checks, bound, unify, symbolic, atoms):
            self._extend(0, db, bound, templates, unify, symbolic, atoms, out)
        return out

    def _extend(self, i, db, bound, templates, unify, symbolic, atoms, out):
        if i == len(self.steps):
            row = tuple(
                value if pos < 0 else bound[pos][value]
                for pos, value in self.project
            )
            out.append((row, tuple(atoms)))
            return
        step = self.steps[i]
        candidates = _candidates(step, db, bound, symbolic)
        if templates and step.takes_templates:
            candidates.extend(templates.get(step.relation, ()))
        position = step.position
        for values in candidates:
            bound[position] = values
            mark = len(atoms)
            if _passes(step.checks, bound, unify, symbolic, atoms):
                self._extend(
                    i + 1, db, bound, templates, unify, symbolic, atoms, out
                )
            del atoms[mark:]
        bound[position] = None


def _cell(term: Term, bound: list):
    pos, value = term
    return value if pos < 0 else bound[pos][value]


def _candidates(step: PlanStep, db: Database, bound: list, symbolic):
    table = db.table(step.relation)
    if step.probe_terms:
        values = tuple(_cell(term, bound) for term in step.probe_terms)
        if symbolic is None or not any(isinstance(v, symbolic) for v in values):
            return table.lookup(step.probe_attrs, values)
    return list(table.rows())


def _passes(checks, bound, unify, symbolic, atoms: list) -> bool:
    for check in checks:
        if check.columns is None:
            result = unify(_cell(check.left, bound), _cell(check.right, bound))
            if result is False:
                return False
            if result is not True:
                atoms.append(result)
            continue
        values = {col: _cell(term, bound) for col, term in check.columns.items()}
        if symbolic is not None and any(
            isinstance(v, symbolic) for v in values.values()
        ):
            continue  # undecided while symbolic: conservatively kept
        if not eval_predicate(check.pred, values.__getitem__):
            return False
    return True


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewPlans:
    """All compiled plans of one edge view."""

    sweep: tuple[JoinPlan, ...]
    """One plan per seed position, in ``tables`` order."""
    matching: JoinPlan
    """Visible columns (parent params, child sem) bound as arguments."""
    referencing: Mapping[str, JoinPlan]
    """Per alias: that occurrence's primary key bound as arguments."""

    def all(self) -> list[JoinPlan]:
        return [*self.sweep, self.matching, *self.referencing.values()]

    def explain(self) -> str:
        return "\n".join(f"  plan {plan!r}" for plan in self.all())


def compile_view(
    name: str,
    query: SPJQuery,
    n_visible: int,
    key_slots: Mapping[str, Sequence[str]],
    schemas: Mapping[str, RelationSchema],
) -> ViewPlans:
    """Compile the sweep, matching and referencing plans of one view.

    The first ``n_visible`` output columns of ``query`` are the edge's
    visible part; ``key_slots`` gives each alias's key attributes in
    output order.
    """
    project = [col for _, col in query.project]
    compiler = _Compiler(name, query.tables, query.where, project, schemas)
    sweep = tuple(
        compiler.plan(f"{name}[seed {alias}]", seed=alias)
        for _, alias in query.tables
    )
    matching = compiler.plan(
        f"{name}[matching]",
        args=[(col.alias, col.attr) for col in project[:n_visible]],
    )
    referencing = {
        alias: compiler.plan(
            f"{name}[referencing {alias}]",
            args=[(alias, attr) for attr in attrs],
        )
        for alias, attrs in sorted(key_slots.items())
    }
    return ViewPlans(sweep, matching, referencing)


class _Compiler:
    def __init__(self, name, tables, where, project, schemas):
        self.name = name
        self.tables = list(tables)
        self.position = {alias: i for i, (_, alias) in enumerate(self.tables)}
        self.relation = {alias: rel for rel, alias in self.tables}
        self.schemas = schemas
        self.conjuncts = list(where.conjuncts())
        self.project = list(project)

    def _col_term(self, col: Col) -> Term:
        schema = self.schemas[self.relation[col.alias]]
        return (self.position[col.alias], schema.index_of(col.attr))

    def _term(self, term) -> Term:
        if isinstance(term, Col):
            return self._col_term(term)
        if isinstance(term, _Arg):
            return term.term
        if isinstance(term, Const):
            return (-1, term.value)
        raise TypeError(f"unsupported term {term!r} in edge view {self.name}")

    def plan(
        self,
        name: str,
        seed: str | None = None,
        args: Sequence[tuple[str, str]] = (),
    ) -> JoinPlan:
        n = len(self.tables)
        # Arguments become equalities against the argument slot ``n``,
        # one per argument: two arguments may name the same column.
        conjuncts: list[Predicate] = list(self.conjuncts)
        conjuncts.extend(
            Eq(Col(*col), _Arg((n, i))) for i, col in enumerate(args)
        )
        symbolic = seed is not None
        bound: set[str] = {seed} if seed is not None else set()
        pending = list(conjuncts)

        def closed_checks() -> tuple[Check, ...]:
            ready = [c for c in pending if _aliases(c) <= bound]
            for c in ready:
                pending.remove(c)
            return tuple(self._check(c) for c in ready)

        seed_checks = closed_checks()
        steps: list[PlanStep] = []
        seed_pos = self.position[seed] if seed is not None else n
        unbound = [alias for _, alias in self.tables if alias not in bound]
        while unbound:
            options = [
                (self._access(alias, bound, conjuncts, symbolic), alias)
                for alias in unbound
            ]
            (_, access, attrs, terms), alias = min(
                options, key=lambda o: (o[0][0], self.position[o[1]])
            )
            bound.add(alias)
            unbound.remove(alias)
            steps.append(
                PlanStep(
                    alias=alias,
                    relation=self.relation[alias],
                    position=self.position[alias],
                    access=access,
                    probe_attrs=attrs,
                    probe_terms=terms,
                    checks=closed_checks(),
                    takes_templates=symbolic and self.position[alias] > seed_pos,
                )
            )
        return JoinPlan(
            name=name,
            aliases=tuple(alias for _, alias in self.tables),
            seed=seed,
            seed_checks=seed_checks,
            steps=tuple(steps),
            project=tuple(self._col_term(col) for col in self.project),
        )

    def _access(self, alias, bound, conjuncts, symbolic):
        """Best index probe for ``alias`` given the bound occurrences.

        Returns ``(rank, access, probe attrs, probe terms)``; a lower rank
        is better, and a probe on the whole key (at most one row) is
        best.  In a sweep plan only key cells of bound occurrences are
        certain to be concrete (template keys always are); other cells
        may still be symbolic at run time.
        """
        schema = self.schemas[self.relation[alias]]
        sure: dict[str, Term] = {}
        maybe: dict[str, Term] = {}
        for conjunct in conjuncts:
            if not isinstance(conjunct, Eq):
                continue
            for this, other in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not (isinstance(this, Col) and this.alias == alias):
                    continue
                if isinstance(other, _Arg):
                    sure.setdefault(this.attr, other.term)
                elif isinstance(other, Const):
                    sure.setdefault(this.attr, (-1, other.value))
                elif isinstance(other, Col) and other.alias in bound:
                    other_key = self.schemas[self.relation[other.alias]].key
                    target = (
                        sure
                        if not symbolic or other.attr in other_key
                        else maybe
                    )
                    target.setdefault(this.attr, self._col_term(other))
        key = tuple(sorted(schema.key))
        if sure:
            if all(attr in sure for attr in key):
                return 0, PROBE, key, tuple(sure[a] for a in key)
            attr = next(iter(sure))
            return 1, PROBE, (attr,), (sure[attr],)
        if maybe:
            attr = next(iter(maybe))
            return 2, PROBE_OR_SCAN, (attr,), (maybe[attr],)
        return 3, SCAN, (), ()

    def _check(self, conjunct: Predicate) -> Check:
        if isinstance(conjunct, Eq):
            return Check(
                conjunct,
                left=self._term(conjunct.left),
                right=self._term(conjunct.right),
            )
        return Check(
            conjunct,
            columns={col: self._col_term(col) for col in conjunct.columns()},
        )


@dataclass(frozen=True)
class _Arg:
    """A runtime argument as the right side of a compiled equality."""

    term: Term


def _aliases(conjunct: Predicate) -> set[str]:
    return {col.alias for col in conjunct.columns()}
