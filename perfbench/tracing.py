"""Outside-in layer spans for the traced benchmark run.

The program itself records no spans, so the traced run wraps the public
entry points of each ``repro`` layer from the outside.  A function is
patched wherever a caller looks it up: ``repro.core.updater`` imports
``translate_insertions``, ``maintain_insert`` and others by name, and
``repro.relview.insert`` does the same for the SAT functions, so patching
only the defining module would miss every call.  :meth:`Tracer.install`
therefore replaces the function object in every loaded ``repro`` module
that binds it, and methods on their class.

Spans nest on one stack (the benchmark is a single-threaded closed
loop).  A span's self time is its duration minus the time its child
spans cover.  Besides spans, a few wrappers count what the wrapped call
returned (SAT instance sizes, walksat give-ups, sweep derivations).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from repro.changefeed.hub import ChangefeedHub
from repro.core import maintenance
from repro.core.dag_eval import DagXPathEvaluator
from repro.relational.database import Database
from repro.relview import delete as relview_delete
from repro.relview import insert as relview_insert
from repro.sat import dpll, encode, walksat
from repro.service.facade import ViewService
from repro.subscribe.engine import SubscriptionRegistry
from repro.wal.log import WriteAheadLog
from repro.xpath import parser

#: The two spans an op starts with: a write or a read.
ROOTS = ("service.apply", "service.xpath")

#: Module-level functions: (span name, defining module, attribute).
FUNCTIONS = (
    ("xpath.parse_xpath", parser, "parse_xpath"),
    ("relview.translate_insertions", relview_insert, "translate_insertions"),
    ("relview.translate_deletions", relview_delete, "translate_deletions"),
    ("relview.expand_view_deletions", relview_delete, "expand_view_deletions"),
    ("sat.encode_formula", encode, "encode_formula"),
    ("sat.solve", walksat, "walksat_solve"),
    ("sat.solve", dpll, "dpll_solve"),
    ("maintenance.maintain", maintenance, "maintain_insert"),
    ("maintenance.maintain", maintenance, "maintain_delete"),
)

#: Methods: (span name, class, attribute).
METHODS = (
    ("service.apply", ViewService, "apply"),
    ("service.xpath", ViewService, "xpath"),
    ("relational.apply", Database, "apply"),
    ("subscribe.apply_batched", SubscriptionRegistry, "apply_batched"),
    ("changefeed.stage", ChangefeedHub, "stage"),
    ("changefeed.deliver", ChangefeedHub, "deliver"),
    ("wal.append", WriteAheadLog, "append"),
    ("wal.write_checkpoint", WriteAheadLog, "write_checkpoint"),
)

#: ``DagXPathEvaluator`` entry points; the span is named by the caller.
EVALUATOR_METHODS = ("evaluate", "evaluate_from")

#: Every span name the traced run reports, in report order.
SPANS = (
    "service.apply",
    "service.xpath",
    "xpath.parse_xpath",
    "dag_eval.write",
    "dag_eval.read",
    "relview.translate_insertions",
    "relview.translate_deletions",
    "relview.expand_view_deletions",
    "sat.encode_formula",
    "sat.solve",
    "relational.apply",
    "maintenance.maintain",
    "subscribe.apply_batched",
    "changefeed.stage",
    "changefeed.deliver",
    "wal.append",
    "wal.write_checkpoint",
)


class Tracer:
    """Records spans around the patched calls while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        """Finished spans: ``(name, start, end, parent index or -1)``."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.root_seconds = 0.0
        """Summed duration of the root (op) spans."""
        self.counts: dict[str, float] = defaultdict(float)
        """Counts read from wrapped calls' arguments and results."""
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3])
        self.calls[name] += 1
        self.self_seconds[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_seconds += duration

    def _wrap(self, name: str, original, observe=None):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _wrap_evaluator(self, original):
        # Evaluations on the plan path (parent: service.apply) are write
        # side, those under service.xpath are reads; evaluations made by
        # subscription maintenance stay in subscribe.apply_batched.
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            if parent == "service.apply":
                name = "dag_eval.write"
            elif parent == "service.xpath":
                name = "dag_eval.read"
            else:
                return original(*args, **kwargs)
            self._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit()

        traced.__wrapped__ = original
        return traced

    # -- counts from public outputs -------------------------------------------------------

    def _observe_solve(self, solver: str):
        def observe(args, result) -> None:
            cnf = args[0]
            self.counts["sat.solves"] += 1
            self.counts["sat.vars"] += cnf.num_vars
            self.counts["sat.clauses"] += len(cnf)
            if solver == "walksat":
                self.counts["sat.walksat_calls"] += 1
                self.counts["sat.walksat_giveups"] += result is None

        return observe

    def _observe_insertions(self, args, plan) -> None:
        self.counts["relview.insert_translations"] += 1
        self.counts["relview.derivations"] += plan.derivations_checked

    # -- patching ------------------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced entry point; :meth:`uninstall` undoes it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        observers = {
            "walksat_solve": self._observe_solve("walksat"),
            "dpll_solve": self._observe_solve("dpll"),
            "translate_insertions": self._observe_insertions,
        }
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for span, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            traced = self._wrap(span, original, observers.get(attr))
            for candidate in modules:
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, key, traced)
        for span, cls, attr in METHODS:
            self._patch(cls, attr, self._wrap(span, cls.__dict__[attr]))
        for attr in EVALUATOR_METHODS:
            original = DagXPathEvaluator.__dict__[attr]
            self._patch(DagXPathEvaluator, attr, self._wrap_evaluator(original))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError("tracer uninstalled inside an open span")
