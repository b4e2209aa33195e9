"""Recursive-descent parser for the paper's XPath fragment.

Accepted syntax (examples from the paper)::

    course[cno=CS650]//course[cno=CS320]/prereq
    //course[cno=CS320]//student[sid=S02]
    //student[sid="S02"]
    course[prereq/course and not(label()=project)]/takenBy

Constants on the right of ``=`` may be quoted (single or double) or bare
alphanumeric tokens (the paper writes ``cno=CS650``); both denote string
values.  Quoted literals follow standard XPath string semantics: a
single-quoted literal may contain ``"`` and vice versa, and the
delimiting quote itself may appear doubled — 'it''s' denotes the string
``it's``.  ``and``/``or``/``not(...)`` build Boolean filters;
``label()=A`` tests the context node's type.  Filters may nest at most
:data:`MAX_FILTER_DEPTH` deep; deeper input is a syntax error rather
than a parser (or evaluator) stack overflow.
"""

from __future__ import annotations

import re

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    DescendantStep,
    ExistsPath,
    FAnd,
    FNot,
    FOr,
    Filter,
    FilterStep,
    LabelStep,
    LabelTest,
    Step,
    ValueEq,
    WildcardStep,
    XPath,
    fand,
    normalize_steps,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<dslash>//)
  | (?P<slash>/)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<eq>=)
  | (?P<star>\*)
  | (?P<dot>\.)
  | (?P<string>"(?:[^"]|"")*"|'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

#: Deepest accepted nesting of filters (``[...]``, ``not(...)`` and
#: parenthesized groups).  Parsing, evaluation and dependency analysis
#: all recurse once per level, so the bound keeps every stage well
#: inside the interpreter's recursion limit.
MAX_FILTER_DEPTH = 64


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise XPathSyntaxError(
                    f"unexpected character {text[pos]!r} at position {pos} in {text!r}"
                )
            kind = match.lastgroup
            if kind != "ws":
                self.items.append((kind, match.group()))
            pos = match.end()
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str] | None:
        if self.index < len(self.items):
            return self.items[self.index]
        return None

    def next(self) -> tuple[str, str]:
        item = self.peek()
        if item is None:
            raise XPathSyntaxError(f"unexpected end of input in {self.text!r}")
        self.index += 1
        return item

    def accept(self, kind: str) -> str | None:
        item = self.peek()
        if item is not None and item[0] == kind:
            self.index += 1
            return item[1]
        return None

    def expect(self, kind: str) -> str:
        value = self.accept(kind)
        if value is None:
            found = self.peek()
            raise XPathSyntaxError(
                f"expected {kind} but found {found!r} in {self.text!r}"
            )
        return value

    def done(self) -> bool:
        return self.index >= len(self.items)


def parse_xpath(text: str) -> XPath:
    """Parse an XPath expression of the supported fragment."""
    tokens = _Tokens(text)
    path = _parse_path(tokens)
    if not tokens.done():
        raise XPathSyntaxError(
            f"trailing tokens {tokens.items[tokens.index:]} in {text!r}"
        )
    return path


def _parse_path(tokens: _Tokens) -> XPath:
    steps: list[Step] = []
    # Optional leading separator.
    if tokens.accept("dslash") is not None:
        steps.append(DescendantStep())
        if tokens.done():  # bare "//": every node
            return XPath(normalize_steps(steps))
    else:
        tokens.accept("slash")
    _parse_step(tokens, steps)
    while True:
        if tokens.accept("dslash") is not None:
            steps.append(DescendantStep())
            if tokens.done():
                # The paper's abbreviation: p1// stands for p1/ //.
                break
            _parse_step(tokens, steps)
        elif tokens.accept("slash") is not None:
            _parse_step(tokens, steps)
        else:
            break
    return XPath(normalize_steps(steps))


def _parse_step(tokens: _Tokens, steps: list[Step]) -> None:
    if tokens.accept("star") is not None:
        steps.append(WildcardStep())
    elif tokens.accept("dot") is not None:
        pass  # self step: contributes nothing unless it has filters
    else:
        name = tokens.expect("name")
        steps.append(LabelStep(name))
    filters: list[Filter] = []
    while tokens.accept("lbracket") is not None:
        filters.append(_parse_filter(tokens))
        tokens.expect("rbracket")
    if filters:
        steps.append(FilterStep(fand(*filters)))


def _parse_filter(tokens: _Tokens) -> Filter:
    if tokens.depth >= MAX_FILTER_DEPTH:
        raise XPathSyntaxError(
            f"filters nested deeper than {MAX_FILTER_DEPTH} levels "
            f"(path starts {tokens.text[:60]!r})"
        )
    tokens.depth += 1
    try:
        return _parse_or(tokens)
    finally:
        tokens.depth -= 1


def _parse_or(tokens: _Tokens) -> Filter:
    parts = [_parse_and(tokens)]
    while _accept_keyword(tokens, "or"):
        parts.append(_parse_and(tokens))
    if len(parts) == 1:
        return parts[0]
    return FOr(tuple(parts))


def _parse_and(tokens: _Tokens) -> Filter:
    parts = [_parse_unary(tokens)]
    while _accept_keyword(tokens, "and"):
        parts.append(_parse_unary(tokens))
    if len(parts) == 1:
        return parts[0]
    return FAnd(tuple(parts))


def _accept_keyword(tokens: _Tokens, keyword: str) -> bool:
    item = tokens.peek()
    if item is not None and item[0] == "name" and item[1] == keyword:
        tokens.next()
        return True
    return False


def _parse_unary(tokens: _Tokens) -> Filter:
    item = tokens.peek()
    if item is not None and item[0] == "name" and item[1] == "not":
        after = (
            tokens.items[tokens.index + 1]
            if tokens.index + 1 < len(tokens.items)
            else None
        )
        if after is not None and after[0] == "lparen":
            tokens.next()  # not
            tokens.next()  # (
            inner = _parse_filter(tokens)
            tokens.expect("rparen")
            return FNot(inner)
    if tokens.accept("lparen") is not None:
        inner = _parse_filter(tokens)
        tokens.expect("rparen")
        return inner
    return _parse_comparison(tokens)


def _parse_comparison(tokens: _Tokens) -> Filter:
    # label() = A
    item = tokens.peek()
    if item is not None and item[0] == "name" and item[1] == "label":
        after = (
            tokens.items[tokens.index + 1]
            if tokens.index + 1 < len(tokens.items)
            else None
        )
        if after is not None and after[0] == "lparen":
            tokens.next()  # label
            tokens.next()  # (
            tokens.expect("rparen")
            tokens.expect("eq")
            label = tokens.expect("name")
            return LabelTest(label)
    # Relative path, optionally compared to a constant.
    before = tokens.index
    path = _parse_relative_path(tokens)
    if tokens.index == before:
        raise XPathSyntaxError(f"empty filter expression in {tokens.text!r}")
    if tokens.accept("eq") is not None:
        value = _parse_constant(tokens)
        return ValueEq(path, value)
    if not path.steps:
        raise XPathSyntaxError(f"empty filter expression in {tokens.text!r}")
    return ExistsPath(path)


def _parse_relative_path(tokens: _Tokens) -> XPath:
    steps: list[Step] = []
    if tokens.accept("dslash") is not None:
        steps.append(DescendantStep())
    item = tokens.peek()
    if item is None or item[0] not in ("star", "dot", "name"):
        if steps:
            raise XPathSyntaxError(f"dangling // in filter in {tokens.text!r}")
        return XPath(())
    _parse_step(tokens, steps)
    while True:
        item = tokens.peek()
        if item is None:
            break
        if item[0] == "dslash":
            tokens.next()
            steps.append(DescendantStep())
            _parse_step(tokens, steps)
        elif item[0] == "slash":
            tokens.next()
            _parse_step(tokens, steps)
        else:
            break
    return XPath(normalize_steps(steps))


def _parse_constant(tokens: _Tokens) -> str:
    item = tokens.peek()
    if item is None:
        raise XPathSyntaxError(f"expected a constant in {tokens.text!r}")
    kind, value = item
    if kind == "string":
        tokens.next()
        # Standard XPath string semantics: the delimiting quote may
        # appear inside the literal doubled ("" inside "..." and ''
        # inside '...'); the other quote style needs no escape.
        quote = value[0]
        return value[1:-1].replace(quote + quote, quote)
    if kind in ("name", "number"):
        tokens.next()
        return value
    raise XPathSyntaxError(f"expected a constant but found {value!r}")
