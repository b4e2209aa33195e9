"""Unit tests for the XPath parser and normal form."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    DescendantStep,
    ExistsPath,
    FAnd,
    FNot,
    FOr,
    FilterStep,
    LabelStep,
    LabelTest,
    ValueEq,
    WildcardStep,
    XPath,
)
from repro.xpath.parser import MAX_FILTER_DEPTH, parse_xpath


class TestBasicPaths:
    def test_single_label(self):
        path = parse_xpath("course")
        assert path.steps == (LabelStep("course"),)

    def test_child_chain(self):
        path = parse_xpath("course/prereq/course")
        assert path.steps == (
            LabelStep("course"),
            LabelStep("prereq"),
            LabelStep("course"),
        )

    def test_leading_slash_optional(self):
        assert parse_xpath("/course") == parse_xpath("course")

    def test_leading_descendant(self):
        path = parse_xpath("//student")
        assert path.steps == (DescendantStep(), LabelStep("student"))

    def test_inner_descendant(self):
        path = parse_xpath("course//student")
        assert path.steps == (
            LabelStep("course"),
            DescendantStep(),
            LabelStep("student"),
        )

    def test_wildcard(self):
        path = parse_xpath("course/*")
        assert path.steps == (LabelStep("course"), WildcardStep())

    def test_self_dot_is_identity(self):
        assert parse_xpath(".").steps == ()

    def test_consecutive_descendants_collapse(self):
        from repro.xpath.ast import normalize_steps

        steps = normalize_steps(
            [LabelStep("a"), DescendantStep(), DescendantStep(), LabelStep("b")]
        )
        assert steps == parse_xpath("a//b").steps

    def test_whitespace_tolerated(self):
        assert parse_xpath(" course / prereq ") == parse_xpath("course/prereq")

    def test_trailing_descendant_abbreviation(self):
        """The paper abbreviates p1/ // as p1// (Section 2.1)."""
        path = parse_xpath("course//")
        assert path.steps == (LabelStep("course"), DescendantStep())

    def test_bare_descendant(self):
        assert parse_xpath("//").steps == (DescendantStep(),)


class TestFilters:
    def test_value_filter_bare_constant(self):
        path = parse_xpath("course[cno=CS650]")
        label, filt = path.steps
        assert label == LabelStep("course")
        assert isinstance(filt, FilterStep)
        assert filt.filter == ValueEq(XPath((LabelStep("cno"),)), "CS650")

    def test_value_filter_quoted(self):
        path = parse_xpath('student[ssn="S02"]')
        filt = path.steps[1].filter
        assert filt == ValueEq(XPath((LabelStep("ssn"),)), "S02")
        assert parse_xpath("student[ssn='S02']") == path

    def test_numeric_constant(self):
        path = parse_xpath("cnode[key=42]")
        assert path.steps[1].filter == ValueEq(
            XPath((LabelStep("key"),)), "42"
        )

    def test_existential_path_filter(self):
        path = parse_xpath("course[prereq/course]")
        filt = path.steps[1].filter
        assert filt == ExistsPath(
            XPath((LabelStep("prereq"), LabelStep("course")))
        )

    def test_label_test(self):
        path = parse_xpath("*[label()=course]")
        assert path.steps[1].filter == LabelTest("course")

    def test_and_or_not(self):
        path = parse_xpath("a[b and not(c) or d]")
        filt = path.steps[1].filter
        assert isinstance(filt, FOr)
        left, right = filt.parts
        assert isinstance(left, FAnd)
        assert isinstance(left.parts[1], FNot)
        assert isinstance(right, ExistsPath)

    def test_parenthesized_filter(self):
        path = parse_xpath("a[(b or c) and d]")
        filt = path.steps[1].filter
        assert isinstance(filt, FAnd)
        assert isinstance(filt.parts[0], FOr)

    def test_multiple_filters_fused(self):
        # p[q1][q2] ≡ p[q1 ∧ q2]
        path = parse_xpath("a[b][c]")
        filt = path.steps[1].filter
        assert isinstance(filt, FAnd)
        assert len(filt.parts) == 2

    def test_filter_with_descendant_path(self):
        path = parse_xpath("a[//b]")
        filt = path.steps[1].filter
        assert filt == ExistsPath(
            XPath((DescendantStep(), LabelStep("b")))
        )

    def test_self_value_filter(self):
        path = parse_xpath('a[.="x"]')
        assert path.steps[1].filter == ValueEq(XPath(()), "x")

    def test_nested_filters(self):
        path = parse_xpath("a[b[c=1]/d]")
        outer = path.steps[1].filter
        assert isinstance(outer, ExistsPath)
        inner_steps = outer.path.steps
        assert inner_steps[0] == LabelStep("b")
        assert isinstance(inner_steps[1], FilterStep)
        assert inner_steps[2] == LabelStep("d")

    def test_filter_on_wildcard(self):
        path = parse_xpath("*[label()=course and cno=CS1]")
        assert isinstance(path.steps[0], WildcardStep)
        assert isinstance(path.steps[1].filter, FAnd)


class TestQuotedLiterals:
    """Regression: ``_parse_constant`` stripped the outer quote pair with
    no escape handling, so constants containing quotes (or the empty
    string round-tripped through ``str()``) were unrepresentable."""

    def test_double_quoted_may_contain_single_quote(self):
        path = parse_xpath('student[name="O\'Brien"]')
        assert path.steps[1].filter.value == "O'Brien"

    def test_single_quoted_may_contain_double_quote(self):
        path = parse_xpath("student[name='say \"hi\"']")
        assert path.steps[1].filter.value == 'say "hi"'

    def test_doubled_quote_escapes(self):
        assert (
            parse_xpath('a[x="he said ""hi"""]').steps[1].filter.value
            == 'he said "hi"'
        )
        assert parse_xpath("a[x='it''s']").steps[1].filter.value == "it's"

    def test_empty_string_constant(self):
        assert parse_xpath('a[x=""]').steps[1].filter.value == ""
        assert parse_xpath("a[x='']").steps[1].filter.value == ""

    def test_adjacent_strings_stay_separate_tokens(self):
        # Greedy matching must not swallow two literals into one.
        path = parse_xpath('a[x="1" and y="2"]')
        filters = path.steps[1].filter.parts
        assert [f.value for f in filters] == ["1", "2"]

    @pytest.mark.parametrize(
        "value",
        [
            "plain",
            "",
            "it's",
            'say "hi"',
            "both 'and' \"q\"",
            'only ""doubles""',
        ],
    )
    def test_value_eq_serialization_round_trips(self, value):
        original = XPath(
            (LabelStep("a"), FilterStep(ValueEq(XPath(()), value)))
        )
        assert parse_xpath(str(original)) == original

    def test_unterminated_string_is_a_syntax_error(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath('a[x="oops]')


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a[",
            "a]",
            "a[]",
            "a[=5]",
            "a/",
            "a[b=]",
            "a b",
            "a[label(=x]",
            "$x",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)


def _nested(depth: int, opener: str = "[not(b", closer: str = ")]") -> str:
    return "a" + opener * depth + closer * depth


class TestNestingLimit:
    """Deep filter nesting is a syntax error, not a RecursionError."""

    @pytest.mark.parametrize(
        "opener, closer", [("[not(b", ")]"), ("[b", "]"), ("[(b", ")]")]
    )
    def test_deep_nesting_rejected(self, opener, closer):
        with pytest.raises(XPathSyntaxError, match="nested deeper"):
            parse_xpath(_nested(3000, opener, closer))

    def test_limit_itself_parses_renders_and_evaluates(self):
        from repro.service import open_view
        from repro.workloads.registrar import build_registrar

        with pytest.raises(XPathSyntaxError, match="nested deeper"):
            parse_xpath(_nested(MAX_FILTER_DEPTH + 1, "[b", "]"))
        # ``[not(b`` opens two filter levels per repetition.
        text = _nested(MAX_FILTER_DEPTH // 2)
        parsed = parse_xpath(text)
        assert parse_xpath(str(parsed)) == parsed
        atg, db = build_registrar()
        service = open_view(atg, db)
        assert service.xpath(text).targets == []
        service.subscribe(text)

    def test_service_rejects_deep_path_without_side_effects(self):
        from repro.ops import DeleteOp
        from repro.service import open_view
        from repro.workloads.registrar import build_registrar

        atg, db = build_registrar()
        service = open_view(atg, db)
        before = service.stats()["generation"]
        deep = _nested(3000)
        with pytest.raises(XPathSyntaxError):
            parse_xpath(deep)
        with pytest.raises(XPathSyntaxError):
            service.apply(DeleteOp(deep))
        # The rejected write left no outstanding plan behind.
        assert service.stats()["generation"] == before
        assert service.check_consistency() == []
        outcome = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert outcome.accepted


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "course",
            "course/prereq/course",
            "//student",
            "course[cno=CS650]//course[cno=CS320]/prereq",
            "a[b and c]",
            "*[label()=course]",
        ],
    )
    def test_str_reparses_to_same_ast(self, text):
        path = parse_xpath(text)
        assert parse_xpath(str(path)) == path

    def test_size(self):
        small = parse_xpath("a")
        big = parse_xpath("a[b=1 and c]/d//e")
        assert big.size() > small.size()

    def test_last_child_step_index(self):
        path = parse_xpath("a/b[c=1]")
        # steps: Label(a), Label(b), Filter -> last child step at index 1
        assert path.last_child_step_index == 1
        assert parse_xpath(".").last_child_step_index is None
