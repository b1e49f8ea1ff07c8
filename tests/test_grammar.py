import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from nonbasis import gapset, grammar
from nonbasis.errors import MalformedSpec, UncertifiableTail
from nonbasis.families import Params, build_gapped
from nonbasis.intset import ModClass, ModClassNonneg, Singleton, Union

from test_intset import SPECS


def test_family_spec_text():
    fam = build_gapped(Params(2, 0, 1, "n0"), gapset.Geometric(2, 1))
    assert (
        grammar.format_spec(fam.spec)
        == "union(single:0,affine(2,1,diff(nonneg,gap(geometric,2,1))))"
    )


def test_parse_accepts_spaces():
    text = "union(single:0, affine(2,1, diff(nonneg, gap(geometric,2,1))))"
    fam = build_gapped(Params(2, 0, 1, "n0"), gapset.Geometric(2, 1))
    assert grammar.parse_spec(text) == fam.spec


@settings(max_examples=300, deadline=None)
@given(SPECS)
def test_spec_round_trip(spec):
    text = grammar.format_spec(spec)
    assert grammar.parse_spec(text) == spec
    assert grammar.format_spec(grammar.parse_spec(text)) == text


@pytest.mark.parametrize(
    "text,gen",
    [
        ("geometric,2,1", gapset.Geometric(2, 1)),
        ("gap(geometric,3,2)", gapset.Geometric(3, 2)),
        ("triangular", gapset.Triangular()),
        ("factorial", gapset.Factorial()),
        (
            "custom,[0,1,5],tail=geometric,2,1",
            gapset.CustomPrefixTail((0, 1, 5), gapset.Geometric(2, 1)),
        ),
        (
            "gap(custom,[3,4],tail=triangular)",
            gapset.CustomPrefixTail((3, 4), gapset.Triangular()),
        ),
    ],
)
def test_generator_literals(text, gen):
    assert grammar.parse_generator(text) == gen


@pytest.mark.parametrize(
    "gen",
    [
        gapset.Geometric(2, 1),
        gapset.Triangular(),
        gapset.Factorial(),
        gapset.CustomPrefixTail((0, 2, 9), gapset.Factorial()),
    ],
)
def test_generator_round_trip(gen):
    assert grammar.parse_generator(grammar.format_generator(gen)) == gen


def test_shorthand_names():
    assert grammar.parse_spec("ints") == ModClass(1, 0)
    assert grammar.parse_spec("nonneg") == ModClassNonneg(1, 0)
    assert grammar.format_spec(ModClass(1, 0)) == "ints"
    assert grammar.format_spec(ModClassNonneg(1, 0)) == "nonneg"
    assert grammar.parse_spec("single:-7") == Singleton(-7)


def test_parse_union_normalizes():
    got = grammar.parse_spec("union(single:1,union(single:2,single:3))")
    assert isinstance(got, Union)
    assert len(got.parts) == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "bogus",
        "single:",
        "class(2)",
        "class(2,1) trailing",
        "union(single:1,)",
        "gap(custom,[1,2])",
        "gap(custom,[2,1],tail=factorial)",
        "affine(0,1,ints)",
        "class(0,1)",
        "single:\u00b2",
    ],
)
def test_parse_errors(text):
    with pytest.raises(MalformedSpec):
        grammar.parse_spec(text)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        ("spec", "", "expected a name at position 0 in ''"),
        ("spec", "bogus", "unknown spec constructor 'bogus' at position 5 in 'bogus'"),
        ("spec", "single:", "expected an integer at position 7 in 'single:'"),
        ("spec", "class(2)", "expected ',' at position 7 in 'class(2)'"),
        ("spec", "class(2,1) trailing", "trailing input at position 11 in 'class(2,1) trailing'"),
        ("spec", "union(single:1,)", "expected a name at position 15 in 'union(single:1,)'"),
        ("spec", "gap(custom,[1,2])", "expected ',' at position 16 in 'gap(custom,[1,2])'"),
        ("spec", "gap(custom,[2,1],tail=factorial)", "custom prefix must be strictly increasing"),
        ("spec", "affine(0,1,ints)", "shift-scale with d = 0 is rejected"),
        ("spec", "class(0,1)", "modulus must be >= 1, got 0"),
        (
            "spec",
            "union( single:1 ,single:2",
            "expected ')' at position 25 in 'union( single:1 ,single:2'",
        ),
        ("spec", "single:+", "expected an integer at position 8 in 'single:+'"),
        ("generator", "geometric,2", "expected ',' at position 11 in 'geometric,2'"),
        (
            "generator",
            "gap(triangular",
            "unknown generator family 'gap' at position 3 in 'gap(triangular'",
        ),
        (
            "generator",
            "custom,[0,1],tail=geometric,2,1 x",
            "trailing input at position 32 in 'custom,[0,1],tail=geometric,2,1 x'",
        ),
        (
            "generator",
            "custom,[0],tail=custom,[5],tail=factorial",
            "custom tail must be a certified closed-form family",
        ),
    ],
)
def test_parse_error_messages(parse, text, message):
    # the exact text of each error, position included
    with pytest.raises((MalformedSpec, UncertifiableTail)) as err:
        getattr(grammar, f"parse_{parse}")(text)
    assert str(err.value) == message


def test_docs_name_exactly_the_table_constructors():
    # a quoted name followed by '(', ':' or the closing quote, as in
    # 'class(', 'single:' and 'triangular'; 'tail=' is a keyword
    names = set(grammar._CALLS) | {"single", "empty", "ints", "nonneg"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Set-spec grammar", 1)[1].split("```")[1]
    for doc in (block, grammar.__doc__):
        assert set(re.findall(r"'([a-z]+)[(:']", doc)) == names
