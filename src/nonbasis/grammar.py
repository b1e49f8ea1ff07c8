"""Textual grammar for set specs and gap generators.

The canonical forms are round-trippable: parse(format(x)) == x.

    spec     := 'empty'
              | 'single:' INT
              | 'ints'                      all of Z
              | 'nonneg'                    all of N0
              | 'class(' INT ',' INT ')'    {m*z + r : z in Z}
              | 'classnn(' INT ',' INT ')'  {m*z + r : z >= 0}
              | 'gap(' genbody ')'
              | 'union(' spec {',' spec} ')'
              | 'diff(' spec ',' spec ')'
              | 'affine(' INT ',' INT ',' spec ')'   d*spec + c, args (d, c, spec)
    genbody  := 'geometric' ',' INT ',' INT
              | 'triangular'
              | 'factorial'
              | 'custom' ',' '[' INT {',' INT} ']' ',' 'tail=' genbody

Whitespace between tokens is ignored on input and never emitted on output.
All but 'single:' and the bare names are read and printed from one table,
_CALLS: a spec writes its arguments as name(a,b), a generator as name,a,b.
"""

from __future__ import annotations

import re

from . import gapset
from .errors import MalformedSpec
from .intset import Diff, Empty, GapTail, ModClass, ModClassNonneg, SetSpec, ShiftScale
from .intset import Singleton, Union, union_of

# name -> (node class, [(field, kind)] in text order).  A kind is int, spec
# or gen; specs is one or more specs, ints a bracketed list of integers and
# tail a generator written after 'tail='.
_CALLS = {
    name: (cls, [tuple(arg.split(":")) for arg in args.split()])
    for name, cls, args in (
        ("class", ModClass, "m:int r:int"),
        ("classnn", ModClassNonneg, "m:int r:int"),
        ("gap", GapTail, "gen:gen"),
        ("union", Union, "parts:specs"),
        ("diff", Diff, "keep:spec drop:spec"),
        ("affine", ShiftScale, "d:int c:int inner:spec"),
        ("geometric", gapset.Geometric, "base:int scale:int"),
        ("triangular", gapset.Triangular, ""),
        ("factorial", gapset.Factorial, ""),
        ("custom", gapset.CustomPrefixTail, "prefix:ints tail:tail"),
    )
}
_NAMES = {cls: name for name, (cls, _) in _CALLS.items()}
_BARE = {"empty": Empty(), "ints": ModClass(1, 0), "nonneg": ModClassNonneg(1, 0)}

# One token after optional whitespace.  Every other character starts an
# int, which may be a bare sign, or empty at the end of the text.
_TOKEN = re.compile(r"\s*(?:(?P<name>[^\W\d]+)|(?P<mark>[^\w\s+-])|(?P<int>[+-]?\d*))")


def _format_call(node, base: type, what: str) -> str:
    name = _NAMES.get(type(node))
    if name is None or not isinstance(node, base):
        raise MalformedSpec(f"unknown {what} {node!r}")
    args = [_FORMAT[kind](getattr(node, field)) for field, kind in _CALLS[name][1]]
    return f"{name}({','.join(args)})" if base is SetSpec else ",".join([name, *args])


def format_generator(gen: gapset.GapGenerator) -> str:
    return _format_call(gen, gapset.GapGenerator, "generator")


def format_spec(spec: SetSpec) -> str:
    if isinstance(spec, Singleton):
        return f"single:{spec.a}"
    for name, node in _BARE.items():
        if spec == node:
            return name
    return _format_call(spec, SetSpec, "spec node")


_FORMAT = {
    "int": str,
    "spec": format_spec,
    "gen": format_generator,
    "specs": lambda parts: ",".join(map(format_spec, parts)),
    "ints": lambda vals: "[" + ",".join(map(str, vals)) + "]",
    "tail": lambda gen: "tail=" + format_generator(gen),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str, pos: int) -> MalformedSpec:
        return MalformedSpec(f"{msg} at position {pos} in {self.text!r}")

    def take(self, want: str) -> str:
        """Consume the next token, a `want` ("name", "int" or that mark), or raise."""
        m = _TOKEN.match(self.text, self.pos)
        kind, text = m.lastgroup, m[m.lastgroup]
        if want == (text if kind == "mark" else kind) and text.strip("+-"):
            self.pos = m.end()
            return text
        at = m.end() if kind == want == "int" else m.start(kind)  # an int is due after its sign
        expected = {"name": "a name", "int": "an integer"}.get(want, repr(want))
        raise self.error(f"expected {expected}", at)

    def node(self, base: type):
        """The next spec (base SetSpec) or generator (base GapGenerator)."""
        name = self.take("name")
        if base is SetSpec and name in _BARE:
            return _BARE[name]
        if base is SetSpec and name == "single":
            self.take(":")
            return Singleton(self.read("int"))
        cls, args = _CALLS.get(name, (None, ()))
        if cls is None or not issubclass(cls, base):
            what = "spec constructor" if base is SetSpec else "generator family"
            raise self.error(f"unknown {what} {name!r}", self.pos)
        values = {}
        for i, (field, kind) in enumerate(args):
            self.take("(" if i == 0 and base is SetSpec else ",")
            values[field] = self.read(kind)
        if base is SetSpec:
            self.take(")")
        return union_of(*values["parts"]) if cls is Union else cls(**values)

    def read(self, kind: str):
        if kind == "int":
            return int(self.take("int"))
        if kind == "specs":
            return self.items(lambda: self.node(SetSpec))
        if kind == "ints":
            self.take("[")
            vals = self.items(lambda: self.read("int"))
            self.take("]")
            return vals
        if kind == "tail":
            if self.take("name") != "tail":
                raise self.error("expected tail=", self.pos)
            self.take("=")
        return self.node(SetSpec if kind == "spec" else gapset.GapGenerator)

    def items(self, read) -> tuple:
        out = [read()]
        while _TOKEN.match(self.text, self.pos)["mark"] == ",":
            self.take(",")
            out.append(read())
        return tuple(out)


def _parse(text: str, base: type):
    p = _Parser(text)
    node = p.node(base)
    m = _TOKEN.match(text, p.pos)
    if m[m.lastgroup]:
        raise p.error("trailing input", m.start(m.lastgroup))
    return node


def parse_spec(text: str) -> SetSpec:
    """Parse the spec grammar; raises MalformedSpec on any syntax error."""
    return _parse(text, SetSpec)


def parse_generator(text: str) -> gapset.GapGenerator:
    """Parse a generator literal; the gap(...) wrapper is optional."""
    stripped = text.strip()
    if stripped.startswith("gap(") and stripped.endswith(")"):
        stripped = stripped[4:-1]
    return _parse(stripped, gapset.GapGenerator)
