"""The package's value records against dataclasses of the same fields.

Every value class of the package but BaseOracle and EscapeReport
derives from record.Record, which compares, hashes and prints the fields a
dataclass of the class would have held.  Each class is checked against such
a dataclass, built here with dataclasses.make_dataclass, on drawn values.
"""

import dataclasses
import importlib
import math
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonbasis
from nonbasis import gapset, grammar, intset, report, sumset, verify
from nonbasis.errors import MalformedSpec, UncertifiableTail
from nonbasis.families import Family, Params, build_gapped
from nonbasis.record import Record

GEOM2 = gapset.Geometric(2, 1)
small = st.integers(0, 2)
gens = st.sampled_from([GEOM2, gapset.Geometric(3, 2), gapset.Triangular(), gapset.Factorial()])
leaves = st.sampled_from([intset.Empty(), intset.Singleton(1), intset.ModClass(2, 1)])
windows = st.builds(lambda lo, d: intset.Window(lo, lo + d), small, small)
denses = st.builds(intset.DenseSet, windows, st.integers(0, 3))
ints = st.lists(small, max_size=2).map(tuple)
texts = st.sampled_from(["a", "b"])


@st.composite
def family_args(draw):
    h, s, t = draw(st.integers(2, 3)), draw(small), draw(small)
    y = draw(st.sampled_from([None, GEOM2])) if math.gcd(h, s - t) == 1 else None
    return h, s, t, draw(st.sampled_from(["z", "n0"])), y


# (class, the fields its dataclass held, in order, argument tuples)
CASES = [
    (intset.Window, ("lo", "hi"), windows.map(lambda w: (w.lo, w.hi))),
    (intset.Empty, (), st.tuples()),
    (intset.Singleton, ("a",), st.tuples(small)),
    (intset.ModClass, ("m", "r"), st.tuples(st.integers(1, 2), st.integers(0, 3))),
    (intset.ModClassNonneg, ("m", "r"), st.tuples(st.integers(1, 2), small)),
    (intset.GapTail, ("gen",), st.tuples(gens)),
    (intset.Union, ("parts",), st.tuples(st.tuples(leaves, leaves))),
    (intset.Diff, ("keep", "drop"), st.tuples(leaves, leaves)),
    (intset.ShiftScale, ("inner", "c", "d"), st.tuples(leaves, small, st.integers(1, 2))),
    (intset.DenseSet, ("window", "bits"), st.tuples(windows, st.integers(0, 3))),
    (gapset.Geometric, ("base", "scale"), st.tuples(st.integers(2, 3), st.integers(1, 2))),
    (gapset.Triangular, (), st.tuples()),
    (gapset.Factorial, (), st.tuples()),
    (gapset.CustomPrefixTail, ("prefix", "tail"),
     st.tuples(st.sampled_from([(0,), (0, 1), (1, 5)]), gens)),
    (Params, ("h", "s", "t", "domain"), family_args().map(lambda a: a[:4])),
    (Family, ("h", "s", "t", "domain", "y"), family_args()),
    # partials and table are drawn but not compared or printed
    (sumset.SumsetResult, ("h", "source", "target", "dense"),
     st.tuples(st.integers(1, 2), windows, windows, denses,
               st.sampled_from([(None,), ()]), st.sampled_from([None, (1, [])]))),
    (verify.InSumset, ("s_count", "xs"), st.tuples(small, ints)),
    (verify.OutShiftedY, ("y",), st.tuples(small)),
    (verify.OutExceptional, ("tag",), st.tuples(st.sampled_from(["F0", "F1"]))),
    (verify.Unknown, ("reason",), st.tuples(texts)),
    (verify.Catalog, ("shifted_y", "exceptional", "unknown", "unknown_members"),
     st.tuples(ints, ints, ints, ints)),
    (verify.YPrimeFilter, ("kind", "values"),
     st.tuples(st.sampled_from(["even_indices", "drop_values"]), ints)),
    (verify.AugmentReport,
     ("filter_kind", "verdict", "missing_shifted", "extras", "leftover", "dropped_in_window"),
     st.tuples(texts, texts, ints, ints, ints, small)),
    (verify.LemmaReport,
     ("bad_u", "threshold", "complement", "covered_above_threshold", "predicted_complement",
      "matches_prediction"),
     st.tuples(ints, small, ints, st.sampled_from([None, True]), st.none() | ints,
          st.sampled_from([None, False]))),
    (report.Check, ("name", "status", "details"), st.tuples(texts, texts, texts)),
]
REFERENCE = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields, _ in CASES
}


def reference(record):
    ref = REFERENCE[type(record)]
    return ref(*(getattr(record, f.name) for f in dataclasses.fields(ref)))


def test_every_record_class_has_a_case():
    found, todo = set(), Record.__subclasses__()
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("nonbasis."):
            found.add(cls)
    # the marker bases are never built themselves
    assert found == set(REFERENCE) | {intset.SetSpec, intset._HashOnce, gapset.GapGenerator}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_compare_hash_and_print_as_their_dataclass(case, data):
    cls, _, arguments = case
    x, y = cls(*data.draw(arguments)), cls(*data.draw(arguments))
    rx, ry = reference(x), reference(y)
    assert (x == y, x != y) == (rx == ry, rx != ry)
    if x == y:
        assert hash(x) == hash(y)
    want = repr(rx)
    if cls is intset.DenseSet:
        want = want.replace(f"bits={x.bits})", f"bits={x.bits:#x})")
    assert repr(x) == want


def test_params_and_a_family_with_equal_fields_are_unequal():
    p, f = Params(3, 2, 1, "n0"), Family(3, 2, 1, "n0", None)
    assert p != f and f != p and not p == f and not f == p


def test_no_verdict_equals_a_tuple():
    for verdict, fields in (
        (verify.InSumset(1, (2,)), (1, (2,))),
        (verify.OutShiftedY(3), (3,)),
        (verify.OutShiftedY(3), 3),
        (verify.OutExceptional("F0"), ("F0",)),
        (verify.Unknown("x"), ("x",)),
    ):
        assert verdict != fields and fields != verdict


def test_sumset_results_compare_and_print_without_partials_and_table():
    w = intset.Window(0, 3)
    d = intset.DenseSet(w, 5)
    a = sumset.SumsetResult(2, w, w, d, (None,), None)
    b = sumset.SumsetResult(2, w, w, d, (d, d, d), (1, []))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == (
        "SumsetResult(h=2, source=Window(lo=0, hi=3), target=Window(lo=0, hi=3), "
        "dense=DenseSet(window=Window(lo=0, hi=3), bits=0x5))"
    )


def test_base_oracles_compare_by_identity():
    oracle = verify.base_oracle(build_gapped(Params(2, 0, 1, "n0"), GEOM2), intset.Window(0, 40))
    twin = verify.BaseOracle(oracle.folded, oracle.shifted_ys, oracle.shifted, oracle.f_window)
    assert oracle == oracle and twin != oracle and len({oracle, twin}) == 2


@dataclasses.dataclass(frozen=True)
class Shifted(gapset.GapGenerator):
    """A generator gapset does not know, printed by its dataclass repr."""

    inner: gapset.GapGenerator


def test_gapset_error_texts_print_generators_in_the_dataclass_form():
    gen = Shifted(gapset.CustomPrefixTail((0, 1, 5), gapset.Geometric(2, 3)))
    text = "Shifted(inner=CustomPrefixTail(prefix=(0, 1, 5), tail=Geometric(base=2, scale=3)))"
    unknown = (MalformedSpec, f"unknown generator {text}")
    uncertified = (UncertifiableTail, f"no certified gap bound for {text}")
    for call, (error, message) in (
        (lambda: next(gapset.values(gen)), unknown),
        (lambda: gapset.is_member(gen, 1), unknown),
        (lambda: gapset.gap_radius(gen, 1), uncertified),
        (lambda: grammar.format_generator(gen), unknown),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    assert (repr(gapset.Triangular()), repr(gapset.Factorial())) == ("Triangular()", "Factorial()")


def test_escape_report_is_the_only_dataclass():
    # Building a dataclass execs its generated methods when its module is
    # imported, about 0.5 ms a class, in every CLI process.  EscapeReport
    # stays one because the benchmark's adjoin_corrupt operation
    # (perfbench/workloads.py) calls dataclasses.replace on it.
    found = []
    for info in pkgutil.iter_modules(nonbasis.__path__):
        module = importlib.import_module(f"nonbasis.{info.name}")
        found += [
            f"{module.__name__}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        ]
    assert found == ["nonbasis.verify.EscapeReport"]
