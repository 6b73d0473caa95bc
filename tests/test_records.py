"""The immutable records keep the dataclass semantics the package relies on:
construction, equality within one class, hash of the tuple of fields (which
fixes set iteration order and so printed output), repr, immutability, and
the messages of their constructor checks."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kminusone
from kminusone import records
from kminusone.blowup import BlowupPipeline, BlowupStep
from kminusone.curves import CurveSpec, DualGraph, GeneralCurvePiece
from kminusone.errors import InputError, SpecValidationError
from kminusone.exact import BiPoly, FinAbGroup, IntMatrix, UniPoly
from kminusone.germs import BranchReport, NewtonEdge
from kminusone.localsing import LocalSingularity
from kminusone.parsing import parse_polynomial
from kminusone.quiver import AlgebraBasis, Arrow, QuiverWithRelations
from kminusone.varieties import (
    EnoughWeil,
    GlobalReport,
    SurfaceResolutionSpec,
    VarietySpec,
)
from kminusone.verdicts import Certificate, CertificateKind, Decision, Verdict


def _edge():
    return DualGraph(2, ((0, 1),))


def _quiver():
    return QuiverWithRelations(2, (Arrow(0, 1, "a"), Arrow(1, 0, "a*")), ((0, 1), (1, 0)))


# one factory per record class: each call builds a new, equal instance
FACTORIES = {
    IntMatrix: lambda: IntMatrix(2, 2, (1, 2, 3, 4)),
    FinAbGroup: lambda: FinAbGroup(1, (2,)),
    NewtonEdge: lambda: NewtonEdge((2, 0), (0, 3), (2, 3), 1, UniPoly((1, -1))),
    BranchReport: lambda: BranchReport(2, 2),
    LocalSingularity: lambda: LocalSingularity(1, 2),
    BlowupStep: lambda: BlowupStep(_edge(), (parse_polynomial("z*w"),)),
    BlowupPipeline: lambda: BlowupPipeline((BlowupStep(_edge()),)),
    VarietySpec: lambda: VarietySpec((LocalSingularity(1, 2),), 1, 2, IntMatrix(1, 1, (2,))),
    GlobalReport: lambda: GlobalReport(1, 1, FinAbGroup(0, (2,)), EnoughWeil.NO, True),
    SurfaceResolutionSpec: lambda: SurfaceResolutionSpec(1, 2, 1, True, (2,)),
    DualGraph: _edge,
    GeneralCurvePiece: lambda: GeneralCurvePiece(1, (2, 1)),
    CurveSpec: lambda: CurveSpec(pieces=(GeneralCurvePiece(1, (2,)),)),
    Arrow: lambda: Arrow(0, 1, "a"),
    QuiverWithRelations: _quiver,
    AlgebraBasis: lambda: AlgebraBasis(("e1", "a")),
    Certificate: lambda: Certificate(CertificateKind.BURBAN_TREE, _quiver()),
    Verdict: lambda: Verdict(Decision.NO, FinAbGroup(1)),
}

CASES = [pytest.param(factory, id=cls.__name__) for cls, factory in FACTORIES.items()]


def _fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__annotations__)


def test_every_record_class_is_covered():
    found = set()
    for info in pkgutil.iter_modules(kminusone.__path__):
        module = importlib.import_module(f"kminusone.{info.name}")
        found |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__dict__.get("__setattr__") is records._refuse}
    assert found == set(FACTORIES)


@pytest.mark.parametrize("factory", CASES)
def test_fields_can_be_neither_assigned_nor_deleted(factory):
    obj = factory()
    for name in type(obj).__annotations__:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert factory() == obj


@pytest.mark.parametrize("factory", CASES)
def test_equal_fields_give_equal_objects_and_hashes(factory):
    a, b = factory(), factory()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert len({a, b}) == 1


@pytest.mark.parametrize("factory", CASES)
def test_repr_lists_the_fields_in_order(factory):
    obj = factory()
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(type(obj).__annotations__,
                                                                 _fields(obj)))
    assert repr(obj) == f"{type(obj).__name__}({shown})"


def test_hash_is_that_of_the_field_tuple():
    # as for a frozen dataclass: set iteration order, and with it every
    # printed output, depends on these values
    assert hash(FinAbGroup(1, (2,))) == hash((1, (2,)))


def test_records_of_different_classes_never_compare_equal():
    assert _fields(LocalSingularity(2, 2)) == _fields(BranchReport(2, 2))
    assert LocalSingularity(2, 2) != BranchReport(2, 2)
    assert FinAbGroup(1, (2,)) != (1, (2,))
    assert FinAbGroup(1, (2,)) != FinAbGroup(1, (4,))


def test_acquired_singularities_are_outside_eq_and_repr():
    step = FACTORIES[BlowupStep]()
    assert step.acquired == (LocalSingularity(1, 2),)
    assert "acquired" not in repr(step)
    assert _fields(step) == (step.center, step.center_germs)
    assert hash(step) == hash(_fields(step))
    with pytest.raises(AttributeError):
        step.acquired = ()


def test_keyword_construction_with_defaults():
    assert FinAbGroup(invariant_factors=(2,)) == FinAbGroup(0, (2,))
    assert FinAbGroup() == FinAbGroup.trivial()
    spec = VarietySpec(cl_rank=1, pic_rank=1, singularities=[])
    assert (spec.restriction_matrix, spec.label, spec.singularities) == (None, "", ())
    assert DualGraph(vertex_count=1) == DualGraph(1, (), (True,), (True,))
    assert Certificate(kind=CertificateKind.KAWAMATA_QUADRIC).parts == ()
    with pytest.raises(TypeError):
        FinAbGroup(1, (2,), 3)
    with pytest.raises(TypeError):
        BlowupStep(_edge(), acquired=())
    with pytest.raises(TypeError):
        IntMatrix(1, 1)


# per record class: a construction by keywords that leaves every other field
# at its default, and, where __post_init__ checks its fields, a construction
# it rejects with that error
FIRST_CONSTRUCTIONS = {
    "IntMatrix": ("IntMatrix(rows=1, cols=1, entries=(2,))",
                  "IntMatrix(-1, 0, ())", "ValueError: negative matrix dimensions"),
    "FinAbGroup": ("FinAbGroup(invariant_factors=(2,))",
                   "FinAbGroup(-1)", "ValueError: negative free rank"),
    "NewtonEdge": ("NewtonEdge(start=(2, 0), end=(0, 3), direction=(2, 3), lattice_length=1, "
                   "edge_polynomial=UniPoly((1, -1)))", None, None),
    "BranchReport": ("BranchReport(order=2, branch_count=2)", None, None),
    "LocalSingularity": ("LocalSingularity(n=1, br=2)",
                         "LocalSingularity(None, 0)", "ValueError: branch number must be >= 1"),
    "BlowupStep": ("BlowupStep(center=DualGraph(2, ((0, 1),)))",
                   "BlowupStep(DualGraph(2, ((0, 1),)), ())", "SpecValidationError: "
                   "center_germs: expected one germ per node of the center (1), got 0"),
    "BlowupPipeline": ("BlowupPipeline(steps=[BlowupStep(DualGraph(1))])",
                       "BlowupPipeline(())", "InputError: a blow-up pipeline needs at least one step"),
    "VarietySpec": ("VarietySpec(cl_rank=1, pic_rank=1, singularities=[])",
                    "VarietySpec((), 2, 1)", "ValueError: need 0 <= pic_rank <= cl_rank"),
    "GlobalReport": ("GlobalReport(L=1, delta=1, k_minus_one=FinAbGroup(), "
                     "enough_weil=EnoughWeil.NO, exact=True)",
                     "GlobalReport(1, 2, FinAbGroup(), EnoughWeil.NO, True)",
                     "ValueError: need 0 <= delta <= L"),
    "SurfaceResolutionSpec": ("SurfaceResolutionSpec(pic_rank=1, resolution_pic_rank=2, "
                              "exceptional_components=1)",
                              "SurfaceResolutionSpec(1, 1, 0, singularity_orders=(1,))",
                              "ValueError: cyclic quotient singularity orders are >= 2"),
    "DualGraph": ("DualGraph(vertex_count=1)", "DualGraph(-1)", "ValueError: negative vertex count"),
    "GeneralCurvePiece": ("GeneralCurvePiece(irreducible_components=1)", "GeneralCurvePiece(0)",
                          "ValueError: a connected curve has at least one component"),
    "CurveSpec": ("CurveSpec(graph=DualGraph(1))", "CurveSpec()",
                  "ValueError: give exactly one of: dual graph, branch data"),
    "Arrow": ("Arrow(source=0, target=1, name='a')", None, None),
    "QuiverWithRelations": ("QuiverWithRelations(vertices=1)",
                            "QuiverWithRelations(1, (Arrow(0, 1, 'a'),))",
                            "ValueError: arrow a out of range"),
    "AlgebraBasis": ("AlgebraBasis(labels=('e1',))", None, None),
    "Certificate": ("Certificate(kind=CertificateKind.KAWAMATA_QUADRIC)",
                    "Certificate(CertificateKind.BURBAN_TREE)",
                    "ValueError: a BurbanTree certificate carries its quiver"),
    "Verdict": ("Verdict(decision=Decision.NO, obstruction=FinAbGroup(1))",
                "Verdict(Decision.YES)", "ValueError: a Yes verdict carries a certificate"),
}

# Runs in a fresh interpreter.  Each construction under test comes right after
# a new import of the package, so that it is its class's first: the one that
# compiles __init__.  Prints, per class, what each first call gave.
_FIRST_CALLS = """import importlib, json, sys
sys.path.insert(0, sys.argv[1])

def fresh(name):
    for module in [m for m in sys.modules if m.partition(".")[0] == "kminusone"]:
        del sys.modules[module]
    namespace = vars(importlib.import_module("kminusone"))
    assert namespace[name].__init__.__code__.co_filename != "<string>"  # not compiled yet
    return namespace

def outcome(expr, namespace):
    try:
        return repr(eval(expr, namespace))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

out = {}
for name, (keywords, rejected, _) in json.loads(sys.argv[2]).items():
    ns = fresh(name)
    row = {"keywords": outcome(keywords, ns), "equal": eval(f"{keywords} == {keywords}", ns)}
    if rejected:
        ns = fresh(name)
        row.update(rejected=outcome(rejected, ns), then=outcome(keywords, ns))
    ns = fresh(name)
    row["arity"] = outcome(f"{name}(*range({len(ns[name].__annotations__) + 1}))", ns)
    obj = eval(keywords, ns)
    row.update(hash=hash(obj) == hash(tuple(getattr(obj, f) for f in ns[name].__annotations__)),
               equal_again=obj == obj)
    # each compiled method replaced its stand-in on the class
    row["stand_ins"] = [m for m in ("__init__", "__eq__", "__hash__")
                        if getattr(ns[name], m).__code__.co_filename != "<string>"]
    out[name] = row
print(json.dumps(out))
"""


def test_first_constructions_keep_every_record_semantic(tmp_path):
    # a class compiles __init__ when first constructed, == and hash when
    # either is first called; each first call must behave as every later one
    assert set(FIRST_CONSTRUCTIONS) == {cls.__name__ for cls in FACTORIES}
    src = Path(kminusone.__file__).resolve().parents[1]
    # a bytecode cache, so that each new import does not compile the package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, "-S", "-c", _FIRST_CALLS, str(src),
                           json.dumps(FIRST_CONSTRUCTIONS)], capture_output=True, text=True,
                          check=True, env={**env, "PYTHONPYCACHEPREFIX": str(tmp_path)})
    first = json.loads(proc.stdout)
    namespace = vars(kminusone)
    for name, (keywords, rejected, error) in FIRST_CONSTRUCTIONS.items():
        row, later = first[name], eval(keywords, namespace)
        assert row["keywords"] == repr(later) and row["equal"] and row["hash"], name
        assert row["equal_again"] and row["stand_ins"] == [], name
        if rejected:
            assert (row["rejected"], row["then"]) == (error, repr(later)), name
        arity = len(type(later).__annotations__) + 1
        with pytest.raises(TypeError) as info:
            type(later)(*range(arity))
        assert row["arity"] == f"TypeError: {info.value}", name
    assert first["AlgebraBasis"]["hash"]  # hash(AlgebraBasis(("e1",))) == hash((("e1",),))


@pytest.mark.parametrize("build, error, message", [
    (lambda: IntMatrix(-1, 0, ()), ValueError, "negative matrix dimensions"),
    (lambda: FinAbGroup(-1), ValueError, "negative free rank"),
    (lambda: LocalSingularity(None, 0), ValueError, "branch number must be >= 1"),
    (lambda: BlowupStep(_edge(), ("z*w", "z*w")), SpecValidationError,
     "center_germs: expected one germ per node of the center (1), got 2"),
    (lambda: BlowupPipeline(()), InputError, "a blow-up pipeline needs at least one step"),
    (lambda: VarietySpec((), 2, 1), ValueError, "need 0 <= pic_rank <= cl_rank"),
    (lambda: GlobalReport(1, 2, FinAbGroup(), EnoughWeil.NO, True), ValueError,
     "need 0 <= delta <= L"),
    (lambda: SurfaceResolutionSpec(1, 1, 0, singularity_orders=(1,)), ValueError,
     "cyclic quotient singularity orders are >= 2"),
    (lambda: DualGraph(-1), ValueError, "negative vertex count"),
    (lambda: GeneralCurvePiece(0), ValueError, "a connected curve has at least one component"),
    (lambda: CurveSpec(), ValueError, "give exactly one of: dual graph, branch data"),
    (lambda: QuiverWithRelations(1, (Arrow(0, 1, "a"),)), ValueError, "arrow a out of range"),
    (lambda: Certificate(CertificateKind.BURBAN_TREE), ValueError,
     "a BurbanTree certificate carries its quiver"),
    (lambda: Verdict(Decision.YES), ValueError, "a Yes verdict carries a certificate"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


# every integer field is checked, not truncated: int() would read 2.5 as 2
@pytest.mark.parametrize("build, message", [
    (lambda: IntMatrix.from_rows([[2.5]]), "matrix entries must be integers"),
    (lambda: FinAbGroup(0, (2.9,)), "invariant factors must be integers"),
    (lambda: DualGraph(2, ((0, 1.9),)), "edge ends must be integers"),
    (lambda: GeneralCurvePiece(1, (Fraction(3, 2),)), "branch numbers must be integers"),
    (lambda: SurfaceResolutionSpec(1, 1, 0, singularity_orders=("3",)),
     "singularity orders must be integers"),
    (lambda: BiPoly({(1.7, 0): 1}), "exponents must be integers"),
], ids=["IntMatrix", "FinAbGroup", "DualGraph", "GeneralCurvePiece",
        "SurfaceResolutionSpec", "BiPoly"])
def test_non_integers_are_refused_not_truncated(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


class _Index:
    """An integer type that is not int, as sympy's Integer: it has __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_ints_bools_and_index_types_are_accepted():
    entries = IntMatrix.from_rows([[True, _Index(3)]]).entries
    assert entries == (1, 3) and all(type(x) is int for x in entries)
    assert FinAbGroup(0, (_Index(2), 4)).invariant_factors == (2, 4)
    assert DualGraph(2, ((_Index(1), False),)).edges == ((0, 1),)
    assert GeneralCurvePiece(1, (_Index(2),)).branch_numbers == (2,)
    orders = SurfaceResolutionSpec(1, 1, 0, singularity_orders=(_Index(2),)).singularity_orders
    assert orders == (2,)
    assert BiPoly({(_Index(1), True): 1}).terms == {(1, 1): 1}
