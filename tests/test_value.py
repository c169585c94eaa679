"""The immutable value classes: frozen fields, equality, hashing, repr, import cost."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from harbourne.criteria import ExclusionVerdict
from harbourne.exactnum import FieldDescriptor
from harbourne.geometry import (
    Certificate,
    RealizationOutcome,
    VerificationReport,
    verify_certificate,
)
from harbourne.incidence import CliquePartition, SearchOutcome
from harbourne.pipeline import CandidateStatus, TableRow
from harbourne.tspace import TVector
from normal_forms import ProjTriple

SRC = Path(__file__).resolve().parents[1] / "src"


def _pencil():
    lines = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]
    return Certificate("pencil-3", FieldDescriptor.rational(), lines, TVector(3, (0, 1)))


# one builder per value class, with the repr it has always had
SAMPLES = {
    TVector: (lambda: TVector(3, [3, 0]), "TVector(d=3, counts=(3, 0))"),
    ExclusionVerdict: (
        lambda: ExclusionVerdict("parity_profile", "line 0"),
        "ExclusionVerdict(criterion='parity_profile', detail='line 0')",
    ),
    FieldDescriptor: (lambda: FieldDescriptor.prime(3), "FieldDescriptor(kind='prime', p=3)"),
    CliquePartition: (
        lambda: CliquePartition(3, ((2, 1, 0),)),
        "CliquePartition(d=3, points=((0, 1, 2),))",
    ),
    SearchOutcome: (
        lambda: SearchOutcome(None, 7),
        "SearchOutcome(witness=None, nodes_explored=7)",
    ),
    # the normal-form oracle's point type, kept to the same contract: it keys the oracle's dicts
    ProjTriple: (
        lambda: ProjTriple.make(FieldDescriptor.prime(2), (1, 1, 0)),
        "ProjTriple(field=FieldDescriptor(kind='prime', p=2), coords=(1, 1, 0))",
    ),
    RealizationOutcome: (
        lambda: RealizationOutcome(((0, 0, 1), (0, 1, 0), (0, 1, 1)), True, 3),
        "RealizationOutcome(lines=((0, 0, 1), (0, 1, 0), (0, 1, 1)), exhausted=True, nodes=3)",
    ),
    Certificate: (
        _pencil,
        "Certificate(label='pencil-3', field=FieldDescriptor(kind='rational', p=None), "
        "lines=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(2, 1), Fraction(0, 1))), "
        "claimed_tvector=TVector(d=3, counts=(0, 1)))",
    ),
    VerificationReport: (
        lambda: verify_certificate(_pencil()),
        "VerificationReport(tvector=TVector(d=3, counts=(0, 1)), value=Fraction(0, 1))",
    ),
    CandidateStatus: (
        lambda: CandidateStatus(TVector(2, (1,)), Fraction(0), "realized"),
        "CandidateStatus(tvector=TVector(d=2, counts=(1,)), q=Fraction(0, 1), "
        "status='realized', criterion=None, detail='', certificate=None)",
    ),
    TableRow: (
        lambda: TableRow(2, "absolute", Fraction(0), "pencil-2", (), True),
        "TableRow(d=2, mode='absolute', value=Fraction(0, 1), witness='pencil-2', "
        "audit=(), integrity_ok=True)",
    ),
}

FIELDS = {
    TVector: ("d", "counts"),
    ExclusionVerdict: ("criterion", "detail"),
    FieldDescriptor: ("kind", "p"),
    CliquePartition: ("d", "points"),
    SearchOutcome: ("witness", "nodes_explored"),
    ProjTriple: ("field", "coords"),
    RealizationOutcome: ("lines", "exhausted", "nodes"),
    Certificate: ("label", "field", "lines", "claimed_tvector"),
    VerificationReport: ("tvector", "value"),
    CandidateStatus: ("tvector", "q", "status", "criterion", "detail", "certificate"),
    TableRow: ("d", "mode", "value", "witness", "audit", "integrity_ok"),
}

CLASSES = list(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = SAMPLES[cls][0]()
    for name in FIELDS[cls]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    first, second = SAMPLES[cls][0](), SAMPLES[cls][0]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert hash(first) == hash(tuple(getattr(first, name) for name in FIELDS[cls]))
    assert first != tuple(getattr(first, name) for name in FIELDS[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    build, expected = SAMPLES[cls]
    assert repr(build()) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    value = SAMPLES[cls][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_tvector_hash_is_the_hash_of_its_fields():
    for tv in (TVector(2, (1,)), TVector(3, (3, 0)), TVector(10, (0, 7, 4, 0, 0, 0, 0, 0, 0))):
        assert hash(tv) == hash((tv.d, tv.counts))
    assert TVector(3, (3, 0)) != TVector(3, (0, 1))
    assert len({TVector(3, (3, 0)), TVector(3, [3, 0]), TVector(3, (0, 1))}) == 2


def test_candidate_status_defaults():
    status = CandidateStatus(TVector(2, (1,)), Fraction(0), "realized")
    assert (status.criterion, status.detail, status.certificate) == (None, "", None)


def test_keyword_construction_matches_positional():
    assert TVector(d=3, counts=(0, 1)) == TVector(3, (0, 1))
    assert FieldDescriptor(kind="prime", p=5) == FieldDescriptor.prime(5)


def test_import_and_database_build_skip_dataclasses_and_inspect():
    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import harbourne\n"
        "harbourne.builtin_certificates()\n"
        "print(sorted(name for name in ('dataclasses', 'inspect') if name in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", child, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_package_top_level_exposes_only_builtin_certificates():
    # every other name is imported from its module, e.g. harbourne.pipeline.compute_table
    child = (
        "import sys, types\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import harbourne\n"
        "harbourne.builtin_certificates()\n"
        "print(sorted(name for name, value in vars(harbourne).items()\n"
        "             if not name.startswith('_') and not isinstance(value, types.ModuleType)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", child, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "['builtin_certificates']"
