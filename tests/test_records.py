"""The ten record types, built without the dataclass code generator.

The seven plain records are ``typing.NamedTuple``s and the three validated
types (``BinaryAssignment``, ``Digraph``, ``WeightedMatrix``) plain
classes.  Every one refuses to rebind or delete an attribute after
construction.  ``BinaryAssignment``, ``VerificationReport`` and
``RunConfig`` are equal and hash equal by value; ``Digraph`` and
``WeightedMatrix`` compare by array, are not hashable and keep their
validation errors.  The census JSON keeps its bytes: it is ``json.dumps``
of the rows rebuilt from the CSV fixture, keys in field order.  Neither
``import recon_census.cli`` nor a run of every check loads ``dataclasses``.
The records carry no method, and the package exports no name, that no
command, test oracle or benchmark span reads.
"""

import csv
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recon_census.cli import RunConfig, main
from recon_census.digraph_builder import (
    BinaryAssignment,
    CensusRow,
    CensusTable,
    Digraph,
    standard_pair,
    tournament_assignment,
)
from recon_census.iso_engine import IsoStatus, IsoVerdict, NonIsoTrace, TraceStep
from recon_census.report import SCHEMA_VERSION, VerificationReport
import recon_census.weight_matrix as wm
from recon_census.weight_matrix import MatrixVariant, WeightedMatrix, build_dense

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"
PLAIN = MatrixVariant.PLAIN

# one instance of each record type and its fields, in order
RECORDS = {
    "VerificationReport": (
        lambda: VerificationReport("theorem1", 8, (1, 2, 3, 4, 5), 392, 7),
        ("check_name", "order", "counterexample", "checked_count", "seed"),
    ),
    "RunConfig": (
        lambda: RunConfig("verify", 8, checks=("lemma1",)),
        ("command", "p", "variant", "kind", "format", "checks", "out"),
    ),
    "CensusRow": (
        lambda: CensusRow("11110000", True, False, 3),
        ("assignment_bits", "is_tournament", "isomorphic", "orbit_id"),
    ),
    "CensusTable": (lambda: CensusTable(8, ()), ("order", "rows")),
    "IsoVerdict": (
        lambda: IsoVerdict(IsoStatus.ISOMORPHIC, (1, 2), 4, 10),
        ("status", "witness", "nodes", "budget"),
    ),
    "TraceStep": (lambda: TraceStep(8, "reason", "detail"), ("order", "reason", "detail")),
    "NonIsoTrace": (lambda: NonIsoTrace(()), ("steps",)),
    "BinaryAssignment": (lambda: tournament_assignment(2), ("order_n", "bits")),
    "Digraph": (lambda: standard_pair(4)[0], ("order", "adjacency")),
    "WeightedMatrix": (lambda: build_dense(4, PLAIN), ("order", "variant", "entries")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_attributes_cannot_be_rebound_or_deleted(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


@pytest.mark.parametrize("name", list(RECORDS)[:7])
def test_named_tuple_fields(name):
    make, fields = RECORDS[name]
    assert type(make())._fields == fields


def test_defaults():
    assert VerificationReport("x", 8) == VerificationReport("x", 8, None, 0, None)
    assert RunConfig("census", 16) == RunConfig(
        "census", 16, "plain", "weighted", "csv", (), None
    )
    assert IsoVerdict(IsoStatus.UNDECIDED) == IsoVerdict(IsoStatus.UNDECIDED, None, 0, None)


@pytest.mark.parametrize(
    "make, other",
    [
        (
            lambda: VerificationReport("x", 8, (0, 1, 2, 3, 4), 5),
            VerificationReport("x", 8, (0, 1, 2, 3, 4), 6),
        ),
        (
            lambda: RunConfig("verify", 8, checks=("swap",), out=Path("r.json")),
            RunConfig("verify", 16, checks=("swap",), out=Path("r.json")),
        ),
        (lambda: BinaryAssignment(2, (1, 1, 1, 0, 0, 0)), BinaryAssignment(2, (1, 1, 1, 0, 0, 1))),
    ],
    ids=["VerificationReport", "RunConfig", "BinaryAssignment"],
)
def test_equal_and_hash_equal_by_value(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other


def test_assignment_repr_and_foreign_equality():
    a = BinaryAssignment(2, (1, 1, 1, 0, 0, 0))
    assert repr(a) == "BinaryAssignment(order_n=2, bits=(1, 1, 1, 0, 0, 0))"
    assert a != (2, (1, 1, 1, 0, 0, 0))
    assert BinaryAssignment(order_n=2, bits=a.bits) == a


def test_digraph_compares_by_array():
    g = standard_pair(4)[0]
    same = Digraph(4, g.adjacency.copy())
    assert same == g and same is not g
    flipped = g.adjacency.copy()
    flipped[0, 1] ^= 1
    assert Digraph(order=4, adjacency=flipped) != g
    assert repr(g) == "Digraph(order=4, arcs=6)"
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)
    # the cached property still caches
    assert g.bitrows is g.bitrows


def test_weighted_matrix_compares_by_array():
    m = build_dense(4, PLAIN)
    assert WeightedMatrix(4, PLAIN, m.entries.copy()) == m
    assert m != build_dense(4, MatrixVariant.STAR)
    assert repr(m) == "WeightedMatrix(order=4, variant=plain)"
    with pytest.raises(TypeError, match="unhashable"):
        hash(m)


@pytest.mark.parametrize(
    "adjacency, message",
    [
        (np.zeros((3, 4), dtype=np.uint8), "must be a uint8 array of shape"),
        (np.zeros((3, 3), dtype=np.int8), "must be a uint8 array of shape"),
        (np.full((3, 3), 2, dtype=np.uint8) - np.eye(3, dtype=np.uint8) * 2, "must be 0 or 1"),
        (np.eye(3, dtype=np.uint8), "loops are not allowed"),
    ],
)
def test_digraph_validation(adjacency, message):
    with pytest.raises(ValueError, match=message):
        Digraph(3, adjacency)


def weighted_edit(cells):
    entries = build_dense(4, PLAIN).entries.copy()
    for (i, j), value in cells.items():
        entries[i, j] = value
    return entries


@pytest.mark.parametrize(
    "entries, message",
    [
        (np.zeros((4, 4), dtype=np.int16), "must be an int8 array of shape"),
        (np.zeros((4, 8), dtype=np.int8), "must be an int8 array of shape"),
        (weighted_edit({(2, 2): 1}), "diagonal entries must be 0"),
        (weighted_edit({(0, 1): 2}), "matrix must be antisymmetric"),
        (
            weighted_edit({(0, 1): 4, (1, 0): -4}),
            r"entries must lie in \[-\(n\+1\), n\+1\] = \[-3, 3\]",
        ),
    ],
)
def test_weighted_matrix_validation(entries, message):
    with pytest.raises(ValueError, match=message):
        WeightedMatrix(4, PLAIN, entries)


def test_assignment_validation():
    with pytest.raises(ValueError, match="expected 6 bits, got 3"):
        BinaryAssignment(2, (1, 0, 1))
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BinaryAssignment(2, (1, 0, 1, 0, 2, 0))


@pytest.mark.parametrize("p", [8, 16])
def test_census_json_is_the_fixture_rows_dumped(tmp_path, p):
    out = tmp_path / "census.json"
    assert main(["census", "--p", str(p), "--format", "json", "--out", str(out)]) == 0
    with open(FIXTURES / f"census_p{p}.csv", newline="") as fh:
        rows = [
            {
                "assignment_bits": row["assignment_bits"],
                "is_tournament": row["is_tournament"] == "yes",
                "isomorphic": row["isomorphic"] == "yes",
                "orbit_id": int(row["orbit_id"]),
            }
            for row in csv.DictReader(fh)
        ]
    doc = {"schema": SCHEMA_VERSION, "command": "census", "p": p, "rows": rows}
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"
    assert list(CensusRow._fields) == list(rows[0])


def test_start_up_loads_no_dataclasses(tmp_path):
    # the modules that importing the command line, then running every check,
    # adds to those that numpy, argparse and json load
    code = (
        "import json, sys, numpy, argparse\n"
        "before = set(sys.modules)\n"
        "import recon_census.cli as cli\n"
        "imported = sorted(set(sys.modules) - before)\n"
        "status = cli.main(sys.argv[1:])\n"
        "ran = sorted(set(sys.modules) - before)\n"
        "print(json.dumps([imported, ran, status]))\n"
    )
    args = ["verify", "--p", "8", "--checks", "all", "--out", str(tmp_path / "r.json")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    imported, ran, status = json.loads(proc.stdout)
    assert status == 0
    assert "recon_census.cli" in imported
    assert "dataclasses" not in imported
    assert "dataclasses" not in ran


# public names, by defining module, that nothing read and that are gone
REMOVED_NAMES = [
    ("weight_matrix", "base_matrix"),
    ("weight_matrix", "level_bound"),
    ("weight_matrix", "sign_flip"),
    ("digraph_builder", "assignment_from_bits"),
    ("theorem1_automaton", "decide_theorem1"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_NAMES)
def test_unread_public_name_is_gone(module_name, name):
    import recon_census

    module = importlib.import_module(f"recon_census.{module_name}")
    assert not hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(recon_census, name)


@pytest.mark.parametrize(
    "record, method",
    [(Digraph, "arc"), (Digraph, "scores"), (BinaryAssignment, "items"), (NonIsoTrace, "to_json")],
)
def test_unread_method_is_gone(record, method):
    assert not hasattr(record, method)


def test_entry_grid_takes_no_row_or_column_vectors():
    assert list(inspect.signature(wm.entry_grid).parameters) == ["p", "variant"]


def test_all_names_what_the_package_binds():
    import recon_census

    bound = {
        name for name, value in vars(recon_census).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(recon_census.__all__) == sorted(bound)
