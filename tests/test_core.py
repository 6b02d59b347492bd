"""The numpy-free core (``recon_census.blocks``) and the writers built on it.

Importing the command line loads no numpy, ``generate`` writes the
weighted CSV and both digraph kinds' digraph6 from the core alone, and so
do ``export`` its table and ``deck`` its digraph6 cards: the writers run
in a process where ``import numpy`` fails, and their bytes are the dense
route's.  The core's checks read the one class table and the one order-4
map table on every call, so under every one-cell fault its writers fail
as ``build_dense``, the dense tournament test and the checked map blocks
do, with the same exception and message.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recon_census.blocks as blocks
import recon_census.deletion_maps as dm
import recon_census.weight_matrix as wm
from recon_census.blocks import (
    csv_blocks,
    deck_digraph6,
    hex_digraph6,
    sigma_tsv_blocks,
    tournament_bits,
    variant_bits,
)
from recon_census.digraph_builder import (
    Digraph,
    _bit_lut,
    apply_assignment,
    tournament_digraph,
    variant_digraph,
)
from recon_census.errors import ContradictionError
from recon_census.weight_matrix import MatrixVariant, build_dense, entry_grid

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"
ORDERS = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
ASSIGNMENTS = {
    "tournament": blocks.tournament_assignment,
    "variant-digraph": blocks.variant_assignment,
}
# each kind's hex rows (the core) and its dense digraph
BITS = {"tournament": tournament_bits, "variant-digraph": variant_bits}
DIGRAPHS = {"tournament": tournament_digraph, "variant-digraph": variant_digraph}

# Runs the command line once per argument list of argv[1] (JSON), with
# numpy made unimportable first, and prints the exit statuses as JSON.
BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from recon_census.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def run_blocked(runs):
    """The exit status of each argument list of ``runs``, all run in one
    fresh process that cannot import numpy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED, json.dumps(runs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def dense_pair_d6(p, kind):
    """The digraph6 lines of one kind's pair, assigned on the dense matrices."""
    a = ASSIGNMENTS[kind](p.bit_length() - 1)
    return "".join(
        apply_assignment(build_dense(p, v), a).to_digraph6() + "\n" for v in MatrixVariant
    )


def dense_deck_d6(p, kind, variant):
    """The digraph6 lines of one digraph's cards, each cut from the dense
    digraph by ``Digraph.delete_point``."""
    g = DIGRAPHS[kind](p, variant)
    return "".join(g.delete_point(k).to_digraph6() + "\n" for k in range(1, p + 1))


# Imports the command line, then runs each argument list of argv[1]
# (JSON), and prints whether numpy is loaded before and after each.
LOADED = """
import json, os, sys
from recon_census.cli import main
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    seen += [main([*argv, "--out", os.devnull]), "numpy" in sys.modules]
print(json.dumps(seen))
"""


def test_importing_the_command_line_loads_no_numpy():
    runs = [
        ["generate", "--p", "64", "--variant", "both"],
        ["generate", "--p", "64", "--kind", "variant-digraph", "--format", "d6"],
        ["export", "--p", "64"],
        ["deck", "--p", "64"],
        ["deck", "--p", "64", "--kind", "variant-digraph", "--variant", "star"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(runs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False] + [0, False] * len(runs)


def test_writers_run_with_numpy_blocked(tmp_path):
    runs, want = [], []

    def expect(args, text):
        out = tmp_path / f"out{len(runs)}"
        runs.append([*args, "--out", str(out)])
        want.append((out, text))

    for p in (4, 8, 16):
        for v in MatrixVariant:
            text = (FIXTURES / f"weighted_p{p}_{v.value}.csv").read_text()
            expect(["generate", "--p", str(p), "--variant", v.value], text)
    dense = "\n".join(build_dense(1024, v).to_csv() for v in MatrixVariant)
    expect(["generate", "--p", "1024", "--kind", "weighted", "--variant", "both"], dense)
    for p in ORDERS:
        for kind in ASSIGNMENTS:
            if p >= 8 or kind == "tournament":
                args = ["generate", "--p", str(p), "--kind", kind, "--variant", "both"]
                expect([*args, "--format", "d6"], dense_pair_d6(p, kind))
        fixture = FIXTURES / f"sigma_p{p}.tsv"
        if fixture.exists():
            assert fixture.read_text() == dm.sigma_table_tsv(p)
        expect(["export", "--p", str(p)], dm.sigma_table_tsv(p))
    deck8 = dense_deck_d6(8, "tournament", MatrixVariant.PLAIN)
    assert (FIXTURES / "deck_p8.d6").read_text() == deck8
    for p in ORDERS[:7]:
        for kind in ASSIGNMENTS:
            if p < 8 and kind != "tournament":
                continue
            for v in MatrixVariant:
                args = ["deck", "--p", str(p), "--kind", kind, "--variant", v.value]
                expect(args, dense_deck_d6(p, kind, v))
    assert run_blocked(runs) == [0] * len(runs)
    for (out, text), args in zip(want, runs):
        assert out.read_text() == text, args


@pytest.mark.parametrize(
    "p, kind, variant",
    [
        (p, kind, v)
        for p in (4, 8, 16, 32)
        for kind in ASSIGNMENTS
        for v in MatrixVariant
        if p >= 8 or kind == "tournament"
    ],
)
def test_deck_cards_read_back_as_the_deleted_digraphs(p, kind, variant):
    g = DIGRAPHS[kind](p, variant)
    lines = "".join(deck_digraph6(p, BITS[kind](p, variant))).splitlines()
    assert len(lines) == p
    for k, line in enumerate(lines, 1):
        assert Digraph.from_digraph6(line) == g.delete_point(k), k


def test_numpy_commands_fail_when_numpy_is_blocked(tmp_path):
    # the block is real: a command that reads a numpy module cannot run
    out = str(tmp_path / "out")
    runs = [
        ["generate", "--p", "8", "--kind", "tournament", "--format", "csv", "--out", out],
        ["verify", "--p", "8", "--checks", "lemma1", "--out", out],
    ]
    assert run_blocked(runs) == [3, 3]


def outcome(write):
    """("ok", text) of ``write()``, or the type and message it raised."""
    try:
        return "ok", write()
    except (ValueError, ContradictionError) as exc:
        return type(exc).__name__, str(exc)


def dense_tournament_d6(p, variant):
    """The dense route of the tournament writer: ``build_dense``'s checks,
    then the tournament test of both assigned level grids, read
    unvalidated, then the dense digraph's digraph6."""
    m = build_dense(p, variant)
    lut = _bit_lut(blocks.tournament_assignment(p.bit_length() - 1))
    for v in MatrixVariant:
        levels = entry_grid(p, v)
        if np.diagonal(levels).any() or not Digraph(p, lut[levels]).is_tournament():
            raise ContradictionError("canonical pair failed the tournament check")
    return Digraph(p, lut[m.entries]).to_digraph6()


@pytest.mark.parametrize("p", [8, 16])
def test_writers_fail_as_the_dense_route_under_every_one_cell_fault(tables, p):
    faults = [
        (variant, int(row), r, c)
        for variant in MatrixVariant
        for row in wm._reached_rows(p)
        for r in range(4)
        for c in range(4)
    ]
    seen = set()
    for fault in [None, *faults]:
        if fault is not None:
            tables.class_cell(*fault)
        for v in MatrixVariant:
            weighted = outcome(lambda: "".join(csv_blocks(p, v)))
            assert weighted == outcome(lambda: build_dense(p, v).to_csv()), fault
            tournament = outcome(lambda: "".join(hex_digraph6(p, tournament_bits(p, v))))
            assert tournament == outcome(lambda: dense_tournament_d6(p, v)), fault
            a = blocks.variant_assignment(p.bit_length() - 1)
            digraph = outcome(lambda: "".join(hex_digraph6(p, variant_bits(p, v))))
            dense = outcome(lambda: apply_assignment(build_dense(p, v), a).to_digraph6())
            assert digraph == dense, fault
            seen |= {weighted[0], tournament[0], digraph[0]}
    assert seen == {"ok", "ValueError", "ContradictionError"}


def test_offset_class_matches_the_vectorized_form():
    d = [0, *range(-300, 301), *(s << x for x in range(31) for s in (1, -1))]
    vectorized = wm._offset_class(np.array(d, dtype=np.int32)).tolist()
    assert [blocks._offset_class(v) for v in d] == vectorized


def test_class_table_is_bytes_that_numpy_views():
    for table in blocks._CLASS_TABLE.values():
        assert type(table) is bytes and len(table) == 66 * 16
    # the numpy readers view the bytes, with no copy
    view = wm._class_blocks(MatrixVariant.PLAIN)
    assert not view.flags.writeable and not view.flags.owndata
    assert view.tobytes() == blocks._CLASS_TABLE[MatrixVariant.PLAIN]


def test_order_exponent_takes_numpy_integers_once_numpy_is_loaded():
    assert blocks.order_exponent(np.int64(1024)) == 10
    with pytest.raises(ValueError, match="must be an integer"):
        blocks.order_exponent(8.0)


def checked_blocks_tsv(p):
    """The numpy route of ``export``: every map row checked in the blocks of
    ``_checked_map_blocks``, then the numpy text."""
    for _ in dm._checked_map_blocks(p):
        pass
    return dm.sigma_table_tsv(p)


def numpy_residue_word():
    """The packed residue word as numpy derives it from ``_SIGMA4``:
    LOW = the table less 1, its diagonal 0..3, entry (b, a) shifted to bit
    2 * (4b + a) in int32 and ORed."""
    low = dm._sigma4().astype(np.int32) - 1
    np.fill_diagonal(low, np.arange(4))
    return int(np.bitwise_or.reduce(low.ravel() << np.arange(0, 32, 2, dtype=np.int32)))


def test_export_fails_as_the_checked_map_blocks_under_every_sigma4_edit(tables, monkeypatch):
    clean = blocks._SIGMA4
    edits = [None] + [
        (k, x, v) for k in range(4) for x in range(4) for v in range(-1, 7)
        if v != clean[4 * k + x]
    ]
    seen = set()
    for edit in edits:
        monkeypatch.setattr(blocks, "_SIGMA4", clean)
        if edit is not None:
            tables.sigma_entry(*edit)
        assert blocks._residue_word() == numpy_residue_word(), edit
        for p in (4, 8, 16, 32):
            core = outcome(lambda: "".join(sigma_tsv_blocks(p)))
            assert core == outcome(lambda: checked_blocks_tsv(p)), (edit, p)
            seen.add(core[0])
    assert seen == {"ok", "ValueError"}


@pytest.mark.parametrize("p", [8, 16])
def test_deck_fails_as_the_dense_route_under_every_one_cell_fault(tables, p):
    faults = [
        (variant, int(row), r, c)
        for variant in MatrixVariant
        for row in wm._reached_rows(p)
        for r in range(4)
        for c in range(4)
    ]
    seen = set()
    for fault in [None, *faults]:
        if fault is not None:
            tables.class_cell(*fault)
        for kind in ASSIGNMENTS:
            for v in MatrixVariant:
                core = outcome(lambda: "".join(deck_digraph6(p, BITS[kind](p, v))))
                assert core == outcome(lambda: dense_deck_d6(p, kind, v)), (fault, kind)
                seen.add(core[0])
    assert seen == {"ok", "ValueError", "ContradictionError"}
