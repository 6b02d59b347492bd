import errno
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recon_census.blocks as blocks
from recon_census.blocks import csv_blocks, sigma_tsv_blocks
from recon_census.cli import CHECKS, main
from recon_census.deletion_maps import sigma_table_tsv
from recon_census.report import SCHEMA_VERSION
from recon_census.weight_matrix import MatrixVariant, build_dense

from conftest import FIXTURES


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    return main(list(args))


class FullStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` fails as on a full device; a
    failing ``write`` succeeds ``writes`` times first."""

    def __init__(self, failing: str, writes: int = 0):
        super().__init__()
        self.failing = failing
        self.writes = writes

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.failing == "write":
            if not self.writes:
                self._full()
            self.writes -= 1
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            self._full()


def expand_all(p):
    from recon_census.cli import _parse_config

    return _parse_config(["verify", "--p", str(p), "--checks", "all"]).checks


class TestExitCodes:
    def test_verify_all_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--p", "16", "--checks", "all", "--out", str(out)) == 0
        assert out.exists()

    def test_invalid_check_for_order_is_usage_error(self):
        assert run_cli("verify", "--p", "4", "--checks", "lemma1") == 2

    def test_unknown_check_rejected_at_parse_time(self):
        assert run_cli("verify", "--p", "8", "--checks", "lemma9") == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (("verify", "--p", "8", "--checks", "lemma9"), "unknown checks: lemma9"),
            (("verify", "--p", "12"), "--p must be a power of two >= 4, got 12"),
            (("census", "--p", "32"), "census is available at p = 8 or 16, got 32"),
        ],
    )
    def test_post_parse_error_shows_the_subcommand_usage(self, capsys, args, message):
        assert run_cli(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: recon-census {args[0]} [-h] --p P")
        assert err[-1] == f"recon-census {args[0]}: error: {message}"
        # the usage lines of argparse's own errors for the subcommand
        assert run_cli(args[0], "--p", "x") == 2
        assert capsys.readouterr().err.splitlines()[:-1] == err[:-1]

    @pytest.mark.parametrize(
        "checks, named",
        [
            ("lemma1,lemma1", "lemma1"),
            ("theorem2,lemma1,theorem2,swap,lemma1", "theorem2, lemma1"),
        ],
    )
    def test_repeated_check_is_usage_error(self, capsys, checks, named):
        assert run_cli("verify", "--p", "8", "--checks", checks) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(f"checks named more than once: {named}")

    @pytest.mark.parametrize("checks", ["all,lemma1", "lemma1,all", "all,all"])
    def test_all_with_other_names_is_usage_error(self, capsys, checks):
        assert run_cli("verify", "--p", "8", "--checks", checks) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"recon-census verify: error: 'all' must be named alone, got {checks!r}"
        )

    def test_non_power_of_two_rejected(self):
        assert run_cli("verify", "--p", "12", "--checks", "all") == 2

    def test_census_order_bounded(self):
        assert run_cli("census", "--p", "32") == 2

    def test_census_budget_is_a_usage_error(self, capsys):
        # every row is proved, so there is no search to budget
        assert run_cli("census", "--p", "16", "--budget", "1000") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "recon-census: error: unrecognized arguments: --budget 1000"
        )

    def test_verify_budget_is_a_usage_error(self, capsys):
        # deck-match, the one check that searches, runs with the library's
        # node budget, which its card pairs never approach
        assert run_cli("verify", "--p", "8", "--checks", "deck-match", "--budget", "10") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "recon-census: error: unrecognized arguments: --budget 10"
        )

    @pytest.mark.parametrize("p", [4, 8])
    def test_deck_match_searches_stay_far_below_the_budget(self, tmp_path, monkeypatch, p):
        # what lets verify take no --budget: each of deck-match's p**2
        # card-pair searches takes at most 100 of its 200,000 nodes
        import recon_census.iso_engine as ie

        search, nodes = ie.are_isomorphic, []

        def counted(g, h, budget=ie.DEFAULT_ISO_BUDGET):
            verdict = search(g, h, budget)
            nodes.append(verdict.nodes)
            return verdict

        monkeypatch.setattr(ie, "are_isomorphic", counted)
        out = tmp_path / "r.json"
        assert run_cli("verify", "--p", str(p), "--checks", "deck-match", "--out", str(out)) == 0
        assert len(nodes) == p * p
        assert max(nodes) <= 100

    def test_format_checked_before_the_size_cap(self, capsys, monkeypatch):
        # above the write cap, the usage error names what is wrong with the
        # request, not the size of a format it could never write
        import recon_census.cli as cli

        monkeypatch.setattr(cli, "run", lambda config: 0)
        args = ("generate", "--p", "16384", "--kind", "weighted", "--format", "d6")
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "recon-census generate: error: weighted matrices export as csv only"
        )

    def test_deck_match_bounded(self):
        assert run_cli("verify", "--p", "16", "--checks", "deck-match") == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("generate", "--p", "32768", "--kind", "weighted"),
            ("generate", "--p", "131072", "--kind", "tournament", "--format", "d6"),
            ("deck", "--p", "16384"),
        ],
    )
    def test_dense_orders_refused_as_usage_error(self, capsys, args):
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ]
        assert args[2] in err.splitlines()[-1]

    @pytest.mark.parametrize("p", [2**25, 2**40])
    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--checks", "theorem1"),
            ("verify", "--checks", "all"),
            ("export",),
        ],
    )
    def test_orders_above_oracle_limit_refused_as_usage_error(
        self, capsys, monkeypatch, p, args
    ):
        import recon_census.cli as cli

        def no_run(config):
            raise AssertionError("a refused order must not start any command")

        monkeypatch.setattr(cli, "run", no_run)
        assert run_cli(args[0], "--p", str(p), *args[1:]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ]
        assert str(p) in err.splitlines()[-1]

    @pytest.mark.parametrize("p", [16384, 2**24])
    def test_export_above_dense_limit_refused_as_usage_error(self, capsys, monkeypatch, p):
        import recon_census.cli as cli
        from recon_census.cli import _parse_config
        from recon_census.weight_matrix import DENSE_ORDER_LIMIT

        def no_run(config):
            raise AssertionError("a refused order must not start any command")

        monkeypatch.setattr(cli, "run", no_run)
        assert p > DENSE_ORDER_LIMIT
        assert run_cli("export", "--p", str(p), "--format", "tsv") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ]
        assert str(p) in err.splitlines()[-1]
        config = _parse_config(["export", "--p", str(DENSE_ORDER_LIMIT)])
        assert config.p == DENSE_ORDER_LIMIT

    @pytest.mark.parametrize(
        "args, first, size",
        [
            (("export", "--format", "tsv"), 16384, "1.3 GB as tsv"),
            (("generate", "--kind", "weighted"), 32768, "2.7 GB as csv"),
            (("generate", "--kind", "weighted", "--variant", "both"), 16384, "1.3 GB as csv"),
            (("generate", "--kind", "tournament"), 32768, "2.1 GB as csv"),
            # exactly 2**30 bytes: two bytes a cell
            (("generate", "--kind", "tournament", "--variant", "both"), 16384, "1.1 GB as csv"),
            (("generate", "--kind", "variant-digraph", "--format", "dot"), 16384, "2.1 GB as dot"),
            # about 1.06 GB at 8192, accepted there
            (("generate", "--kind", "tournament", "--variant", "both", "--format", "dot"),
             16384, "4.2 GB as dot"),
            (("generate", "--kind", "tournament", "--format", "d6"), 131072, "2.9 GB as d6"),
            (("generate", "--kind", "variant-digraph", "--variant", "both", "--format", "d6"),
             65536, "1.4 GB as d6"),
        ],
    )
    def test_each_format_refused_from_its_first_order_with_its_size(
        self, capsys, monkeypatch, args, first, size
    ):
        # generate and export hold no p x p table: each refuses an output of
        # 1 GiB or more, whatever the order, and accepts the order below
        import recon_census.cli as cli

        def no_run(config):
            raise AssertionError("a refused order must not start any command")

        monkeypatch.setattr(cli, "run", no_run)
        command, *rest = args
        assert run_cli(command, "--p", str(first), *rest) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"recon-census {command}: error: {command} --p {first} would write about "
            f"{size}; {command} writes less than 1 GiB"
        )
        below = cli._parse_config([command, "--p", str(first // 2), *rest])
        assert below.p == first // 2

    def test_d6_pair_above_the_dense_limit_is_accepted(self):
        from recon_census.cli import _parse_config

        # about 90 MB of text, where the dense order cap refused it
        args = ["--kind", "tournament", "--variant", "both", "--format", "d6"]
        assert _parse_config(["generate", "--p", "16384", *args]).p == 16384

    @pytest.mark.parametrize(
        "fmt, size", [("d6", "0.2 GB"), ("csv", "2.1 GB"), ("dot", "7.0 GB")]
    )
    def test_deck_above_its_cap_refused_with_its_size(self, capsys, monkeypatch, fmt, size):
        import recon_census.cli as cli

        def no_run(config):
            raise AssertionError("a refused order must not start any command")

        monkeypatch.setattr(cli, "run", no_run)
        assert cli.DECK_ORDER_LIMIT == 512
        assert run_cli("deck", "--p", "1024", "--format", fmt) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert f"deck --p 1024 would write about {size} as {fmt}" in last
        assert "up to p = 512" in last
        assert cli._parse_config(["deck", "--p", "512", "--format", fmt]).p == 512

    def test_oracle_limit_order_is_accepted(self):
        from recon_census.cli import _parse_config
        from recon_census.weight_matrix import ORACLE_ORDER_LIMIT

        assert ORACLE_ORDER_LIMIT == 2**24
        config = _parse_config(
            ["verify", "--p", str(2**24), "--checks", "theorem1"]
        )
        assert config.p == 2**24 and config.checks == ("theorem1",)

    def test_all_keeps_every_check_above_dense_limit(self):
        everything_but_deck_match = tuple(name for name in CHECKS if name != "deck-match")
        assert expand_all(8192) == everything_but_deck_match
        assert expand_all(16384) == everything_but_deck_match
        assert expand_all(2**24) == everything_but_deck_match

    def test_no_check_is_capped_at_dense_limit(self):
        from recon_census.cli import _parse_config
        from recon_census.weight_matrix import ORACLE_ORDER_LIMIT

        # every check but deck-match reaches the oracle limit
        capped = [name for name, (_, hi, _) in CHECKS.items() if hi < ORACLE_ORDER_LIMIT]
        assert capped == ["deck-match"]
        config = _parse_config(["verify", "--p", "16384", "--checks", "lemma2"])
        assert config.checks == ("lemma2",)

    @pytest.mark.parametrize("p", [16384, 2**20, 2**24])
    def test_automaton_checks_run_above_dense_limit(self, tmp_path, p):
        out = tmp_path / "rep.json"
        args = ("verify", "--p", str(p), "--checks", "lemma2,lemma3,swap,forced-iso")
        assert run_cli(*args, "--out", str(out)) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [(r["check"], r["outcome"]) for r in reports] == [
            ("lemma2", "pass"),
            ("lemma3", "pass"),
            ("swap", "pass"),
            ("forced-iso", "pass"),
        ]
        h = p // 2
        checked = h * (p - 2) + p * (h - 1) + p * (p - 1) + p * (p - 1) ** 2
        assert reports[0]["checked"] == checked

    @pytest.mark.parametrize("target", ["dir", "under-a-file"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, target):
        if target == "dir":
            out = tmp_path
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "rep.json"
        args = ("verify", "--p", "16", "--checks", "lemma1", "--out", str(out))
        assert run_cli(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "error:" in err[0] and str(out) in err[0]

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_checks_naming_nothing_is_usage_error(self, capsys, checks):
        assert run_cli("verify", "--p", "8", "--checks", checks) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if l.startswith("recon-census verify: error:")]
        assert len(errors) == 1 and "--checks" in errors[0]

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--p", "16", "--checks", "lemma1"),
            ("export", "--p", "16", "--format", "tsv"),
        ],
    )
    def test_failed_stdout_write_is_usage_error(self, monkeypatch, capsys, failing, args):
        monkeypatch.setattr(sys, "stdout", FullStdout(failing))
        assert run_cli(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"recon-census: error: cannot write stdout: {os.strerror(errno.ENOSPC)}"]

    @pytest.mark.parametrize(
        "args, whole",
        [
            (
                ("generate", "--p", "256", "--kind", "weighted"),
                lambda: build_dense(256, MatrixVariant.PLAIN).to_csv(),
            ),
            (("export", "--p", "256"), lambda: sigma_table_tsv(256)),
        ],
    )
    def test_failed_write_partway_through_is_usage_error(
        self, monkeypatch, capsys, args, whole
    ):
        # each text goes out in three or more row blocks; the third write fails
        stdout = FullStdout("write", writes=2)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"recon-census: error: cannot write stdout: {os.strerror(errno.ENOSPC)}"]
        written = stdout.getvalue()
        assert 0 < len(written) < len(whole()) and whole().startswith(written)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--p", "16", "--checks", "lemma1"),
            ("export", "--p", "16", "--format", "tsv"),
            # larger than the stdout buffer: the write itself fails
            ("generate", "--p", "256", "--kind", "weighted"),
            # written card by card: a write partway through fails
            ("deck", "--p", "64"),
        ],
    )
    def test_stdout_on_full_device_exits_2(self, args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "recon_census.cli", *args],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 2
        # one line: no traceback, and no second report from the exit-time flush
        assert proc.stderr.splitlines() == [
            f"recon-census: error: cannot write stdout: {os.strerror(errno.ENOSPC)}"
        ]

    @pytest.mark.parametrize(
        "program, status",
        [
            # stdout fails, and then its diagnostic on the same pipe
            (("-m", "recon_census.cli", "export", "--p", "1024"), 2),
            (("-m", "recon_census.cli", "generate", "--p", "1024"), 2),
            (("-m", "recon_census.cli", "deck", "--p", "64"), 2),
            # a broken map is an internal error whose diagnostic fails
            (("-c", "import recon_census.blocks as b, recon_census.cli as c; "
              "b._SIGMA4 = bytes(16); raise SystemExit(c.main(['export', '--p', '8']))"), 3),
        ],
    )
    def test_closed_pipe_on_stdout_and_stderr_keeps_the_status(self, program, status):
        # both descriptors on one pipe whose read end is closed, as in
        # `recon-census export --p 1024 2>&1 | head -c 10`
        env = dict(os.environ, PYTHONPATH=str(SRC))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, *program], stdout=write, stderr=write, env=env)
        finally:
            os.close(write)
        assert proc.returncode == status


class TestCheckTable:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (4, ("lemma3", "theorem1", "theorem2", "hypo-sigma", "deck-match")),
            (8, ("lemma1", "lemma2", "lemma3", "theorem1", "theorem2",
                 "hypo-sigma", "deck-match", "swap", "forced-iso")),
            (16, ("lemma1", "lemma2", "lemma3", "theorem1", "theorem2",
                  "hypo-sigma", "swap", "forced-iso")),
            (8192, ("lemma1", "lemma2", "lemma3", "theorem1", "theorem2",
                    "hypo-sigma", "swap", "forced-iso")),
            (16384, ("lemma1", "lemma2", "lemma3", "theorem1", "theorem2",
                     "hypo-sigma", "swap", "forced-iso")),
        ],
    )
    def test_all_expansion_is_pinned(self, p, expected):
        assert expand_all(p) == expected

    def test_min_order_8_checks_refused_by_the_library_at_4(self):
        from recon_census.cli import RunConfig

        names = [name for name, (lo, _, _) in CHECKS.items() if lo == 8]
        assert names == ["lemma1", "lemma2", "swap", "forced-iso"]
        for name in names:
            with pytest.raises(ValueError):
                CHECKS[name][2](RunConfig("verify", 4))

    def test_cli_and_library_share_order_caps(self):
        import recon_census.cli as cli_mod
        from recon_census.digraph_builder import (
            CENSUS_ORDERS,
            assignment_census,
            standard_pair,
        )
        from recon_census.iso_engine import (
            DECK_MATCH_ORDER_LIMIT,
            decks_match_independent,
        )

        assert cli_mod.CENSUS_ORDERS is CENSUS_ORDERS
        assert cli_mod.DECK_MATCH_ORDER_LIMIT is DECK_MATCH_ORDER_LIMIT
        assert CHECKS["deck-match"][1] == DECK_MATCH_ORDER_LIMIT
        # the first order above the cap is refused on both sides
        above = 1 << DECK_MATCH_ORDER_LIMIT.bit_length()
        assert run_cli("verify", "--p", str(above), "--checks", "deck-match") == 2
        with pytest.raises(ValueError):
            decks_match_independent(*standard_pair(above))
        for p in (4, 32):
            assert p not in CENSUS_ORDERS
            assert run_cli("census", "--p", str(p)) == 2
            with pytest.raises(ValueError):
                assignment_census(p)

    @pytest.mark.parametrize(
        "name, target",
        [
            ("theorem2", "verify_nonisomorphic_inductive"),
            ("hypo-sigma", "_check_tournaments"),
            ("swap", "_check_half_swap"),
            ("forced-iso", "_check_point1_levels"),
        ],
    )
    def test_contradiction_is_a_failing_report(self, tmp_path, monkeypatch, name, target):
        import importlib

        from recon_census.errors import ContradictionError

        def contradiction(*args, **kwargs):
            raise ContradictionError("self-check failed")

        # each runner reads its self-check, when it runs, from the module
        # that binds it: the numpy-free tournament check from the command
        # line's own import of it
        module = {
            "verify_nonisomorphic_inductive": "iso_engine",
            "_check_tournaments": "cli",
        }.get(target, "digraph_builder")
        lib = importlib.import_module(f"recon_census.{module}")
        monkeypatch.setattr(lib, target, contradiction)
        out = tmp_path / "rep.json"
        args = ("verify", "--p", "16", "--checks", f"lemma1,{name}", "--out", str(out))
        assert run_cli(*args) == 1
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False
        assert [r["outcome"] for r in doc["reports"]] == ["pass", "fail"]
        rep = doc["reports"][1]
        assert rep["check"] == name and rep["checked"] == 0
        assert rep["counterexample"] == {
            "k": 0, "i": 0, "j": 0, "lhs": "contradiction", "rhs": "self-check failed",
        }


class TestInternalErrors:
    """A crash exits 3 with one stderr line: exit 1 means a check failed."""

    def one_error_line(self, capsys):
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        return line

    def test_census_self_check_failure_exits_3(self, monkeypatch, capsys):
        import recon_census.digraph_builder as db
        from recon_census.errors import ContradictionError

        def broken(p):
            raise ContradictionError("half-swap failed\nthe level-swap identity")

        monkeypatch.setattr(db, "_check_half_swap", broken)
        assert run_cli("census", "--p", "8") == 3
        assert self.one_error_line(capsys) == (
            "recon-census: internal error: ContradictionError: "
            "half-swap failed the level-swap identity"
        )

    def test_bug_in_a_check_runner_exits_3(self, tmp_path, monkeypatch, capsys):
        import recon_census.cli as cli_mod

        def buggy(config):
            raise RuntimeError("runner bug")

        lo, hi, _ = CHECKS["lemma1"]
        monkeypatch.setitem(cli_mod.CHECKS, "lemma1", (lo, hi, buggy))
        out = tmp_path / "rep.json"
        assert run_cli("verify", "--p", "8", "--checks", "lemma1", "--out", str(out)) == 3
        assert self.one_error_line(capsys) == (
            "recon-census: internal error: RuntimeError: runner bug"
        )
        assert not out.exists()


class TestGenerate:
    def test_weighted_star_csv_is_byte_exact(self, tmp_path):
        out = tmp_path / "m8s.csv"
        assert (
            run_cli(
                "generate", "--p", "8", "--kind", "weighted", "--variant", "star",
                "--format", "csv", "--out", str(out),
            )
            == 0
        )
        assert out.read_bytes() == (FIXTURES / "weighted_p8_star.csv").read_bytes()

    def test_tournament_dot_both_is_byte_exact(self, tmp_path):
        out = tmp_path / "pair.dot"
        args = ("--p", "8", "--kind", "tournament", "--variant", "both")
        assert run_cli("generate", *args, "--format", "dot", "--out", str(out)) == 0
        assert out.read_bytes() == (FIXTURES / "tournament_p8.dot").read_bytes()

    def test_tournament_d6_both(self, tmp_path):
        out = tmp_path / "pair.d6"
        run_cli(
            "generate", "--p", "8", "--kind", "tournament", "--variant", "both",
            "--format", "d6", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("&") for line in lines)
        assert lines[0] != lines[1]

    @pytest.mark.parametrize(
        "kind, rows, builder",
        [
            ("tournament", "tournament_bits", "tournament_digraph"),
            ("variant-digraph", "variant_bits", "variant_digraph"),
        ],
    )
    def test_builds_only_the_digraphs_it_writes(
        self, monkeypatch, capsys, kind, rows, builder
    ):
        # generate's d6 and the d6 deck read each variant's row templates;
        # the csv deck builds its one dense digraph
        import recon_census.cli as cli_mod
        import recon_census.digraph_builder as db
        from recon_census.weight_matrix import MatrixVariant

        built = []
        for module, name in ((cli_mod, rows), (db, builder)):
            real = getattr(module, name)

            def recording(p, variant, name=name, real=real):
                built.append((name, variant))
                return real(p, variant)

            monkeypatch.setattr(module, name, recording)
        lines = {}
        for variant in ("plain", "star", "both"):
            built.clear()
            args = ["--p", "16", "--kind", kind, "--variant", variant]
            assert run_cli("generate", *args, "--format", "d6") == 0
            lines[variant] = capsys.readouterr().out.splitlines()
            want = list(MatrixVariant) if variant == "both" else [MatrixVariant(variant)]
            assert built == [(rows, v) for v in want]
            if variant != "both":
                for fmt, name in (("d6", rows), ("csv", builder)):
                    built.clear()
                    assert run_cli("deck", *args, "--format", fmt) == 0
                    assert built == [(name, v) for v in want]
                    capsys.readouterr()
        assert lines["both"] == lines["plain"] + lines["star"]

    @pytest.mark.parametrize(
        "kind, module, builder, fmt",
        [
            ("weighted", "cli", "csv_blocks", "csv"),
            ("tournament", "digraph_builder", "tournament_rows", "dot"),
            ("variant-digraph", "cli", "variant_bits", "d6"),
        ],
    )
    def test_both_holds_one_variant_at_a_time(
        self, monkeypatch, capsys, kind, module, builder, fmt
    ):
        # when the starred item is drawn, the plain rows written before it
        # are freed; every item is sliced from row templates, with no
        # dense matrix
        import importlib
        import weakref

        import recon_census.digraph_builder as db
        import recon_census.weight_matrix as wm

        lib = importlib.import_module(f"recon_census.{module}")
        real = getattr(lib, builder)
        written, drawn = [], []

        def dense(p, variant):
            raise AssertionError("generate builds no dense matrix")

        def recording(p, variant):
            assert [ref() for ref in written] == [None] * len(written)
            item = real(p, variant)
            drawn.append(variant)
            if kind != "weighted":
                written.append(weakref.ref(item))
            return item

        for module in (db, wm):
            monkeypatch.setattr(module, "build_dense", dense)
        monkeypatch.setattr(lib, builder, recording)
        args = ["--p", "16", "--kind", kind, "--variant", "both", "--format", fmt]
        assert run_cli("generate", *args) == 0
        assert drawn == list(MatrixVariant)
        assert len(written) == (0 if kind == "weighted" else 2)
        capsys.readouterr()

    def test_variant_digraph_requires_order_8(self):
        assert run_cli("generate", "--p", "4", "--kind", "variant-digraph") == 2

    def test_weighted_dot_is_usage_error(self):
        assert (
            run_cli("generate", "--p", "8", "--kind", "weighted", "--format", "dot")
            == 2
        )

    def test_dot_output(self, tmp_path):
        out = tmp_path / "g.dot"
        run_cli(
            "generate", "--p", "4", "--kind", "tournament", "--format", "dot",
            "--out", str(out),
        )
        text = out.read_text()
        assert "digraph G4 {" in text and "1 -> 2;" in text


class TestDeckCommand:
    def test_card_count(self, tmp_path):
        out = tmp_path / "deck.d6"
        run_cli("deck", "--p", "8", "--kind", "tournament", "--out", str(out))
        assert len(out.read_text().splitlines()) == 8

    def test_variant_digraph_deck(self, tmp_path):
        out = tmp_path / "deck.d6"
        run_cli(
            "deck", "--p", "8", "--kind", "variant-digraph", "--variant", "star",
            "--out", str(out),
        )
        assert len(out.read_text().splitlines()) == 8

    def test_creates_missing_output_directory(self, tmp_path):
        out = tmp_path / "a" / "b" / "deck.d6"
        run_cli("deck", "--p", "4", "--kind", "tournament", "--out", str(out))
        assert out.exists()

    def test_matches_golden_fixture(self, tmp_path, capsys):
        golden = (FIXTURES / "deck_p8.d6").read_bytes()
        out = tmp_path / "deck.d6"
        assert run_cli("deck", "--p", "8", "--out", str(out)) == 0
        assert out.read_bytes() == golden
        assert run_cli("deck", "--p", "8") == 0
        assert capsys.readouterr().out.encode() == golden

    @pytest.mark.parametrize("fmt", ["d6", "csv", "dot"])
    @pytest.mark.parametrize("kind, name", [("tournament", "G16"), ("variant-digraph", "D16")])
    def test_same_bytes_as_whole_deck_encoding(self, tmp_path, fmt, kind, name):
        from recon_census.digraph_builder import standard_pair, variant_pair
        from recon_census.iso_engine import deck

        g, _ = (standard_pair if kind == "tournament" else variant_pair)(16)
        cards = deck(g)
        want = {
            "d6": "".join(c.to_digraph6() + "\n" for c in cards),
            "csv": "\n".join(c.to_csv() for c in cards),
            "dot": "".join(
                c.to_dot(f"{name}_card{k}") for k, c in enumerate(cards, start=1)
            ),
        }[fmt]
        out = tmp_path / f"deck.{fmt}"
        assert run_cli("deck", "--p", "16", "--kind", kind, "--format", fmt,
                       "--out", str(out)) == 0
        assert out.read_text() == want

    def test_memory_holds_one_card(self, tmp_path):
        import tracemalloc

        out = tmp_path / "deck.csv"
        tracemalloc.start()
        try:
            status = run_cli("deck", "--p", "128", "--format", "csv", "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        # the whole deck's text is 128 * 127 * 254 = 4.1 MB
        assert out.stat().st_size == 128 * 127 * 254 + 127
        assert peak < 2 * 1024 * 1024

    def test_internal_error_leaves_the_cards_before_it(
        self, tmp_path, monkeypatch, capsys
    ):
        # the d6 deck encodes each card with the core's digraph6 writer
        real = blocks.digraph6_blocks
        calls = []

        def failing(p, read):
            calls.append(p)
            if len(calls) == 3:
                raise RuntimeError("card 3")
            return real(p, read)

        monkeypatch.setattr(blocks, "digraph6_blocks", failing)
        out = tmp_path / "deck.d6"
        assert run_cli("deck", "--p", "8", "--out", str(out)) == 3
        golden = (FIXTURES / "deck_p8.d6").read_text().splitlines(keepends=True)
        assert out.read_text() == "".join(golden[:2])
        assert capsys.readouterr().err == (
            "recon-census: internal error: RuntimeError: card 3\n"
        )

    def test_internal_error_leaves_the_csv_cards_before_it(
        self, tmp_path, monkeypatch, capsys
    ):
        from recon_census.digraph_builder import Digraph, tournament_digraph

        g = tournament_digraph(8, MatrixVariant.PLAIN)
        want = _items_text([(None, g.delete_point(k)) for k in (1, 2)], "csv")
        real = Digraph.delete_point

        def failing(self, k):
            if k == 3:
                raise RuntimeError("card 3")
            return real(self, k)

        monkeypatch.setattr(Digraph, "delete_point", failing)
        out = tmp_path / "deck.csv"
        assert run_cli("deck", "--p", "8", "--format", "csv", "--out", str(out)) == 3
        assert out.read_text() == want
        assert capsys.readouterr().err == (
            "recon-census: internal error: RuntimeError: card 3\n"
        )


class TestExportCommand:
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_sigma_table_byte_exact(self, tmp_path, p):
        out = tmp_path / "sigma.tsv"
        run_cli("export", "--p", str(p), "--out", str(out))
        assert out.read_bytes() == (FIXTURES / f"sigma_p{p}.tsv").read_bytes()


def _items_text(named, fmt):
    """Named items in one output format, from the public encoders."""
    if fmt == "d6":
        return "".join(g.to_digraph6() + "\n" for _, g in named)
    if fmt == "dot":
        return "".join(g.to_dot(name) for name, g in named)
    return "\n".join(g.to_csv() for _, g in named)


def _streamed_cases():
    """(args, expected text from the public encoders, fixture or None)."""
    from recon_census.digraph_builder import standard_pair, variant_pair

    for p in (4, 8, 16, 64):
        pairs = {"tournament": ("G", standard_pair(p))}
        if p >= 8:
            pairs["variant-digraph"] = ("D", variant_pair(p))
        fixture = None
        if p <= 16:
            fixture = "\n".join(
                (FIXTURES / f"weighted_p{p}_{v.value}.csv").read_text()
                for v in MatrixVariant
            )
        matrices = [(v.value, build_dense(p, v)) for v in MatrixVariant]
        yield ("generate", "--p", str(p), "--kind", "weighted", "--variant", "both"), \
            _items_text(matrices, "csv"), fixture
        tsv = FIXTURES / f"sigma_p{p}.tsv"
        yield ("export", "--p", str(p)), sigma_table_tsv(p), \
            tsv.read_text() if tsv.exists() else None
        for kind, (tag, (g, h)) in pairs.items():
            for fmt in ("csv", "dot", "d6"):
                fixture = None
                if (p, kind, fmt) == (8, "tournament", "dot"):
                    fixture = (FIXTURES / "tournament_p8.dot").read_text()
                named = [(f"{tag}{p}", g), (f"{tag}{p}s", h)]
                yield ("generate", "--p", str(p), "--kind", kind, "--variant", "both",
                       "--format", fmt), _items_text(named, fmt), fixture
        g = pairs["tournament"][1][0]
        cards = [(f"G{p}_card{k}", g.delete_point(k)) for k in range(1, p + 1)]
        for fmt in ("csv", "dot", "d6"):
            fixture = None
            if (p, fmt) == (8, "d6"):
                fixture = (FIXTURES / "deck_p8.d6").read_text()
            yield ("deck", "--p", str(p), "--format", fmt), _items_text(cards, fmt), fixture


class TestStreamedWrites:
    """The CLI writes every large text one row block at a time."""

    # 1: one row (or one 6-bit group) per block; the others leave a partial
    # last block, e.g. 3 of 4 rows of the weighted csv at p = 4 (150 cells),
    # 5 of 16 at p = 16 (1000) and 14 of 64 at p = 64 (10000)
    @pytest.mark.parametrize("cells", [1, 150, 1000, 10000])
    def test_block_seams_leave_the_bytes_unchanged(self, tmp_path, monkeypatch, cells):
        import recon_census.cli as cli_mod

        cases = list(_streamed_cases())
        fixtures = sum(fixture is not None for _, _, fixture in cases)
        assert fixtures == 8
        monkeypatch.setattr(blocks, "_BLOCK_CELLS", cells)
        pieces = []
        real = cli_mod._write_output

        def recording(text, stream):
            pieces.append(text)
            real(text, stream)

        monkeypatch.setattr(cli_mod, "_write_output", recording)
        out = tmp_path / "out.txt"
        for args, want, fixture in cases:
            pieces.clear()
            assert run_cli(*args, "--out", str(out)) == 0
            if cells == 1:
                # at least one piece per row
                assert len(pieces) >= int(args[2]), args
            got = out.read_bytes()
            assert got == want.encode(), (args, cells)
            if fixture is not None:
                assert got == fixture.encode(), (args, cells)

    @pytest.mark.parametrize(
        "texts",
        [
            lambda: [csv_blocks(2048, v) for v in MatrixVariant],
            lambda: [sigma_tsv_blocks(1024)],
        ],
        ids=["weighted", "export"],
    )
    def test_scratch_is_a_fraction_of_the_text(self, tmp_path, texts):
        import tracemalloc

        from recon_census.cli import _emit

        # the row templates and the map check, which each call makes, are
        # not the writer's scratch: only drawing and writing the text is
        blocks = itertools.chain.from_iterable(texts())
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            _emit(blocks, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 21.0 MB and 4.1 MB written; writers that built the whole text
        # first peaked at 22.5 MB and 10.7 MB
        assert peak < out.stat().st_size / 4

    def test_cold_weighted_scratch_is_a_fraction_of_the_text(self, tmp_path):
        import tracemalloc

        # the writer builds what it needs under the trace
        out = tmp_path / "out.csv"
        args = ("generate", "--p", "2048", "--kind", "weighted", "--variant", "both")
        tracemalloc.start()
        try:
            status = run_cli(*args, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        # 21.0 MB written, 0.9 MB peak: each variant's offset table, four
        # row templates and one row block, no dense matrix
        assert peak < out.stat().st_size / 4


    @pytest.mark.parametrize(
        "args",
        [
            ("export", "--p", "1024"),
            ("generate", "--p", "1024", "--kind", "tournament", "--variant", "both",
             "--format", "d6"),
        ],
        ids=["export", "tournament-d6"],
    )
    def test_cold_writers_hold_no_table(self, tmp_path, args):
        import tracemalloc

        # the writer builds what it needs under the trace
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            status = run_cli(*args, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        # 0.9 MB peak each, for 4.1 MB and 0.35 MB written: the routes that
        # built the int32 map table or each dense matrix and digraph peaked
        # at 8.6 MB and 4.7 MB
        assert peak < 2 * 1024 * 1024


class TestCensusCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "census.csv"
        assert run_cli("census", "--p", "8", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "assignment_bits,is_tournament,isomorphic,orbit_id"
        assert len(lines) == 257

    def test_json_output(self, tmp_path):
        out = tmp_path / "census.json"
        run_cli("census", "--p", "8", "--format", "json", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["p"] == 8 and len(doc["rows"]) == 256

    @pytest.mark.parametrize("p, jobs", [(8, "1"), (16, "1"), (16, "2")])
    def test_csv_matches_golden_fixture(self, tmp_path, capsys, p, jobs):
        golden = (FIXTURES / f"census_p{p}.csv").read_bytes()
        out = tmp_path / "census.csv"
        args = ("census", "--p", str(p), "--jobs", jobs)
        assert run_cli(*args, "--out", str(out)) == 0
        assert out.read_bytes() == golden
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.encode() == golden

    def test_verdicts_read_the_stacked_rows(self, tmp_path, monkeypatch):
        # the dense matrices of each order from 16 down to 4 are built once,
        # to stack every row's digraphs; no row's pair is built alone, and
        # no row is searched
        out = tmp_path / "census.csv"
        names = {"build_dense", "apply_assignment", "are_isomorphic"}
        calls = spied_run(monkeypatch, names, "census", "--p", "16", "--out", str(out))
        assert calls == ["build_dense"] * 6
        assert out.read_bytes() == (FIXTURES / "census_p16.csv").read_bytes()
        # the spies see a search where one runs
        calls = spied_run(monkeypatch, names, "verify", "--p", "4", "--checks", "deck-match",
                          "--out", str(out))
        assert "are_isomorphic" in calls

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("census", "--p", "8", "--out", str(a))
        run_cli("census", "--p", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerifyReports:
    def test_schema_fields_in_every_report(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli("verify", "--p", "8", "--checks", "all", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["all_pass"] is True
        assert len(doc["reports"]) >= 8
        for rep in doc["reports"]:
            assert rep["schema"] == SCHEMA_VERSION
            assert {"check", "p", "outcome", "checked"} <= set(rep)

    def test_byte_identical_reports(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                "verify", "--p", "1024", "--checks", "theorem1",
                "--seed", "11", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("p", [512, 1024])
    def test_exact_theorem1_report(self, tmp_path, capsys, p):
        # one exact report at every order, 512 and 1024 alike: --seed
        # reaches nothing, and nothing goes to stderr
        out = tmp_path / "rep.json"
        assert run_cli(
            "verify", "--p", str(p), "--checks", "theorem1",
            "--seed", "3", "--out", str(out),
        ) == 0
        (rep,) = json.loads(out.read_text())["reports"]
        assert rep == {
            "schema": SCHEMA_VERSION,
            "check": "theorem1",
            "p": p,
            "outcome": "pass",
            "checked": p * (p - 1) ** 2,
        }
        assert capsys.readouterr().err == ""

    def test_all_expansion_respects_order(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli("verify", "--p", "4", "--checks", "all", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["checks"] == [
            "lemma3", "theorem1", "theorem2", "hypo-sigma", "deck-match",
        ]

    def test_report_matches_golden_fixture(self, tmp_path, capsys):
        # every map consumer's verdict, checked count and report order
        out = tmp_path / "rep.json"
        args = ("verify", "--p", "64", "--checks", "all", "--seed", "5")
        assert run_cli(*args, "--out", str(out)) == 0
        golden = (FIXTURES / "verify_p64_all.json").read_bytes()
        assert out.read_bytes() == golden
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.encode() == golden

    def test_stdout_default(self, capsys):
        run_cli("verify", "--p", "8", "--checks", "lemma1")
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][0]["check"] == "lemma1"


    def test_reports_are_the_reference_sweeps_byte_for_byte(self, tmp_path, monkeypatch):
        # the command line's reports, byte for byte, are those of the
        # dense route with the sweep's block-copy reference in place
        import recon_census.hypomorphism_verifier as hv
        from loop_oracles import deletion_sweep_reference, hypomorphisms_reference

        p, checks = 256, ["theorem1", "hypo-sigma"]
        out = tmp_path / "rep.json"
        assert run_cli("verify", "--p", str(p), "--checks", ",".join(checks), "--out", str(out)) == 0
        monkeypatch.setattr(hv, "_deletion_sweep", deletion_sweep_reference)
        reports = [r.to_json_dict() for r in hypomorphisms_reference(p)]
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "p": p,
            "checks": checks,
            "all_pass": True,
            "reports": reports,
        }
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"
        names = [r["check"] for r in reports]
        assert names == ["theorem1", "hypo-sigma-tournament", "hypo-sigma-variant"]

    @pytest.mark.parametrize("p", [8, 16, 512])
    @pytest.mark.parametrize(
        "checks", ["theorem1", "hypo-sigma", "hypo-sigma,theorem1", "all"]
    )
    def test_no_deletion_sweep(self, tmp_path, monkeypatch, p, checks):
        # theorem 1 and both digraph pairs come from the digit automaton,
        # and no check runs the O(p**3) deletion sweep
        import recon_census.deletion_maps as dm
        import recon_census.hypomorphism_verifier as hv
        import recon_census.iso_engine as ie

        calls = []
        for module in (dm, hv, ie):

            def spy(*args, module=module, real=module._deletion_sweep):
                calls.append(module.__name__)
                return real(*args)

            monkeypatch.setattr(module, "_deletion_sweep", spy)
        out = tmp_path / "rep.json"
        assert run_cli("verify", "--p", str(p), "--checks", checks, "--out", str(out)) == 0
        assert calls == []


TOURNAMENT_CHECK = "canonical pair failed the tournament check"


def spied_run(monkeypatch, names, *args):
    """Which of ``names`` are called, in any ``recon_census`` module, while
    the command line runs ``args`` (and exits 0), in call order."""
    calls = []
    modules = [m for n, m in sys.modules.items() if n.startswith("recon_census.")]
    for module in modules:
        for name in names & set(vars(module)):

            def spy(*args, name=name, real=getattr(module, name), **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    assert run_cli(*args) == 0
    return calls


def spied_census(monkeypatch, tmp_path, names):
    """``spied_run`` of ``census --p 8``, the dense route of the command
    line (it stacks the assigned digraphs of every row), and then of the
    library's ``apply_assignment`` and ``check_theorem1``, which no command
    calls: the tests' oracles of an assigned digraph and of the digit
    automaton (``check_theorem1`` reads the map table of
    ``build_all_maps``)."""
    import recon_census.digraph_builder as db
    import recon_census.hypomorphism_verifier as hv
    from recon_census.weight_matrix import MatrixVariant, build_dense

    calls = spied_run(monkeypatch, names, "census", "--p", "8", "--out", str(tmp_path / "c.csv"))
    db.apply_assignment(build_dense(8, MatrixVariant.PLAIN), db.tournament_assignment(3))
    hv.check_theorem1(8)
    return calls


def spied_verify(monkeypatch, tmp_path, p, checks, names):
    """``spied_run`` of ``verify`` running ``checks`` at order p, and its
    reports."""
    out = tmp_path / "rep.json"
    args = ("verify", "--p", str(p), "--checks", checks, "--out", str(out))
    calls = spied_run(monkeypatch, names, *args)
    return calls, json.loads(out.read_text())["reports"]


class TestAutomatonPlanes:
    """``lemma2`` reads the maps' closed form off the digit automaton,
    ``lemma3`` and ``forced-iso`` its planes and ``swap`` the class table:
    no dense matrix and no map table, nor a checked block of its rows."""

    DENSE = {"build_dense", "entry_grid", "build_all_maps", "_checked_map_blocks"}

    def test_reads_no_dense_matrix_or_map_table(self, tmp_path, monkeypatch):
        calls, reports = spied_verify(
            monkeypatch, tmp_path, 512, "lemma2,lemma3,swap,forced-iso", self.DENSE
        )
        assert calls == []
        assert [(r["check"], r["outcome"]) for r in reports] == [
            ("lemma2", "pass"),
            ("lemma3", "pass"),
            ("swap", "pass"),
            ("forced-iso", "pass"),
        ]

    def test_spies_see_the_dense_route(self, tmp_path, monkeypatch):
        calls = spied_census(monkeypatch, tmp_path, self.DENSE)
        assert set(calls) == self.DENSE


class TestTableFreeWriters:
    """``export`` prints from the maps' closed form and digraph
    ``generate`` from bit templates: no dense matrix, digraph or map
    table."""

    DENSE = {"build_dense", "entry_grid", "apply_assignment", "build_all_maps"}

    @pytest.mark.parametrize(
        "args",
        [
            ("export", "--p", "256"),
            *(
                ("generate", "--p", "256", "--kind", kind, "--variant", "both",
                 "--format", fmt)
                for kind in ("tournament", "variant-digraph")
                for fmt in ("csv", "dot", "d6")
            ),
        ],
    )
    def test_call_no_dense_builder(self, tmp_path, monkeypatch, args):
        out = tmp_path / "out.txt"
        assert spied_run(monkeypatch, self.DENSE, *args, "--out", str(out)) == []
        assert out.stat().st_size > 0

    def test_spies_see_the_dense_route(self, tmp_path, monkeypatch):
        calls = spied_census(monkeypatch, tmp_path, self.DENSE)
        assert set(calls) == self.DENSE


class TestTournamentSelfCheck:
    """``hypo-sigma``'s tournament self-check reads the class table's twin
    levels: no dense matrix or digraph at any order, and a class-table
    fault is its failing report, not an internal error."""

    DENSE = {"build_dense", "entry_grid", "standard_pair", "apply_assignment"}

    @pytest.mark.parametrize("p", [8, 512, 2**20])
    def test_reads_no_dense_matrix_or_digraph(self, tmp_path, monkeypatch, p):
        calls, reports = spied_verify(monkeypatch, tmp_path, p, "hypo-sigma", self.DENSE)
        assert calls == []
        assert [(r["check"], r["outcome"]) for r in reports] == [
            ("hypo-sigma-tournament", "pass"),
            ("hypo-sigma-variant", "pass"),
        ]

    def test_spies_see_the_dense_route(self, tmp_path, monkeypatch):
        calls, _ = spied_verify(monkeypatch, tmp_path, 8, "deck-match", self.DENSE)
        calls += spied_census(monkeypatch, tmp_path, self.DENSE)
        assert set(calls) == self.DENSE

    @pytest.mark.parametrize("p", [4, 64, 2**20])
    @pytest.mark.parametrize("variant", list(MatrixVariant))
    def test_class_fault_is_a_contradiction_report(self, tmp_path, tables, p, variant):
        import recon_census.weight_matrix as wm
        from recon_census.report import VerificationReport

        # one off-diagonal cell negated in the row of the largest offsets
        # (at p = 4 the zero row): its twin keeps its level, so the pair
        # loses an arc, and the dense matrix is no longer antisymmetric
        tables.class_cell(variant, int(wm._reached_rows(p)[-1]), 1, 2)
        out = tmp_path / "rep.json"
        args = ("verify", "--p", str(p), "--checks", "hypo-sigma", "--out", str(out))
        assert run_cli(*args) == 1
        (rep,) = json.loads(out.read_text())["reports"]
        cex = (0, 0, 0, "contradiction", TOURNAMENT_CHECK)
        assert rep == VerificationReport("hypo-sigma", p, cex, 0).to_json_dict()

    @pytest.mark.parametrize("p", [8, 64])
    def test_level_outside_the_domain_is_a_contradiction_report(self, tmp_path, tables, p):
        import recon_census.weight_matrix as wm

        # a starred -2 becomes n + 2, whose bit table slot is that of
        # -(n+1): 0, unlike its twin's, so only the domain check catches it
        zero = int(wm._reached_rows(p)[0])
        cells = np.argwhere(wm._class_blocks(MatrixVariant.STAR)[zero] == -2)
        r, c = (int(v) for v in cells[0])
        tables.class_cell(MatrixVariant.STAR, zero, r, c, p.bit_length() + 1)
        out = tmp_path / "rep.json"
        args = ("verify", "--p", str(p), "--checks", "hypo-sigma", "--out", str(out))
        assert run_cli(*args) == 1
        (rep,) = json.loads(out.read_text())["reports"]
        assert rep["counterexample"]["rhs"] == TOURNAMENT_CHECK


def _verify_reports(tmp_path, p, checks):
    """(exit status, the reports' JSON text) of one ``verify`` run."""
    out = tmp_path / "rep.json"
    status = run_cli("verify", "--p", str(p), "--checks", checks, "--out", str(out))
    return status, json.dumps(json.loads(out.read_text())["reports"], indent=2)


def _joined(*texts):
    """The JSON text of the report lists ``texts``, concatenated."""
    return json.dumps(sum((json.loads(t) for t in texts), []), indent=2)


class TestCompanions:
    """No check's reports or exit status depend on the checks named with it."""

    NAMES = ("theorem1", "hypo-sigma", "lemma3")

    @classmethod
    def alone_and_together(cls, tmp_path, p):
        """Check that the three checks, named two or three at a time in
        every order, report and exit as each named alone; return the
        reports of each alone."""
        alone = {name: _verify_reports(tmp_path, p, name) for name in cls.NAMES}
        for r in (2, 3):
            for names in itertools.permutations(cls.NAMES, r):
                status, text = _verify_reports(tmp_path, p, ",".join(names))
                assert text == _joined(*(alone[name][1] for name in names)), names
                assert status == max(alone[name][0] for name in names), names
        return {name: json.loads(text) for name, (_, text) in alone.items()}

    @pytest.mark.parametrize("p", [8, 64, 512])
    def test_clean_orders(self, tmp_path, p):
        reports = self.alone_and_together(tmp_path, p)
        sweep = p * (p - 1) ** 2
        assert {
            name: [(r["check"], r["outcome"], r["checked"]) for r in rs]
            for name, rs in reports.items()
        } == {
            "theorem1": [("theorem1", "pass", sweep)],
            "hypo-sigma": [
                ("hypo-sigma-tournament", "pass", sweep),
                ("hypo-sigma-variant", "pass", sweep),
            ],
            "lemma3": [("lemma3", "pass", 2 * p * (p - 1))],
        }

    @pytest.mark.parametrize("p", [8, 64, 512])
    def test_swapped_map_row(self, tmp_path, tables, p):
        from loop_oracles import hypomorphisms_reference

        # two images swapped in the order-4 map deleting point 1, which
        # every deletion of a point 1 mod 4 reads
        tables.sigma_swap(0, 1, 3)
        reports = self.alone_and_together(tmp_path, p)
        decided = reports["theorem1"] + reports["hypo-sigma"]
        # theorem 1 and both pairs fail, as the dense route reports them
        assert [r["outcome"] for r in decided] == ["fail"] * 3
        assert decided == [r.to_json_dict() for r in hypomorphisms_reference(p)]

    @pytest.mark.parametrize("p", [8, 64, 512])
    def test_contradiction_in_the_pair_leaves_the_others_their_verdicts(
        self, tmp_path, monkeypatch, p
    ):
        # the self-check finds a twin pair that the tournament assignment
        # gives like bits
        monkeypatch.setattr(blocks, "_twin_levels", lambda p: ((1,), (1,)))
        reports = self.alone_and_together(tmp_path, p)
        (hypo,) = reports["hypo-sigma"]
        assert hypo["check"] == "hypo-sigma" and hypo["checked"] == 0
        assert hypo["counterexample"]["lhs"] == "contradiction"
        assert hypo["counterexample"]["rhs"] == TOURNAMENT_CHECK
        assert [r["outcome"] for r in reports["theorem1"] + reports["lemma3"]] == [
            "pass",
            "pass",
        ]
        assert reports["theorem1"][0]["checked"] == p * (p - 1) ** 2


class TestFailurePath:
    def test_check_failure_exits_1_and_still_writes_report(self, tmp_path, monkeypatch):
        import recon_census.weight_matrix as wm
        from recon_census.report import VerificationReport

        def failing_check(p):
            return VerificationReport("lemma1", p, (0, 1, 2, 3, 4), 10)

        monkeypatch.setattr(wm, "check_lemma1", failing_check)
        out = tmp_path / "rep.json"
        assert run_cli("verify", "--p", "8", "--checks", "lemma1", "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False
        (rep,) = doc["reports"]
        assert rep["outcome"] == "fail"
        assert rep["counterexample"] == {"k": 0, "i": 1, "j": 2, "lhs": 3, "rhs": 4}


class TestSchemaVersion:
    def test_value(self):
        assert SCHEMA_VERSION == "1.0.0"

    def test_parses_as_semver(self):
        parts = SCHEMA_VERSION.split(".")
        assert len(parts) == 3 and all(part.isdigit() for part in parts)


class TestSeedFlag:
    """``--seed`` is still accepted and validated, and changes nothing."""

    @pytest.mark.parametrize("p", [16, 512, 1024])
    def test_negative_is_usage_error(self, capsys, p):
        assert run_cli("verify", "--p", str(p), "--checks", "theorem1", "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if "error" in l]
        assert errors == ["recon-census verify: error: --seed must be >= 0, got -1"]

    @pytest.mark.parametrize("p", [512, 2048])
    def test_reports_do_not_depend_on_it(self, tmp_path, p):
        texts = []
        for seed in ("0", "9"):
            out = tmp_path / f"rep{seed}.json"
            args = ("--p", str(p), "--checks", "theorem1", "--seed", seed, "--out", str(out))
            assert run_cli("verify", *args) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert b"seed" not in texts[0]

    def test_help_says_it_has_no_effect(self, capsys):
        assert run_cli("verify", "--help") == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [l for l in lines if l.lstrip().startswith("--seed")]
        assert "has no effect" in line


class TestJobsFlag:
    """``--jobs`` is still accepted and validated, and changes nothing."""

    @pytest.mark.parametrize(
        "command", [("census", "--p", "8"), ("verify", "--p", "8", "--checks", "swap")]
    )
    def test_below_one_is_usage_error(self, capsys, command):
        assert run_cli(*command, "--jobs", "0") == 2
        assert "--jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_not_part_of_the_configuration(self, monkeypatch):
        from recon_census.cli import RunConfig, _parse_config

        monkeypatch.setenv("RECON_CENSUS_JOBS", "3")
        assert "jobs" not in RunConfig._fields
        assert _parse_config(["census", "--p", "8", "--jobs", "4"]) == _parse_config(
            ["census", "--p", "8"]
        )

    def test_import_starts_no_process_pool_machinery(self):
        code = (
            "import sys, recon_census.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
