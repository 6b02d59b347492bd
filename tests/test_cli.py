import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from recon_census.cli import CHECKS, main
from recon_census.report import SCHEMA_VERSION

from conftest import FIXTURES


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    return main(list(args))


class FullStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` fails as on a full device."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.failing == "write":
            self._full()
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

    def test_non_power_of_two_rejected(self):
        assert run_cli("verify", "--p", "12", "--checks", "all") == 2

    def test_census_order_bounded(self):
        assert run_cli("census", "--p", "32") == 2

    def test_deck_match_bounded(self):
        assert run_cli("verify", "--p", "16", "--checks", "deck-match") == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("generate", "--p", "16384", "--kind", "weighted"),
            ("generate", "--p", "16384", "--kind", "tournament", "--format", "d6"),
            ("deck", "--p", "16384"),
            ("verify", "--p", "16384", "--checks", "hypo-sigma"),
            ("verify", "--p", "16384", "--checks", "forced-iso"),
            ("verify", "--p", "16384", "--checks", "lemma2"),
            ("verify", "--p", "16384", "--checks", "lemma3"),
            ("verify", "--p", "16384", "--checks", "swap"),
        ],
    )
    def test_dense_orders_refused_as_usage_error(self, capsys, args):
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ]
        assert "16384" in err.splitlines()[-1]

    @pytest.mark.parametrize("p", [2**25, 2**40])
    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--checks", "theorem1", "--budget", "10"),
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

    def test_oracle_limit_order_is_accepted(self):
        from recon_census.cli import _parse_config
        from recon_census.weight_matrix import ORACLE_ORDER_LIMIT

        assert ORACLE_ORDER_LIMIT == 2**24
        config = _parse_config(
            ["verify", "--p", str(2**24), "--checks", "theorem1", "--budget", "10"]
        )
        assert config.p == 2**24 and config.checks == ("theorem1",)

    def test_all_drops_dense_checks_above_dense_limit(self):
        from recon_census.weight_matrix import DENSE_ORDER_LIMIT

        assert expand_all(8192) == tuple(name for name in CHECKS if name != "deck-match")
        assert expand_all(16384) == tuple(
            name for name, (_, hi, _) in CHECKS.items() if hi > DENSE_ORDER_LIMIT
        )
        assert expand_all(16384) == ("lemma1", "theorem1", "theorem2")

    def test_dense_checks_accepted_at_dense_limit(self):
        from recon_census.cli import _parse_config
        from recon_census.weight_matrix import DENSE_ORDER_LIMIT

        dense = tuple(
            name for name, (_, hi, _) in CHECKS.items() if hi == DENSE_ORDER_LIMIT
        )
        assert dense == ("lemma2", "lemma3", "hypo-sigma", "swap", "forced-iso")
        config = _parse_config(["verify", "--p", "8192", "--checks", ",".join(dense)])
        assert config.checks == dense

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
        errors = [l for l in captured.err.splitlines() if l.startswith("recon-census: error:")]
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
            (16384, ("lemma1", "theorem1", "theorem2")),
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
            ("hypo-sigma", "standard_pair"),
            ("swap", "swap_involution"),
            ("forced-iso", "forced_isomorphism"),
        ],
    )
    def test_contradiction_is_a_failing_report(self, tmp_path, monkeypatch, name, target):
        import recon_census.cli as cli_mod
        from recon_census.errors import ContradictionError

        def contradiction(*args, **kwargs):
            raise ContradictionError("self-check failed")

        monkeypatch.setattr(cli_mod, target, contradiction)
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

        monkeypatch.setattr(db, "swap_involution", broken)
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

        from recon_census.digraph_builder import standard_pair

        standard_pair(128)  # the cached dense matrices are not the deck's
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
        from recon_census.digraph_builder import Digraph

        real = Digraph.delete_point

        def failing(self, k):
            if k == 3:
                raise RuntimeError("card 3")
            return real(self, k)

        monkeypatch.setattr(Digraph, "delete_point", failing)
        out = tmp_path / "deck.d6"
        assert run_cli("deck", "--p", "8", "--out", str(out)) == 3
        golden = (FIXTURES / "deck_p8.d6").read_text().splitlines(keepends=True)
        assert out.read_text() == "".join(golden[:2])
        assert capsys.readouterr().err == (
            "recon-census: internal error: RuntimeError: card 3\n"
        )


class TestExportCommand:
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_sigma_table_byte_exact(self, tmp_path, p):
        out = tmp_path / "sigma.tsv"
        run_cli("export", "--p", str(p), "--out", str(out))
        assert out.read_bytes() == (FIXTURES / f"sigma_p{p}.tsv").read_bytes()


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
                "verify", "--p", "512", "--checks", "theorem1",
                "--seed", "11", "--budget", "2000", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_sampled_switch_above_exhaustive_limit(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(
            "verify", "--p", "512", "--checks", "theorem1",
            "--seed", "3", "--budget", "1000", "--out", str(out),
        )
        (rep,) = json.loads(out.read_text())["reports"]
        assert rep["check"] == "theorem1-sampled"
        assert rep["checked"] == 1000
        assert rep["seed"] == 3

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


    def test_sweep_and_reference_reports_are_byte_identical(self, tmp_path, monkeypatch):
        import recon_census.deletion_maps as dm
        import recon_census.hypomorphism_verifier as hv
        import recon_census.iso_engine as ie

        args = ("verify", "--p", "256", "--checks", "theorem1,hypo-sigma", "--out")
        fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
        assert run_cli(*args, str(fast)) == 0
        for module in (hv, ie):
            monkeypatch.setattr(module, "_deletion_sweep", dm._deletion_sweep_reference)
        assert run_cli(*args, str(slow)) == 0
        assert fast.read_bytes() == slow.read_bytes()
        names = [r["check"] for r in json.loads(fast.read_text())["reports"]]
        assert names == ["theorem1", "hypo-sigma-tournament", "hypo-sigma-variant"]


class TestFailurePath:
    def test_check_failure_exits_1_and_still_writes_report(self, tmp_path, monkeypatch):
        import recon_census.cli as cli_mod
        from recon_census.report import VerificationReport

        def failing_check(p):
            return VerificationReport("lemma1", p, (0, 1, 2, 3, 4), 10)

        monkeypatch.setattr(cli_mod, "check_lemma1", failing_check)
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
    @pytest.mark.parametrize("p", [16, 512])
    def test_negative_is_usage_error(self, capsys, p):
        assert run_cli("verify", "--p", str(p), "--checks", "theorem1", "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if "error" in l]
        assert errors == ["recon-census: error: --seed must be >= 0, got -1"]


class TestJobsFlag:
    """``--jobs`` is still accepted and validated, and changes nothing."""

    @pytest.mark.parametrize(
        "command", [("census", "--p", "8"), ("verify", "--p", "8", "--checks", "swap")]
    )
    def test_below_one_is_usage_error(self, capsys, command):
        assert run_cli(*command, "--jobs", "0") == 2
        assert "--jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_not_part_of_the_configuration(self, monkeypatch):
        import dataclasses

        from recon_census.cli import RunConfig, _parse_config

        monkeypatch.setenv("RECON_CENSUS_JOBS", "3")
        assert "jobs" not in {f.name for f in dataclasses.fields(RunConfig)}
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
