"""Command-line front end for generation, verification, and export.

Subcommands:

* ``generate``: build a weighted matrix, canonical tournament, or variant
  digraph and export it (csv, dot, d6).
* ``verify``: run named checks at one order and write a JSON report.
* ``deck``: export every point-deleted card of a digraph.
* ``census``: enumerate all proper assignments at order 8 or 16.
* ``export``: write the deletion-mapping table (tsv).

Exit status: 0 when everything requested passed, 1 when a check failed
(the report is still written), 2 on usage errors.  Identical invocations
(including ``--seed``) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from recon_census.deletion_maps import (
    build_all_maps,
    check_lemma2,
    sigma_table_tsv,
)
from recon_census.digraph_builder import (
    DEFAULT_ISO_BUDGET,
    Digraph,
    assignment_census,
    assignment_from_mapping,
    build_dense,
    forced_isomorphism,
    standard_pair,
    swap_involution,
    tournament_assignment,
    variant_pair,
)
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.hypomorphism_verifier import (
    check_lemma3,
    check_theorem1,
    sample_theorem1,
)
from recon_census.iso_engine import (
    deck,
    decks_match_independent,
    verify_hypomorphic_by_sigma,
    verify_nonisomorphic_inductive,
)
from recon_census.report import SCHEMA_VERSION, VerificationReport
from recon_census.weight_matrix import (
    DENSE_ORDER_LIMIT,
    MatrixVariant,
    ORACLE_ORDER_LIMIT,
    check_lemma1,
)

__all__ = ["RunConfig", "main", "report_schema_version", "run"]

CHECK_NAMES = (
    "lemma1",
    "lemma2",
    "lemma3",
    "theorem1",
    "theorem2",
    "hypo-sigma",
    "deck-match",
    "swap",
    "forced-iso",
)

#: Largest order where the cubic hypomorphism sweep runs exhaustively.
EXHAUSTIVE_LIMIT = 256
DEFAULT_TRIALS = 1_000_000


def report_schema_version() -> str:
    """Semantic version of the JSON report schema."""
    return SCHEMA_VERSION


@dataclass(frozen=True)
class RunConfig:
    command: str
    p: int
    variant: str = "plain"
    kind: str = "weighted"
    format: str = "csv"
    checks: tuple[str, ...] = ()
    seed: int = 0
    budget: Optional[int] = None
    jobs: int = 1
    out: Optional[Path] = None


def _is_valid_order(p: int) -> bool:
    return p >= 4 and p & (p - 1) == 0


#: Checks holding dense p x p grids or all p deletion maps (O(p**2) memory).
DENSE_CHECKS = ("lemma2", "lemma3", "swap", "hypo-sigma", "forced-iso")


def _check_valid_at(name: str, p: int) -> bool:
    if name in DENSE_CHECKS and p > DENSE_ORDER_LIMIT:
        return False
    if name in ("lemma1", "lemma2", "swap", "forced-iso"):
        return p >= 8
    if name == "deck-match":
        return p <= 12
    return True


def _expand_checks(requested: Sequence[str], p: int) -> tuple[str, ...]:
    return tuple(name for name in requested if _check_valid_at(name, p))


def _default_jobs() -> int:
    raw = os.environ.get("RECON_CENSUS_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _variant_of(label: str) -> MatrixVariant:
    return MatrixVariant.PLAIN if label == "plain" else MatrixVariant.STAR


def _run_one_check(name: str, config: RunConfig) -> list[VerificationReport]:
    p = config.p
    if name == "lemma1":
        return [check_lemma1(p)]
    if name == "lemma2":
        return [check_lemma2(p)]
    if name == "lemma3":
        return [check_lemma3(p)]
    if name == "theorem1":
        if p <= EXHAUSTIVE_LIMIT:
            return [check_theorem1(p)]
        trials = config.budget or DEFAULT_TRIALS
        print(
            f"theorem1 at p={p}: sampled mode, {trials} trials, seed={config.seed}",
            file=sys.stderr,
        )
        return [sample_theorem1(p, trials, config.seed)]
    if name == "theorem2":
        try:
            trace = verify_nonisomorphic_inductive(p)
            return [
                VerificationReport("theorem2", p, True, None, len(trace.steps))
            ]
        except ContradictionError as exc:
            return [
                VerificationReport(
                    "theorem2", p, False, (0, 0, 0, "contradiction", str(exc)), 0
                )
            ]
    if name == "hypo-sigma":
        maps = build_all_maps(p)
        reports = []
        g, h = standard_pair(p)
        rep = verify_hypomorphic_by_sigma(g, h, maps)
        reports.append(dataclasses.replace(rep, check_name="hypo-sigma-tournament"))
        if p >= 8:
            g, h = variant_pair(p)
            rep = verify_hypomorphic_by_sigma(g, h, maps)
            reports.append(dataclasses.replace(rep, check_name="hypo-sigma-variant"))
        return reports
    if name == "deck-match":
        g, h = standard_pair(p)
        budget = config.budget or DEFAULT_ISO_BUDGET
        try:
            matching = decks_match_independent(g, h, budget=budget)
        except BudgetExhausted as exc:
            return [
                VerificationReport(
                    "deck-match", p, False, (0, 0, 0, "undecided", str(exc)), p * p
                )
            ]
        if matching is None:
            return [
                VerificationReport(
                    "deck-match", p, False, (0, 0, 0, "no-perfect-matching", ""), p * p
                )
            ]
        return [VerificationReport("deck-match", p, True, None, p * p)]
    if name == "swap":
        try:
            swap_involution(p)
            return [VerificationReport("swap", p, True, None, 2 * p * p)]
        except ContradictionError as exc:
            return [
                VerificationReport(
                    "swap", p, False, (0, 0, 0, "contradiction", str(exc)), 0
                )
            ]
    if name == "forced-iso":
        n = p.bit_length() - 1
        mapping = {v: 1 for v in range(1, n + 2)}
        mapping.update({-v: 0 for v in range(1, n + 2)})
        mapping[-(n + 1)] = 1
        equal_extremes = assignment_from_mapping(n, mapping)
        try:
            witness = forced_isomorphism(p, equal_extremes)
            unforced = forced_isomorphism(p, tournament_assignment(n))
        except ContradictionError as exc:
            return [
                VerificationReport(
                    "forced-iso", p, False, (0, 0, 0, "contradiction", str(exc)), 0
                )
            ]
        ok = witness is not None and unforced is None
        cex = None if ok else (0, 0, 0, "wrong-witness-presence", "")
        return [VerificationReport("forced-iso", p, ok, cex, p * p + 1)]
    raise ValueError(f"unknown check {name!r}")


def _cmd_verify(config: RunConfig) -> int:
    reports: list[VerificationReport] = []
    for name in config.checks:
        reports.extend(_run_one_check(name, config))
    all_pass = all(r.outcome for r in reports)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "p": config.p,
        "checks": list(config.checks),
        "all_pass": all_pass,
        "reports": [r.to_json_dict() for r in reports],
    }
    _write_output(json.dumps(doc, indent=2) + "\n", config.out)
    return 0 if all_pass else 1


def _selected_digraphs(config: RunConfig) -> list[tuple[str, Digraph]]:
    if config.kind == "tournament":
        g, h = standard_pair(config.p)
        tag = "G"
    else:
        g, h = variant_pair(config.p)
        tag = "D"
    named = {"plain": (f"{tag}{config.p}", g), "star": (f"{tag}{config.p}s", h)}
    if config.variant == "both":
        return [named["plain"], named["star"]]
    return [named[config.variant]]


def _cmd_generate(config: RunConfig) -> int:
    if config.kind == "weighted":
        variants = (
            ["plain", "star"] if config.variant == "both" else [config.variant]
        )
        parts = [
            build_dense(config.p, _variant_of(v)).to_csv() for v in variants
        ]
        _write_output("\n".join(parts), config.out)
        return 0
    named = _selected_digraphs(config)
    if config.format == "d6":
        text = "".join(g.to_digraph6() + "\n" for _, g in named)
    elif config.format == "dot":
        text = "".join(g.to_dot(name) for name, g in named)
    else:
        text = "\n".join(g.to_csv() for _, g in named)
    _write_output(text, config.out)
    return 0


def _cmd_deck(config: RunConfig) -> int:
    (name, g), = _selected_digraphs(config)
    cards = deck(g).cards
    if config.format == "d6":
        text = "".join(c.to_digraph6() + "\n" for c in cards)
    elif config.format == "dot":
        text = "".join(
            c.to_dot(f"{name}_card{k}") for k, c in enumerate(cards, start=1)
        )
    else:
        text = "\n".join(c.to_csv() for c in cards)
    _write_output(text, config.out)
    return 0


def _cmd_census(config: RunConfig) -> int:
    budget = config.budget or DEFAULT_ISO_BUDGET
    table = assignment_census(config.p, iso_budget=budget, jobs=config.jobs)
    if config.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "census",
            "p": config.p,
            "rows": [
                {
                    "assignment_bits": r.assignment_bits,
                    "is_tournament": r.is_tournament,
                    "isomorphic": r.isomorphic,
                    "orbit_id": r.orbit_id,
                }
                for r in table.rows
            ],
        }
        _write_output(json.dumps(doc, indent=2) + "\n", config.out)
    else:
        _write_output(table.to_csv(), config.out)
    return 0


def _cmd_export(config: RunConfig) -> int:
    _write_output(sigma_table_tsv(config.p), config.out)
    return 0


def _write_output(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration; returns the process exit status."""
    handler = {
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "deck": _cmd_deck,
        "census": _cmd_census,
        "export": _cmd_export,
    }[config.command]
    return handler(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recon-census",
        description="Generate and verify the non-reconstructable tournament family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True, help="order (power of two >= 4)")
        sp.add_argument("--out", type=Path, default=None, help="output path (default: stdout)")

    gen = sub.add_parser("generate", help="build and export one artifact")
    add_common(gen)
    gen.add_argument("--kind", choices=["weighted", "tournament", "variant-digraph"], default="weighted")
    gen.add_argument("--variant", choices=["plain", "star", "both"], default="plain")
    gen.add_argument("--format", choices=["csv", "dot", "d6"], default="csv")

    ver = sub.add_parser("verify", help="run checks and write a JSON report")
    add_common(ver)
    ver.add_argument("--checks", default="all", help="comma list of checks, or 'all'")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--budget", type=int, default=None)
    ver.add_argument("--jobs", type=int, default=None)

    dk = sub.add_parser("deck", help="export every point-deleted card")
    add_common(dk)
    dk.add_argument("--kind", choices=["tournament", "variant-digraph"], default="tournament")
    dk.add_argument("--variant", choices=["plain", "star"], default="plain")
    dk.add_argument("--format", choices=["d6", "csv", "dot"], default="d6")

    cen = sub.add_parser("census", help="enumerate proper assignments (p = 8 or 16)")
    add_common(cen)
    cen.add_argument("--format", choices=["csv", "json"], default="csv")
    cen.add_argument("--budget", type=int, default=None)
    cen.add_argument("--jobs", type=int, default=None)

    exp = sub.add_parser("export", help="write the deletion-mapping table")
    add_common(exp)
    exp.add_argument("--format", choices=["tsv"], default="tsv")

    return parser


def _parse_config(argv: Optional[Sequence[str]]) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if not _is_valid_order(args.p):
        parser.error(f"--p must be a power of two >= 4, got {args.p}")
    if args.p > ORACLE_ORDER_LIMIT:
        parser.error(
            f"--p is available up to {ORACLE_ORDER_LIMIT}, above which the entry "
            f"oracle's tables outgrow memory, got {args.p}"
        )

    command = args.command
    checks: tuple[str, ...] = ()
    if command == "verify":
        raw = [c.strip() for c in args.checks.split(",") if c.strip()]
        if raw == ["all"]:
            checks = _expand_checks(CHECK_NAMES, args.p)
        else:
            unknown = [c for c in raw if c not in CHECK_NAMES]
            if unknown:
                parser.error(f"unknown checks: {', '.join(unknown)}")
            invalid = [c for c in raw if not _check_valid_at(c, args.p)]
            if invalid:
                parser.error(
                    f"checks not valid at p={args.p}: {', '.join(invalid)}"
                )
            checks = tuple(raw)

    if command == "census" and args.p not in (8, 16):
        parser.error(f"census is available at p = 8 or 16, got {args.p}")
    if command in ("generate", "deck") and args.p > DENSE_ORDER_LIMIT:
        parser.error(
            f"{command} builds dense matrices, available up to "
            f"p = {DENSE_ORDER_LIMIT}, got {args.p}"
        )
    if command in ("generate", "deck") and getattr(args, "kind", "") == "variant-digraph" and args.p < 8:
        parser.error("variant digraphs require p >= 8")
    if command == "generate" and args.kind == "weighted" and args.format != "csv":
        parser.error("weighted matrices export as csv only")

    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = _default_jobs()
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        parser.error(f"--budget must be >= 1, got {budget}")

    return RunConfig(
        command=command,
        p=args.p,
        variant=getattr(args, "variant", "plain"),
        kind=getattr(args, "kind", "weighted"),
        format=getattr(args, "format", "csv"),
        checks=checks,
        seed=getattr(args, "seed", 0),
        budget=budget,
        jobs=jobs,
        out=args.out,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = _parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
