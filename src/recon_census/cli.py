"""Command-line front end for generation, verification, and export.

Subcommands:

* ``generate``: print a weighted matrix (csv), or a canonical tournament
  or variant digraph (csv, dot, d6), each row sliced from O(p) row
  templates with no p x p table.
* ``verify``: run named checks at one order and write a JSON report.
* ``deck``: export every point-deleted card of a digraph, card by card.
* ``census``: enumerate all proper assignments at order 8 or 16.
* ``export``: write the deletion-mapping table (tsv) from the maps'
  closed form, with no p x p table.

Exit status: 0 when everything requested passed, 1 when a check failed
(the report is still written), 2 on usage errors and when the output
(``--out`` or stdout) cannot be written, 3 on an internal error (one
``internal error:`` line on stderr; output written before it stays).
Identical invocations produce byte-identical outputs; every verdict is
exact, and ``verify --seed`` is accepted but reaches nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from recon_census.deletion_maps import check_lemma2, sigma_tsv_blocks
from recon_census.digraph_builder import (
    CENSUS_ORDERS,
    Rows,
    _check_half_swap,
    _check_point1_levels,
    _check_tournaments,
    _csv_blocks,
    _digraph6_blocks,
    _dot_blocks,
    assignment_census,
    standard_pair,
    tournament_digraph,
    tournament_rows,
    variant_digraph,
    variant_rows,
)
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.hypomorphism_verifier import check_lemma3
from recon_census.iso_engine import (
    DECK_MATCH_ORDER_LIMIT,
    decks_match_independent,
    verify_nonisomorphic_inductive,
)
from recon_census.report import SCHEMA_VERSION, VerificationReport
from recon_census.theorem1_automaton import decide_hypomorphisms
from recon_census.weight_matrix import (
    DENSE_ORDER_LIMIT,
    MatrixVariant,
    ORACLE_ORDER_LIMIT,
    check_lemma1,
    csv_blocks,
    order_exponent,
)

__all__ = ["CHECKS", "RunConfig", "main", "run"]

#: Largest order ``deck`` writes.  Its p cards of order p - 1 take about
#: ``_DECK_BYTES_PER_P3[format] * p**3`` bytes (measured), so every accepted
#: deck stays under about 1 GB (dot at p = 512: 0.9 GB).
DECK_ORDER_LIMIT = 512
_DECK_BYTES_PER_P3 = {"d6": 1 / 6, "csv": 2, "dot": 6.5}
#: Bytes per cell of one matrix or digraph as ``generate`` and ``export``
#: write it, measured at p = 8192 (tsv and dot grow with the digits of
#: p): their refusal above ``DENSE_ORDER_LIMIT`` states the output size.
_BYTES_PER_P2 = {"tsv": 4.9, "weighted": 2.5, "csv": 2, "d6": 1 / 6, "dot": 7.9}


class RunConfig(NamedTuple):
    """One validated invocation; ``_parse_config`` builds it."""

    command: str
    p: int
    variant: str = "plain"
    kind: str = "weighted"
    format: str = "csv"
    checks: tuple[str, ...] = ()
    out: Optional[Path] = None


# Check runners take the validated configuration and return the check's
# reports.  They name library functions through this module's globals when
# called, so a wrapper or test double bound to ``cli.<name>`` reaches them.


def _theorem2(config: RunConfig) -> list[VerificationReport]:
    trace = verify_nonisomorphic_inductive(config.p)
    return [VerificationReport("theorem2", config.p, None, len(trace.steps))]


def _hypo_sigma(config: RunConfig) -> list[VerificationReport]:
    # the tournament self-check reads O(log p) class-table rows, no matrix
    _check_tournaments(config.p)
    return decide_hypomorphisms(config.p)[1:]


def _deck_match(config: RunConfig) -> list[VerificationReport]:
    p = config.p
    g, h = standard_pair(p)
    try:
        matching = decks_match_independent(g, h)
    except BudgetExhausted as exc:
        cex = (0, 0, 0, "undecided", str(exc))
    else:
        cex = None if matching is not None else (0, 0, 0, "no-perfect-matching", "")
    return [VerificationReport("deck-match", p, cex, p * p)]


def _swap(config: RunConfig) -> list[VerificationReport]:
    p = config.p
    # the class-row identity alone: the permutation tau is not read
    _check_half_swap(p)
    return [VerificationReport("swap", p, None, 2 * p * p)]


def _forced_iso(config: RunConfig) -> list[VerificationReport]:
    p = config.p
    # the point-1 level identity alone: the witness, p points, is not built
    _check_point1_levels(p)
    return [VerificationReport("forced-iso", p, None, p * p + 1)]


Runner = Callable[[RunConfig], list[VerificationReport]]

#: Every check, in report order: name -> (min_p, max_p, runner).  ``all``
#: expands to the checks whose range holds the order, and naming a check
#: outside its range is a usage error.  ``lemma2`` reads the deletion maps'
#: closed form off the digit automaton, with no map table, so only
#: ``deck-match`` is capped below ``ORACLE_ORDER_LIMIT``.
CHECKS: dict[str, tuple[int, int, Runner]] = {
    "lemma1": (8, ORACLE_ORDER_LIMIT, lambda c: [check_lemma1(c.p)]),
    "lemma2": (8, ORACLE_ORDER_LIMIT, lambda c: [check_lemma2(c.p)]),
    "lemma3": (4, ORACLE_ORDER_LIMIT, lambda c: [check_lemma3(c.p)]),
    "theorem1": (4, ORACLE_ORDER_LIMIT, lambda c: decide_hypomorphisms(c.p)[:1]),
    "theorem2": (4, ORACLE_ORDER_LIMIT, _theorem2),
    "hypo-sigma": (4, ORACLE_ORDER_LIMIT, _hypo_sigma),
    "deck-match": (4, DECK_MATCH_ORDER_LIMIT, _deck_match),
    "swap": (8, ORACLE_ORDER_LIMIT, _swap),
    "forced-iso": (8, ORACLE_ORDER_LIMIT, _forced_iso),
}


def _cmd_verify(config: RunConfig) -> int:
    reports: list[VerificationReport] = []
    for name in config.checks:
        try:
            reports += CHECKS[name][2](config)
        except ContradictionError as exc:
            cex = (0, 0, 0, "contradiction", str(exc))
            reports.append(VerificationReport(name, config.p, cex, 0))
    all_pass = all(r.passed for r in reports)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "p": config.p,
        "checks": list(config.checks),
        "all_pass": all_pass,
        "reports": [r.to_json_dict() for r in reports],
    }
    _emit([json.dumps(doc, indent=2) + "\n"], config.out)
    return 0 if all_pass else 1


def _selected_variants(config: RunConfig) -> list[MatrixVariant]:
    if config.variant == "both":
        return list(MatrixVariant)
    return [MatrixVariant(config.variant)]


def _encode(named: Iterable[tuple[str, int, Rows]], fmt: str) -> Iterator[str]:
    """Named digraphs in one output format, each given by its order and its
    adjacency rows (``digraph_builder.Rows``), encoded one row block at a
    time as they are drawn, each freed before the next is drawn."""
    first = True
    for name, p, rows in named:
        if fmt == "d6":
            yield from _digraph6_blocks(p, rows)
            yield "\n"
        elif fmt == "dot":
            yield from _dot_blocks(p, rows, name)
        else:
            if not first:
                # csv items are separated by one empty line
                yield "\n"
            yield from _csv_blocks(p, rows)
        first = False
        del rows


def _weighted_csv(config: RunConfig) -> Iterator[str]:
    """The weighted csv of each variant of ``--variant``, separated by one
    empty line, from ``weight_matrix.csv_blocks``: each row a slice of four
    row templates, no p x p matrix.  A variant's table is checked before
    the empty line that precedes it is drawn, so a failed check leaves the
    text before it whole."""
    for k, variant in enumerate(_selected_variants(config)):
        blocks = csv_blocks(config.p, variant)
        if k:
            yield "\n"
        yield from blocks


def _digraph_name(config: RunConfig, variant: MatrixVariant) -> str:
    tag = "G" if config.kind == "tournament" else "D"
    return f"{tag}{config.p}{'s' if variant is MatrixVariant.STAR else ''}"


def _digraph_items(config: RunConfig) -> Iterator[tuple[str, int, Rows]]:
    """The named digraphs of ``--kind`` and ``--variant``, each as the rows
    of ``tournament_rows`` or ``variant_rows``: sliced from bit templates,
    no p x p matrix, and checked when drawn, so that a failed check leaves
    the text before it whole."""
    rows = tournament_rows if config.kind == "tournament" else variant_rows
    for variant in _selected_variants(config):
        yield _digraph_name(config, variant), config.p, rows(config.p, variant)


def _cmd_generate(config: RunConfig) -> int:
    """The weighted csv (``_weighted_csv``) or the digraphs of
    ``_digraph_items``, each variant checked before its text and no
    p x p table held."""
    if config.kind == "weighted":
        pieces = _weighted_csv(config)
    else:
        pieces = _encode(_digraph_items(config), config.format)
    _emit(pieces, config.out)
    return 0


def _cmd_deck(config: RunConfig) -> int:
    """Every point-deleted card of one digraph, built dense
    (``tournament_digraph`` or ``variant_digraph``); memory holds the
    digraph, one card and its text, not the deck."""
    p = config.p
    build = tournament_digraph if config.kind == "tournament" else variant_digraph
    variant = MatrixVariant(config.variant)
    name = _digraph_name(config, variant)
    g = build(p, variant)
    cards = (
        (f"{name}_card{k}", p - 1, g.delete_point(k).adjacency.__getitem__)
        for k in range(1, p + 1)
    )
    _emit(_encode(cards, config.format), config.out)
    return 0


def _cmd_census(config: RunConfig) -> int:
    table = assignment_census(config.p)
    if config.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "census",
            "p": config.p,
            "rows": [r._asdict() for r in table.rows],
        }
        _emit([json.dumps(doc, indent=2) + "\n"], config.out)
    else:
        _emit([table.to_csv()], config.out)
    return 0


def _cmd_export(config: RunConfig) -> int:
    _emit(sigma_tsv_blocks(config.p), config.out)
    return 0


def _write_output(text: str, stream: TextIO) -> None:
    """Write one piece of output.  Every output byte passes here, so that a
    wrapper (``perfbench/spans.py``) can count them."""
    stream.write(text)


def _emit(pieces: Iterable[str], out: Optional[Path]) -> None:
    """Write the pieces to stdout or ``out`` as they are drawn; a failed
    write exits 2, not 1 (a failed check)."""
    try:
        if out is None:
            for piece in pieces:
                _write_output(piece, sys.stdout)
            # a short text only reaches the device at the flush
            sys.stdout.flush()
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
            with open(out, "w", encoding="utf-8", newline="") as fh:
                for piece in pieces:
                    _write_output(piece, fh)
    except OSError as exc:
        target = "stdout" if out is None else f"--out {out}"
        reason = exc.strerror or exc
        print(f"recon-census: error: cannot write {target}: {reason}", file=sys.stderr)
        if out is None:
            _discard_stdout()
        raise SystemExit(2) from exc


def _discard_stdout() -> None:
    """Send stdout to the null device, so that the exit-time flush of what a
    failed write left buffered cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


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


_JOBS_HELP = "has no effect (every run is one process); accepted if >= 1"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recon-census",
        description="Generate and verify the non-reconstructable tournament family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True, help="order (power of two >= 4)")
        sp.add_argument("--out", type=Path, default=None, help="output path (default: stdout)")
        # errors found after parsing are reported with this usage line
        sp.set_defaults(parser=sp)

    gen = sub.add_parser("generate", help="build and export one artifact")
    add_common(gen)
    gen.add_argument("--kind", choices=["weighted", "tournament", "variant-digraph"], default="weighted")
    gen.add_argument("--variant", choices=["plain", "star", "both"], default="plain")
    gen.add_argument("--format", choices=["csv", "dot", "d6"], default="csv")

    ver = sub.add_parser("verify", help="run checks and write a JSON report")
    add_common(ver)
    ver.add_argument("--checks", default="all", help="comma list of checks, or 'all'")
    ver.add_argument(
        "--seed", type=int, default=0,
        help="has no effect (every verdict is exact); accepted if >= 0",
    )
    ver.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)

    dk = sub.add_parser("deck", help="export every point-deleted card")
    add_common(dk)
    dk.add_argument("--kind", choices=["tournament", "variant-digraph"], default="tournament")
    dk.add_argument("--variant", choices=["plain", "star"], default="plain")
    dk.add_argument("--format", choices=["d6", "csv", "dot"], default="d6")

    cen = sub.add_parser("census", help="enumerate proper assignments (p = 8 or 16)")
    add_common(cen)
    cen.add_argument("--format", choices=["csv", "json"], default="csv")
    cen.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)

    exp = sub.add_parser("export", help="write the deletion-mapping table")
    add_common(exp)
    exp.add_argument("--format", choices=["tsv"], default="tsv")

    return parser


def _parse_config(argv: Optional[Sequence[str]]) -> RunConfig:
    args = _build_parser().parse_args(argv)
    parser = args.parser

    try:
        order_exponent(args.p)
    except ValueError:
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
        if not raw:
            parser.error(f"--checks names no check: {args.checks!r}")
        valid = [name for name, (lo, hi, _) in CHECKS.items() if lo <= args.p <= hi]
        if "all" in raw:
            if raw != ["all"]:
                parser.error(f"'all' must be named alone, got {args.checks!r}")
            checks = tuple(valid)
        else:
            unknown = [c for c in raw if c not in CHECKS]
            if unknown:
                parser.error(f"unknown checks: {', '.join(unknown)}")
            repeated = [c for c in dict.fromkeys(raw) if raw.count(c) > 1]
            if repeated:
                parser.error(f"checks named more than once: {', '.join(repeated)}")
            invalid = [c for c in raw if c not in valid]
            if invalid:
                parser.error(
                    f"checks not valid at p={args.p}: {', '.join(invalid)}"
                )
            checks = tuple(raw)

    if command in ("generate", "deck") and getattr(args, "kind", "") == "variant-digraph" and args.p < 8:
        parser.error("variant digraphs require p >= 8")
    if command == "generate" and args.kind == "weighted" and args.format != "csv":
        parser.error("weighted matrices export as csv only")
    if command == "census" and args.p not in CENSUS_ORDERS:
        orders = " or ".join(map(str, CENSUS_ORDERS))
        parser.error(f"census is available at p = {orders}, got {args.p}")
    if command == "deck" and args.p > DECK_ORDER_LIMIT:
        size = _DECK_BYTES_PER_P3[args.format] * args.p**3
        parser.error(
            f"deck --p {args.p} would write about {size / 1e9:.1f} GB as "
            f"{args.format}; deck is available up to p = {DECK_ORDER_LIMIT}"
        )
    if command in ("generate", "export") and args.p > DENSE_ORDER_LIMIT:
        weighted = getattr(args, "kind", "") == "weighted"
        items = 2 if getattr(args, "variant", "") == "both" else 1
        size = items * _BYTES_PER_P2["weighted" if weighted else args.format] * args.p**2
        about = f"{size / 1e9:.1f} GB" if size >= 1e9 else f"{size / 1e6:.0f} MB"
        parser.error(
            f"{command} --p {args.p} would write about {about} as {args.format}; "
            f"{command} is available up to p = {DENSE_ORDER_LIMIT}"
        )

    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    seed = getattr(args, "seed", 0)
    if seed < 0:
        parser.error(f"--seed must be >= 0, got {seed}")

    return RunConfig(
        command=command,
        p=args.p,
        variant=getattr(args, "variant", "plain"),
        kind=getattr(args, "kind", "weighted"),
        format=getattr(args, "format", "csv"),
        checks=checks,
        out=args.out,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(_parse_config(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        # a bug, or a failed self-check outside ``verify``: exit 1 would
        # read as a failed check
        message = " ".join(str(exc).split())
        print(
            f"recon-census: internal error: {type(exc).__name__}: {message}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
