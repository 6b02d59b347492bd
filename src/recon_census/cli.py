"""Command-line front end for generation, verification, and export.

Subcommands:

* ``generate``: build a weighted matrix, canonical tournament, or variant
  digraph and export it (csv, dot, d6).
* ``verify``: run named checks at one order and write a JSON report.
* ``deck``: export every point-deleted card of a digraph, card by card.
* ``census``: enumerate all proper assignments at order 8 or 16.
* ``export``: write the deletion-mapping table (tsv).

Exit status: 0 when everything requested passed, 1 when a check failed
(the report is still written), 2 on usage errors and when the output
(``--out`` or stdout) cannot be written, 3 on an internal error (one
``internal error:`` line on stderr; output written before it stays).
Identical invocations produce byte-identical outputs; every verdict is
exact, and ``verify --seed`` is accepted but reaches nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

from recon_census.deletion_maps import check_lemma2, sigma_tsv_blocks
from recon_census.digraph_builder import (
    CENSUS_ORDERS,
    DEFAULT_ISO_BUDGET,
    Digraph,
    assignment_census,
    assignment_from_mapping,
    build_dense,
    forced_isomorphism,
    standard_pair,
    swap_involution,
    tournament_assignment,
    tournament_digraph,
    variant_digraph,
)
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.hypomorphism_verifier import check_hypomorphisms, check_lemma3
from recon_census.iso_engine import (
    DECK_MATCH_ORDER_LIMIT,
    decks_match_independent,
    verify_nonisomorphic_inductive,
)
from recon_census.report import SCHEMA_VERSION, VerificationReport
from recon_census.theorem1_automaton import decide_theorem1
from recon_census.weight_matrix import (
    DENSE_ORDER_LIMIT,
    MatrixVariant,
    ORACLE_ORDER_LIMIT,
    WeightedMatrix,
    check_lemma1,
    order_exponent,
    release_dense,
)

__all__ = ["CHECKS", "RunConfig", "main", "run"]

#: Largest order where theorem 1 is the cubic deletion sweep; the digit
#: automaton decides it above.
EXHAUSTIVE_LIMIT = 512
#: Largest order ``deck`` writes.  Its p cards of order p - 1 take about
#: ``_DECK_BYTES_PER_P3[format] * p**3`` bytes (measured), so every accepted
#: deck stays under about 1 GB (dot at p = 512: 0.9 GB).
DECK_ORDER_LIMIT = 512
_DECK_BYTES_PER_P3 = {"d6": 1 / 6, "csv": 2, "dot": 6.5}


@dataclass(frozen=True)
class RunConfig:
    command: str
    p: int
    variant: str = "plain"
    kind: str = "weighted"
    format: str = "csv"
    checks: tuple[str, ...] = ()
    budget: Optional[int] = None
    out: Optional[Path] = None


# Check runners take the validated configuration and the order's deletion
# sweep, and return the check's reports.  The sweep is a function that runs
# ``check_hypomorphisms`` on its first call and returns those reports on
# every call, so the checks that read it share one run.  Runners name
# library functions through this module's globals when called, so a
# wrapper or test double bound to ``cli.<name>`` reaches them.

Sweep = Callable[[], list[VerificationReport]]


def _theorem1(config: RunConfig, sweep: Sweep) -> list[VerificationReport]:
    if config.p <= EXHAUSTIVE_LIMIT:
        return sweep()[:1]
    return [decide_theorem1(config.p)]


def _theorem2(config: RunConfig, sweep: Sweep) -> list[VerificationReport]:
    trace = verify_nonisomorphic_inductive(config.p)
    return [VerificationReport("theorem2", config.p, None, len(trace.steps))]


def _hypo_sigma(config: RunConfig, sweep: Sweep) -> list[VerificationReport]:
    # the tournament self-check, O(p**2); the sweep reads the level matrices
    standard_pair(config.p)
    return sweep()[1:]


def _deck_match(config: RunConfig, sweep: Sweep) -> list[VerificationReport]:
    p = config.p
    g, h = standard_pair(p)
    budget = config.budget or DEFAULT_ISO_BUDGET
    try:
        matching = decks_match_independent(g, h, budget=budget)
    except BudgetExhausted as exc:
        cex = (0, 0, 0, "undecided", str(exc))
    else:
        cex = None if matching is not None else (0, 0, 0, "no-perfect-matching", "")
    return [VerificationReport("deck-match", p, cex, p * p)]


def _swap(config: RunConfig, sweep: Sweep) -> list[VerificationReport]:
    p = config.p
    swap_involution(p)
    return [VerificationReport("swap", p, None, 2 * p * p)]


def _forced_iso(config: RunConfig, sweep: Sweep) -> list[VerificationReport]:
    p = config.p
    n = p.bit_length() - 1
    mapping = {v: 1 for v in range(1, n + 2)}
    mapping.update({-v: 0 for v in range(1, n + 2)})
    mapping[-(n + 1)] = 1
    witness = forced_isomorphism(p, assignment_from_mapping(n, mapping))
    unforced = forced_isomorphism(p, tournament_assignment(n))
    ok = witness is not None and unforced is None
    cex = None if ok else (0, 0, 0, "wrong-witness-presence", "")
    return [VerificationReport("forced-iso", p, cex, p * p + 1)]


Runner = Callable[[RunConfig, Sweep], list[VerificationReport]]

#: Every check, in report order: name -> (min_p, max_p, runner).  ``all``
#: expands to the checks whose range holds the order, and naming a check
#: outside its range is a usage error.  The checks capped at
#: ``DENSE_ORDER_LIMIT`` hold dense p x p grids or all p deletion maps.
CHECKS: dict[str, tuple[int, int, Runner]] = {
    "lemma1": (8, ORACLE_ORDER_LIMIT, lambda c, _: [check_lemma1(c.p)]),
    "lemma2": (8, DENSE_ORDER_LIMIT, lambda c, _: [check_lemma2(c.p)]),
    "lemma3": (4, DENSE_ORDER_LIMIT, lambda c, _: [check_lemma3(c.p)]),
    "theorem1": (4, ORACLE_ORDER_LIMIT, _theorem1),
    "theorem2": (4, ORACLE_ORDER_LIMIT, _theorem2),
    "hypo-sigma": (4, DENSE_ORDER_LIMIT, _hypo_sigma),
    "deck-match": (4, DECK_MATCH_ORDER_LIMIT, _deck_match),
    "swap": (8, DENSE_ORDER_LIMIT, _swap),
    "forced-iso": (8, DENSE_ORDER_LIMIT, _forced_iso),
}


def _cmd_verify(config: RunConfig) -> int:
    reports: list[VerificationReport] = []
    # run on first use, and dropped with this call
    sweep = functools.cache(lambda: check_hypomorphisms(config.p))
    for name in config.checks:
        try:
            reports += CHECKS[name][2](config, sweep)
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


def _selected_items(
    config: RunConfig,
) -> Iterator[tuple[str, Digraph | WeightedMatrix]]:
    """The named matrices or digraphs of ``--kind`` and ``--variant``, each
    built only when drawn.  Drawing the next one first drops the cached
    matrix of the last, so that one variant is held at a time."""
    p = config.p
    tag, build = {
        "weighted": (None, build_dense),
        "tournament": ("G", tournament_digraph),
        "variant-digraph": ("D", variant_digraph),
    }[config.kind]
    for variant in _selected_variants(config):
        suffix = "s" if variant is MatrixVariant.STAR else ""
        name = variant.value if tag is None else f"{tag}{p}{suffix}"
        yield name, build(p, variant)
        release_dense(p, variant)


def _encode(
    named: Iterable[tuple[str, Digraph | WeightedMatrix]], fmt: str
) -> Iterator[str]:
    """Named digraphs in one output format, encoded one row block at a time
    as they are drawn, each freed before the next is drawn; weighted
    matrices export as csv only."""
    first = True
    for name, g in named:
        if fmt == "d6":
            yield from g.digraph6_blocks()
            yield "\n"
        elif fmt == "dot":
            yield from g.dot_blocks(name)
        else:
            if not first:
                # csv items are separated by one empty line
                yield "\n"
            yield from g.csv_blocks()
        first = False
        del g


def _cmd_generate(config: RunConfig) -> int:
    _emit(_encode(_selected_items(config), config.format), config.out)
    return 0


def _cmd_deck(config: RunConfig) -> int:
    (name, g), = _selected_items(config)
    # one card at a time: memory holds one card and its text, not the deck
    cards = ((f"{name}_card{k}", g.delete_point(k)) for k in range(1, g.order + 1))
    _emit(_encode(cards, config.format), config.out)
    return 0


def _cmd_census(config: RunConfig) -> int:
    budget = config.budget or DEFAULT_ISO_BUDGET
    table = assignment_census(config.p, iso_budget=budget)
    if config.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "census",
            "p": config.p,
            "rows": [dataclasses.asdict(r) for r in table.rows],
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
    ver.add_argument("--budget", type=int, default=None)
    ver.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)

    dk = sub.add_parser("deck", help="export every point-deleted card")
    add_common(dk)
    dk.add_argument("--kind", choices=["tournament", "variant-digraph"], default="tournament")
    dk.add_argument("--variant", choices=["plain", "star"], default="plain")
    dk.add_argument("--format", choices=["d6", "csv", "dot"], default="d6")

    cen = sub.add_parser("census", help="enumerate proper assignments (p = 8 or 16)")
    add_common(cen)
    cen.add_argument("--format", choices=["csv", "json"], default="csv")
    cen.add_argument("--budget", type=int, default=None)
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
        parser.error(
            f"{command} builds p x p tables, available up to "
            f"p = {DENSE_ORDER_LIMIT}, got {args.p}"
        )
    if command in ("generate", "deck") and getattr(args, "kind", "") == "variant-digraph" and args.p < 8:
        parser.error("variant digraphs require p >= 8")
    if command == "generate" and args.kind == "weighted" and args.format != "csv":
        parser.error("weighted matrices export as csv only")

    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        parser.error(f"--budget must be >= 1, got {budget}")
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
        budget=budget,
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
