"""Correctness gate for every benchmark invocation.

``check(argv, data, root)`` inspects the output one recon-census command
wrote and returns ``(problems, items)``: the list of violated properties
(empty when the output is correct) and the invocation's units of work.
Every property is derived here from the paper's statements, never from the
program's own code:

* ``verify``: every verdict passes and every ``checked`` equals its closed
  form (p(p-1)^2 for an exhaustive sweep, the trial count for sampled
  theorem 1, one step per level for theorem 2, ...); a sampled report
  echoes the seed.
* ``census``: all 2^(2(n+1)) rows with the known isomorphic / non-isomorphic
  split and nothing undecided; equal extreme-level bits force isomorphism;
  each row agrees with its extreme-level swap partner.
* ``generate``/``export``/``deck``: weighted matrices are antisymmetric with
  a zero diagonal and nest the p = 16 fixtures (lemma 1(a)); every
  deletion-map column is a bijection missing its deleted point; every
  digraph6 line decodes to a tournament of the right order.
* Every output not seeded must match the sha256 recorded in
  ``digests.json``: output bytes are an invariant of the program.

Run as a script (``python3 gate.py ROOT JOBS_JSON``) it checks a list of
``{"argv": [...], "out": path}`` jobs and prints one
``{"problems": [...], "items": n}`` per job as a JSON list.  The benchmark
runs it in its own process so that parsing large outputs never raises the
benchmark process's peak memory, which the kernel carries into the peak
RSS reported for every later child.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

# The CLI's documented defaults: theorem 1 is exhaustive up to p = 256 and
# sampled above with 10**6 trials unless --budget says otherwise.
EXHAUSTIVE_LIMIT = 256
DEFAULT_TRIALS = 1_000_000

# Check names in the order the CLI runs them; `all` keeps those valid at p.
CHECK_ORDER = (
    "lemma1", "lemma2", "lemma3", "theorem1", "theorem2",
    "hypo-sigma", "deck-match", "swap", "forced-iso",
)
_NEEDS_8 = {"lemma1", "lemma2", "swap", "forced-iso"}

# Census split (isomorphic, non-isomorphic) by order, from the paper's count.
CENSUS_SPLIT = {8: (216, 40), 16: (944, 80)}


def _options(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def digest_key(argv: list[str]) -> str:
    """The command without its output path, as keyed in ``digests.json``."""
    opts = _options(argv)
    opts.pop("--out", None)
    return " ".join([argv[0]] + [f"{k} {v}" for k, v in opts.items()])


def expand_checks(spec: str, p: int) -> list[str]:
    names = [c.strip() for c in spec.split(",") if c.strip()]
    if names != ["all"]:
        return names
    return [
        c for c in CHECK_ORDER
        if (c not in _NEEDS_8 or p >= 8) and (c != "deck-match" or p <= 12)
    ]


def expected_reports(p: int, names: list[str]) -> list[tuple[str, int]]:
    """(report name, closed-form checked count) for each requested check.

    Theorem 1 is listed as ``theorem1`` and resolved against the report,
    which may be exhaustive or sampled.
    """
    n = p.bit_length() - 1
    h = p // 2
    sweep = p * (p - 1) ** 2
    forms = {
        "lemma1": [("lemma1", 2 * p * p)],
        # (a) column halving, (b) half-shift, (c) endpoint detection, (d) sweep
        "lemma2": [("lemma2", h * (p - 2) + p * (h - 1) + p * (p - 1) + sweep)],
        "lemma3": [("lemma3", 2 * p * (p - 1))],
        "theorem1": [("theorem1", sweep)],
        # one step per halving level 8..p plus the order-4 base case
        "theorem2": [("theorem2", n - 1)],
        "hypo-sigma": [("hypo-sigma-tournament", sweep)]
        + ([("hypo-sigma-variant", sweep)] if p >= 8 else []),
        "deck-match": [("deck-match", p * p)],
        "swap": [("swap", 2 * p * p)],
        "forced-iso": [("forced-iso", p * p + 1)],
    }
    return [report for name in names for report in forms[name]]


def check_verify(argv: list[str], text: str) -> tuple[list[str], int]:
    opts = _options(argv)
    p = int(opts["--p"])
    seed = int(opts.get("--seed", "0"))
    trials = int(opts.get("--budget", DEFAULT_TRIALS))
    names = expand_checks(opts.get("--checks", "all"), p)
    try:
        doc = json.loads(text)
        reports = doc["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a verify document: {exc}"], 0
    problems = []
    if doc.get("command") != "verify" or doc.get("p") != p:
        problems.append(f"report header names {doc.get('command')} at p={doc.get('p')}")
    if doc.get("checks") != names:
        problems.append(f"report lists checks {doc.get('checks')}, expected {names}")
    if doc.get("all_pass") is not True:
        problems.append("all_pass is not true")
    expected = expected_reports(p, names)
    if len(reports) != len(expected):
        problems.append(f"{len(reports)} reports, expected {len(expected)}")
    items = 0
    for rep, (name, checked) in zip(reports, expected):
        got_name = rep.get("check")
        want_seed = None
        if name == "theorem1" and got_name == "theorem1-sampled" and p > EXHAUSTIVE_LIMIT:
            name, checked, want_seed = got_name, trials, seed
        if got_name != name:
            problems.append(f"report {got_name!r} where {name!r} was expected")
            continue
        if rep.get("p") != p or rep.get("outcome") != "pass" or "counterexample" in rep:
            problems.append(f"{name}: verdict {rep.get('outcome')!r} at p={rep.get('p')}")
        if rep.get("checked") != checked:
            problems.append(f"{name}: checked {rep.get('checked')}, closed form {checked}")
        if rep.get("seed") != want_seed:
            problems.append(f"{name}: seed {rep.get('seed')!r}, expected {want_seed!r}")
        items += rep.get("checked") if isinstance(rep.get("checked"), int) else 0
    return problems, items


def check_census(argv: list[str], text: str) -> tuple[list[str], int]:
    p = int(_options(argv)["--p"])
    n = p.bit_length() - 1
    width = 2 * (n + 1)
    lines = text.split("\n")
    if lines[0] != "assignment_bits,is_tournament,isomorphic,orbit_id" or lines[-1] != "":
        return ["census CSV header or final newline missing"], 0
    rows = {}
    problems = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 4 or len(fields[0]) != width or set(fields[0]) - {"0", "1"}:
            problems.append(f"malformed census row {line!r}")
            continue
        rows[fields[0]] = fields[1:]
    if list(rows) != [format(x, f"0{width}b") for x in range(1 << width)]:
        problems.append(f"census rows are not every {width}-bit assignment in order")
    words = [iso for _, iso, _ in rows.values()]
    split = (words.count("yes"), words.count("no"))
    if split != CENSUS_SPLIT.get(p) or words.count("undecided"):
        problems.append(
            f"census split {split} with {words.count('undecided')} undecided, "
            f"expected {CENSUS_SPLIT.get(p)} and 0"
        )
    top, bottom = n, 2 * n + 1  # positions of levels n+1 and -(n+1)
    for bits, (tournament, iso, orbit) in rows.items():
        # a tournament needs opposite bits on every level pair +-v
        want_tournament = all(bits[v] != bits[v + n + 1] for v in range(n + 1))
        if tournament != ("yes" if want_tournament else "no"):
            problems.append(f"row {bits}: is_tournament {tournament}")
        if bits[top] == bits[bottom] and iso != "yes":
            problems.append(f"row {bits}: equal extreme bits but isomorphic={iso}")
        chars = list(bits)
        chars[top], chars[bottom] = chars[bottom], chars[top]
        partner = "".join(chars)
        if rows.get(partner, [None, None])[:2] != [tournament, iso]:
            problems.append(f"row {bits} disagrees with its swap partner {partner}")
        if orbit != str(min(int(bits, 2), int(partner, 2))):
            problems.append(f"row {bits}: orbit_id {orbit}")
        if len(problems) > 20:
            break
    return problems, len(rows)


def _parse_int_csv(text: str, p: int) -> np.ndarray:
    lines = text.split("\n")
    if len(lines) != p + 1 or lines[-1] != "":
        raise ValueError(f"{len(lines) - 1} lines, expected {p}")
    if any(line.count(",") != p - 1 for line in lines[:-1]):
        raise ValueError(f"a row does not have {p} fields")
    values = np.fromstring(",".join(lines[:-1]), dtype=np.int64, sep=",")
    if values.size != p * p:
        raise ValueError("non-integer field")
    return values.reshape(p, p)


def check_weighted_csv(argv: list[str], text: str, root: Path) -> list[str]:
    p = int(_options(argv)["--p"])
    n = p.bit_length() - 1
    parts = text.split("\n\n")
    if len(parts) != 2:
        return [f"{len(parts)} matrices, expected the plain and the starred one"]
    problems = []
    for label, part in zip(("plain", "star"), (parts[0] + "\n", parts[1])):
        try:
            m = _parse_int_csv(part, p)
            fixture = _parse_int_csv(
                (root / "tests" / "fixtures" / f"weighted_p16_{label}.csv").read_text(), 16
            )
        except ValueError as exc:
            problems.append(f"{label}: unreadable CSV: {exc}")
            continue
        if not np.array_equal(m, -m.T):
            problems.append(f"{label}: not antisymmetric")
        if np.abs(m).max() > n + 1:
            problems.append(f"{label}: entry beyond level {n + 1}")
        if not np.array_equal(m[:16, :16], fixture):
            problems.append(f"{label}: top-left 16x16 block differs from the p=16 fixture")
    return problems


def check_sigma_tsv(argv: list[str], text: str) -> list[str]:
    p = int(_options(argv)["--p"])
    lines = text.split("\n")
    if len(lines) != p + 1 or lines[-1] != "":
        return [f"{len(lines) - 1} TSV rows, expected {p}"]
    cells = [line.split("\t") for line in lines[:-1]]
    if any(len(row) != p for row in cells):
        return [f"a TSV row does not have {p} columns"]
    holes = [(i, row.index("X")) for i, row in enumerate(cells) if "X" in row]
    if holes != [(i, i) for i in range(p)] or sum(row.count("X") for row in cells) != p:
        return ["'X' is not exactly on the diagonal"]
    try:
        table = np.array(
            [[0 if c == "X" else int(c) for c in row] for row in cells], dtype=np.int64
        )
    except ValueError as exc:
        return [f"non-integer TSV cell: {exc}"]
    # Sorted, column k must read 0 (the hole), then 1..p without k.
    r = np.arange(p)[:, None]
    k = np.arange(1, p + 1)[None, :]
    want = np.where(r == 0, 0, np.where(r < k, r, r + 1))
    bad = np.nonzero((np.sort(table, axis=0) != want).any(axis=0))[0]
    if bad.size:
        return [f"column {int(bad[0]) + 1} is not a bijection missing its deleted point"]
    return []


def decode_digraph6(line: str) -> np.ndarray:
    """Adjacency of one digraph6 line (``&``, size, 6-bit big-endian payload)."""
    if not line.startswith("&") or len(line) < 2:
        raise ValueError("digraph6 line must start with '&'")
    body = line[1:]
    if body[0] != "~":
        n, pos = ord(body[0]) - 63, 1
    elif body[1:2] != "~":
        n, pos = sum((ord(c) - 63) << (6 * (2 - t)) for t, c in enumerate(body[1:4])), 4
    else:
        n, pos = sum((ord(c) - 63) << (6 * (5 - t)) for t, c in enumerate(body[2:8])), 8
    codes = np.frombuffer(body[pos:].encode("ascii"), dtype=np.uint8).astype(np.int64) - 63
    if codes.size != (n * n + 5) // 6:
        raise ValueError(f"payload of {codes.size} characters for order {n}")
    if codes.size and (codes.min() < 0 or codes.max() > 63):
        raise ValueError("payload character out of range")
    bits = ((codes[:, None] >> np.arange(5, -1, -1)) & 1).reshape(-1)
    if bits[n * n :].any():
        raise ValueError("padding bits are not zero")
    return bits[: n * n].reshape(n, n)


def check_tournaments_d6(text: str, count: int, order: int) -> list[str]:
    lines = text.split("\n")
    if len(lines) != count + 1 or lines[-1] != "":
        return [f"{len(lines) - 1} digraph6 lines, expected {count}"]
    off = ~np.eye(order, dtype=bool)
    for index, line in enumerate(lines[:-1], start=1):
        try:
            adj = decode_digraph6(line)
        except ValueError as exc:
            return [f"digraph6 line {index}: {exc}"]
        if adj.shape != (order, order):
            return [f"digraph6 line {index}: order {adj.shape[0]}, expected {order}"]
        if np.diagonal(adj).any() or not ((adj + adj.T)[off] == 1).all():
            return [f"digraph6 line {index}: not a tournament"]
    return []


def check(argv: list[str], data: bytes, root: Path) -> tuple[list[str], int]:
    """Problems with one invocation's output, and its units of work."""
    text = data.decode("ascii", errors="replace")
    opts = _options(argv)
    command = argv[0]
    if command == "verify":
        return check_verify(argv, text)
    if command == "census":
        problems, items = check_census(argv, text)
    else:
        p = int(opts["--p"])
        items = len(data)
        if command == "generate" and opts.get("--kind") == "weighted":
            problems = check_weighted_csv(argv, text, root)
        elif command == "export":
            problems = check_sigma_tsv(argv, text)
        elif command == "deck" and opts.get("--format") == "d6":
            problems = check_tournaments_d6(text, p, p - 1)
        elif command == "generate" and opts.get("--kind") == "tournament":
            problems = check_tournaments_d6(text, 2, p)
        else:
            problems = [f"no gate for {digest_key(argv)!r}"]
    key = digest_key(argv)
    want = DIGESTS.get(key)
    got = hashlib.sha256(data).hexdigest()
    if want is None:
        problems.append(f"no recorded digest for {key!r}")
    elif got != want:
        problems.append(f"sha256 {got} differs from the recorded {want}")
    return problems, items


def main(argv: list[str]) -> int:
    root, jobs_path = Path(argv[0]), Path(argv[1])
    results = []
    for job in json.loads(jobs_path.read_text(encoding="utf-8")):
        try:
            data = Path(job["out"]).read_bytes()
        except OSError as exc:
            results.append({"problems": [f"no output: {exc}"], "items": 0})
            continue
        problems, items = check(job["argv"], data, root)
        results.append({"problems": problems, "items": items})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
