"""Span recorder for the traced benchmark run.

``install`` wraps the public functions of each ``recon_census`` module from
outside.  The modules import each other's functions by name (``cli`` holds
its own reference to ``check_lemma1``, ``iso_engine`` to
``threshold_scores``, ...), so every module namespace that holds a target
function gets the wrapper, not just the defining module.  Spans
``(name, start, end, parent)`` and the work counts read from arguments and
return values stay in memory and are written once, by ``Recorder.dump``.

``summarize`` turns the span files of one workload run into per-layer
metrics: ``calls`` and ``self_s`` per wrapped function, where self time is
the span's duration minus that of its direct child spans, plus the work
counts and their rates.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# (span name, module, attribute path) for every wrapped function.  Several
# attributes may share one span name: the three Digraph encoders are
# ``digraph_builder.encode``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("weight_matrix.entry_values", "weight_matrix", "entry_values"),
    ("weight_matrix.entry_grid", "weight_matrix", "entry_grid"),
    ("weight_matrix.build_dense", "weight_matrix", "build_dense"),
    ("weight_matrix.check_lemma1", "weight_matrix", "check_lemma1"),
    ("weight_matrix.to_csv", "weight_matrix", "WeightedMatrix.to_csv"),
    ("deletion_maps.sigma_values", "deletion_maps", "sigma_values"),
    ("deletion_maps.build_map", "deletion_maps", "build_map"),
    ("deletion_maps.build_all_maps", "deletion_maps", "build_all_maps"),
    ("deletion_maps.check_lemma2", "deletion_maps", "check_lemma2"),
    ("deletion_maps.sigma_table_tsv", "deletion_maps", "sigma_table_tsv"),
    ("hypomorphism_verifier.check_lemma3", "hypomorphism_verifier", "check_lemma3"),
    ("hypomorphism_verifier.check_theorem1", "hypomorphism_verifier", "check_theorem1"),
    ("hypomorphism_verifier.sample_theorem1", "hypomorphism_verifier", "sample_theorem1"),
    ("digraph_builder.threshold_scores", "digraph_builder", "threshold_scores"),
    ("digraph_builder.apply_assignment", "digraph_builder", "apply_assignment"),
    ("digraph_builder.standard_pair", "digraph_builder", "standard_pair"),
    ("digraph_builder.variant_pair", "digraph_builder", "variant_pair"),
    ("digraph_builder.swap_involution", "digraph_builder", "swap_involution"),
    ("digraph_builder.forced_isomorphism", "digraph_builder", "forced_isomorphism"),
    ("digraph_builder.assignment_census", "digraph_builder", "assignment_census"),
    ("digraph_builder.delete_point", "digraph_builder", "Digraph.delete_point"),
    ("digraph_builder.encode", "digraph_builder", "Digraph.to_csv"),
    ("digraph_builder.encode", "digraph_builder", "Digraph.to_dot"),
    ("digraph_builder.encode", "digraph_builder", "Digraph.to_digraph6"),
    ("iso_engine.are_isomorphic", "iso_engine", "are_isomorphic"),
    ("iso_engine.deck", "iso_engine", "deck"),
    ("iso_engine.verify_hypomorphic_by_sigma", "iso_engine", "verify_hypomorphic_by_sigma"),
    ("iso_engine.decks_match_independent", "iso_engine", "decks_match_independent"),
    ("iso_engine.verify_nonisomorphic_inductive", "iso_engine", "verify_nonisomorphic_inductive"),
    ("cli.main", "cli", "main"),
)


def _checked(result) -> dict[str, int]:
    return {"checked": result.checked_count}


def _size(key: str) -> Callable[[Any], dict[str, int]]:
    return lambda result: {key: int(result.size)}


def _length(key: str) -> Callable[[Any], dict[str, int]]:
    return lambda result: {key: len(result)}


def _iso(result) -> dict[str, int]:
    return {"nodes": result.nodes, "undecided": int(result.status.value == "undecided")}


# Work counts per span name, read from the return value only.  Every
# encoder returns ASCII text, so its length is its size in bytes.
COUNTERS: dict[str, Callable[[Any], dict[str, int]]] = {
    "weight_matrix.entry_values": _size("queries"),
    "deletion_maps.sigma_values": _size("queries"),
    "weight_matrix.check_lemma1": _checked,
    "deletion_maps.check_lemma2": _checked,
    "hypomorphism_verifier.check_lemma3": _checked,
    "hypomorphism_verifier.check_theorem1": _checked,
    "hypomorphism_verifier.sample_theorem1": _checked,
    "iso_engine.verify_hypomorphic_by_sigma": _checked,
    "digraph_builder.threshold_scores": _size("rows"),
    "iso_engine.are_isomorphic": _iso,
    "iso_engine.verify_nonisomorphic_inductive": lambda r: {"levels": len(r.steps)},
    "digraph_builder.assignment_census": lambda r: {"rows": len(r.rows)},
    "weight_matrix.to_csv": _length("bytes"),
    "deletion_maps.sigma_table_tsv": _length("bytes"),
    "digraph_builder.encode": _length("bytes"),
}

# Reported per-layer metrics beyond calls/self_s: (metric, count, unit).  A
# rate ``X_per_s`` divides count ``X`` (or ``rows`` for threshold scores) by
# the span's inclusive time.
COUNT_METRICS: tuple[tuple[str, str], ...] = (
    ("weight_matrix.entry_values.queries", "count"),
    ("deletion_maps.sigma_values.queries", "count"),
    ("iso_engine.are_isomorphic.nodes", "count"),
    ("iso_engine.are_isomorphic.undecided", "count"),
    ("iso_engine.verify_nonisomorphic_inductive.levels", "count"),
    ("digraph_builder.assignment_census.rows", "count"),
    ("weight_matrix.to_csv.bytes", "bytes"),
    ("deletion_maps.sigma_table_tsv.bytes", "bytes"),
    ("digraph_builder.encode.bytes", "bytes"),
    ("cli.bytes_out", "bytes"),
)
RATE_METRICS: tuple[tuple[str, str], ...] = (
    ("weight_matrix.entry_values.queries_per_s", "weight_matrix.entry_values.queries"),
    ("deletion_maps.sigma_values.queries_per_s", "deletion_maps.sigma_values.queries"),
    ("digraph_builder.threshold_scores.rows_per_s", "digraph_builder.threshold_scores.rows"),
    ("iso_engine.are_isomorphic.nodes_per_s", "iso_engine.are_isomorphic.nodes"),
) + tuple(
    (f"{name}.checked_per_s", f"{name}.checked")
    for name, counter in COUNTERS.items()
    if counter is _checked
)
CHECKED_METRICS: tuple[str, ...] = tuple(
    f"{name}.checked" for name, counter in COUNTERS.items() if counter is _checked
)
OVERHEAD_METRIC = "trace.overhead_s"


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, as (name, unit)."""
    out: list[tuple[str, str]] = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(m, "count") for m in CHECKED_METRICS]
    out += list(COUNT_METRICS)
    out += [(m, "1/s") for m, _ in RATE_METRICS]
    out.append((OVERHEAD_METRIC, "s"))
    return out


class Recorder:
    """In-memory spans and counts of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def count_output(self, fn: Callable) -> Callable:
        """Count the bytes handed to the CLI's output writer; no span."""

        @functools.wraps(fn)
        def wrapper(text, out):
            self.counts["cli.bytes_out"] += len(text.encode("utf-8"))
            return fn(text, out)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _rebind(original: Callable, wrapper: Callable) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "recon_census" or mod_name.startswith("recon_census.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Recorder:
    """Wrap every target in every ``recon_census`` namespace holding it."""
    recorder = Recorder()
    for name, mod_name, path in TARGETS:
        module = importlib.import_module(f"recon_census.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, recorder.wrap(name, vars(cls)[attr]))
        else:
            original = getattr(module, path)
            _rebind(original, recorder.wrap(name, original))
    cli = importlib.import_module("recon_census.cli")
    cli._write_output = recorder.count_output(cli._write_output)
    return recorder


def summarize(paths: Iterable[str]) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one workload run.

    Covers every metric of ``per_layer_metrics`` except the overhead, which
    needs the untraced runs.  Also returns ``_spans_s``, the summed
    inclusive time of root spans, so callers can check that self times
    account for the traced time.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    roots = 0.0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                roots += end - start
        for (name, start, end, parent), children in zip(spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - children
            inclusive[name] += end - start
        for key, value in doc["counts"].items():
            counts[key] += value

    metrics: dict[str, float] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for metric in CHECKED_METRICS:
        metrics[metric] = counts[metric]
    for metric, _ in COUNT_METRICS:
        metrics[metric] = counts[metric]
    for metric, count in RATE_METRICS:
        span = count.rsplit(".", 1)[0]
        busy = inclusive[span]
        metrics[metric] = counts[count] / busy if busy > 0 else 0.0
    metrics["_spans_s"] = roots
    return metrics
