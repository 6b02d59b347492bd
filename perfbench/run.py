"""Benchmark of the recon-census command line: four workloads, one process per command.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {deep,exhaustive,census,emit} \\
        --seed N --seconds S --trace {0,1}

Each workload is a fixed list of recon-census commands.  Users run each
command as a fresh process with every per-process cache cold, so the
benchmark does the same: a closed loop from this one process starts one
command at a time and repeats the list while another repetition fits in
``--seconds``.
``--seed`` reaches the program only as its ``--seed`` option.  Every output
goes through the correctness gate (``gate.py``); an invocation fails on a
non-zero exit, a crash or a gate violation, and every failure is printed.

The benchmark, its children and a probe process (``probe.py``) share one
CPU.  Just before and just after each command the probe times fixed jobs on
that CPU, and every time of the command is scaled by the jobs' reference time
over their measured time (``Probe``): the times read as seconds on a host of
the reference speed, so drift in the host's speed cancels while a change in
the program's cost shows.
With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the loop's workload runs.  With ``--trace 1`` the loop runs
untraced for half the time and traced (``spans.py``) for the other half, and
the last line reports the per-layer metrics.  The lines before it give the
machine, every metric by name with its unit, and the error rate.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deep", "exhaustive", "census", "emit")
INVOCATION_TIMEOUT_S = 150.0
GATE_TIMEOUT_S = 120.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
)

# Typical times of the probe's jobs on the 2-vCPU VM the benchmark was defined
# on.  Scaled times read as seconds on a host of that speed.
PROBE_REF_S = {"python": 0.0045, "numpy": 0.045}
# The probe jobs that stand for each workload, after the kind of work that
# dominates it: the census search and the text encoders are interpreter-bound;
# deep and exhaustive drive numpy kernels over large arrays from Python.
PROBE_JOBS = {
    "deep": ("python", "numpy"),
    "exhaustive": ("python", "numpy"),
    "census": ("python",),
    "emit": ("python",),
}
PROBE_TIMEOUT_S = 30.0


class Probe:
    """The probe process, started after the CPU pin so that it shares the CPU."""

    def __init__(self, workload: str, env: dict):
        self.jobs = PROBE_JOBS[workload]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> tuple[float, float]:
        """How slow the host is now, in wall and in CPU time.

        Each is the jobs' mean time over their reference time.  The two part
        when the host takes the CPU away: wall time grows, CPU time does not.
        """
        self.proc.stdin.write(" ".join(self.jobs) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("probe process gave no reading")
        times = [float(t) for t in line.split()]
        refs = [PROBE_REF_S[job] for job in self.jobs]
        return (statistics.mean(w / r for w, r in zip(times[0::2], refs)),
                statistics.mean(c / r for c, r in zip(times[1::2], refs)))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The recon-census argument lists of one run of ``workload``.

    ``tiny`` keeps each command and its mix of checks at orders p <= 16; the
    warm-up and the benchmark's own tests use it.
    """
    s = str(seed)
    if workload == "deep":
        # oracle-bound: dense-free lemma 1 and theorem 2 plus sampled theorem 1
        big, huge = (16, 16) if tiny else (8192, 1 << 20)
        return [
            ["verify", "--p", str(big), "--checks", "lemma1,theorem1,theorem2",
             "--seed", s, "--jobs", "1"],
            ["verify", "--p", str(huge), "--checks", "theorem1", "--seed", s, "--jobs", "1"],
        ]
    if workload == "exhaustive":
        # every check as a full sweep over tabulated maps and dense grids
        return [["verify", "--p", "16" if tiny else "512", "--checks", "all",
                 "--seed", s, "--jobs", "1"]]
    if workload == "census":
        # the only workload that reaches the isomorphism search
        return [["census", "--p", "8" if tiny else "16", "--format", "csv", "--jobs", "1"]]
    if workload == "emit":
        # the write side: dense matrices and map tables through the text encoders
        w, t, d, g = (16, 16, 16, 16) if tiny else (2048, 1024, 256, 1024)
        return [
            ["generate", "--p", str(w), "--kind", "weighted", "--variant", "both",
             "--format", "csv"],
            ["export", "--p", str(t), "--format", "tsv"],
            ["deck", "--p", str(d), "--format", "d6"],
            ["generate", "--p", str(g), "--kind", "tournament", "--variant", "both",
             "--format", "d6"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["RECON_CENSUS_JOBS"] = "1"
    # numpy's BLAS pool would otherwise start a thread per core at import
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # the warm-up must be able to fill the bytecode cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Invocation:
    argv: list[str]
    out: Path
    status: int
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str
    span_file: Optional[Path]
    problems: list[str] = field(default_factory=list)
    items: int = 0
    # factors from the measured wall and CPU times to reference-host seconds:
    # one over the mean of the probe's readings just before and just after
    scale: float = 1.0
    cpu_scale: float = 1.0

    @property
    def failed(self) -> bool:
        return self.status != 0 or bool(self.problems)


def invoke(argv: list[str], workdir: Path, index: int, traced: bool, env: dict,
           probe: Optional[Probe] = None) -> Invocation:
    """Run one command in a fresh process and take its wall, set-up, CPU and peak RSS.

    With a ``probe``, the host speed is read just before and after the command.
    """
    out = workdir / f"out{index}"
    mark = workdir / f"mark{index}"
    span_file = workdir / f"spans{index}.json" if traced else None
    err = workdir / f"err{index}"
    for stale in (out, mark):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(mark),
           str(span_file) if traced else "-", *argv, "--out", str(out)]
    before = probe.read() if probe else None
    with open(err, "wb") as err_fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err_fh,
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], INVOCATION_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    after = probe.read() if probe else None
    proc.returncode = status = os.waitstatus_to_exitcode(wait_status)
    try:
        entered = float(mark.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        entered = end
    return Invocation(
        argv=argv,
        out=out,
        status=status,
        wall_s=end - start,
        setup_s=entered - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=err.read_text(encoding="utf-8", errors="replace"),
        span_file=span_file,
        scale=2 / (before[0] + after[0]) if probe else 1.0,
        cpu_scale=2 / (before[1] + after[1]) if probe else 1.0,
    )


def apply_gate(invocations: list[Invocation], workdir: Path) -> None:
    """Fill in each invocation's gate problems and items, in a separate process."""
    jobs = workdir / "gate_jobs.json"
    jobs.write_text(json.dumps([{"argv": i.argv, "out": str(i.out)} for i in invocations]))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "gate.py"), str(ROOT), str(jobs)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=GATE_TIMEOUT_S,
        )
        verdicts = json.loads(done.stdout)
        if len(verdicts) != len(invocations):
            raise ValueError(f"{len(verdicts)} verdicts for {len(invocations)} outputs")
    except (subprocess.TimeoutExpired, ValueError) as exc:
        detail = f"gate did not run: {exc}"
        verdicts = [{"problems": [detail], "items": 0} for _ in invocations]
    for inv, verdict in zip(invocations, verdicts):
        inv.problems = verdict["problems"]
        inv.items = verdict["items"]
        inv.out.unlink(missing_ok=True)


@dataclass
class Iteration:
    invocations: list[Invocation]
    # per-layer metrics of a traced run, read before the next run reuses the files
    layers: Optional[dict[str, float]] = None

    @property
    def wall_s(self) -> float:
        """Measured wall time, unscaled."""
        return sum(i.wall_s for i in self.invocations)

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics of this run, times scaled to the reference host."""
        wall = sum(i.wall_s * i.scale for i in self.invocations)
        return {
            "wall_s": wall,
            "setup_s": sum(i.setup_s * i.scale for i in self.invocations),
            "cpu_s": sum(i.cpu_s * i.cpu_scale for i in self.invocations),
            "peak_rss_mb": max(i.peak_rss_mb for i in self.invocations),
            "items_per_s": sum(i.items for i in self.invocations) / wall,
        }


def run_once(workload: str, seed: int, workdir: Path, traced: bool, tiny: bool,
             env: dict, gate: bool = True, probe: Optional[Probe] = None) -> Iteration:
    invocations = [
        invoke(argv, workdir, index, traced, env, probe)
        for index, argv in enumerate(commands(workload, seed, tiny))
    ]
    if gate:
        apply_gate(invocations, workdir)
        for inv in invocations:
            if inv.failed:
                tail = inv.stderr.strip().splitlines()[-3:]
                print(f"FAILED {' '.join(inv.argv)}: exit {inv.status}; "
                      f"{inv.problems}; stderr tail {tail}", file=sys.stderr)
    layers = spans.summarize([str(i.span_file) for i in invocations]) if traced else None
    return Iteration(invocations, layers)


def loop(workload: str, seed: int, seconds: float, workdir: Path, traced: bool,
         tiny: bool, env: dict, probe: Probe) -> list[Iteration]:
    """Closed loop: repeat the workload while another run fits in ``seconds``.

    Always runs at least once; stops before a run that, at the mean length
    of the runs so far, would end past ``seconds``.
    """
    done: list[Iteration] = []
    start = time.monotonic()
    while True:
        done.append(run_once(workload, seed, workdir, traced, tiny, env, probe=probe))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(done) > seconds:
            return done


def machine() -> dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
    }


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one benchmark measurement and return the result object."""
    env = child_env()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    # the probe must see the CPU the commands run on; children inherit the pin
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    probe = Probe(workload, env)
    try:
        # discarded warm-up: compiles the bytecode cache and loads numpy from disk
        run_once(workload, seed, workdir, False, True, env, gate=False)
        if trace:
            plain = loop(workload, seed, seconds / 2, workdir, False, tiny, env, probe)
            traced = loop(workload, seed, seconds / 2, workdir, True, tiny, env, probe)
            summary = _medians([it.layers for it in traced])
            summary[spans.OVERHEAD_METRIC] = (
                statistics.median(it.end_to_end()["wall_s"] for it in traced)
                - statistics.median(it.end_to_end()["wall_s"] for it in plain)
            )
            units = dict(spans.per_layer_metrics())
            runs = plain + traced
            _print_trace(workload, summary, traced)
        else:
            runs = loop(workload, seed, seconds, workdir, False, tiny, env, probe)
            summary = _medians([it.end_to_end() for it in runs])
            units = dict(END_TO_END)
    finally:
        probe.close()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    attempted = sum(len(it.invocations) for it in runs)
    failed = sum(inv.failed for it in runs for inv in it.invocations)
    print(f"# machine {json.dumps(machine())}")
    print(f"# {workload}: seed {seed}, {len(runs)} workload runs, {attempted} invocations")
    print(f"# measured wall s of each workload run: {[round(it.wall_s, 3) for it in runs]}")
    print(f"# scaled wall s of each workload run: "
          f"{[round(it.end_to_end()['wall_s'], 3) for it in runs]}")
    scales = [inv.scale for it in runs for inv in it.invocations]
    cpu_scales = [inv.cpu_scale for it in runs for inv in it.invocations]
    print(f"# probe scale factor: median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}..{max(scales):.3f}; for CPU time median "
          f"{statistics.median(cpu_scales):.3f}, range {min(cpu_scales):.3f}..{max(cpu_scales):.3f}")
    for name, unit in units.items():
        if name == spans.OVERHEAD_METRIC:
            note = "median scaled traced wall minus median scaled untraced wall"
        elif trace:
            note = f"median over {len(traced)} traced runs, unscaled"
        else:
            note = f"median over {len(runs)} runs"
            if unit in ("s", "1/s"):
                note += ", scaled to the reference host"
        print(f"{name} = {summary[name]!r} {unit} ({note})")
    print(f"error_rate = {failed / attempted!r} (failed {failed} of {attempted} invocations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summary[name], "unit": unit} for name, unit in units.items()},
    }


def _print_trace(workload: str, summary: dict[str, float], traced: list[Iteration]) -> None:
    """How the traced wall time splits into set-up, layers and the rest."""
    wall = statistics.median(it.wall_s for it in traced)
    setup = statistics.median(sum(i.setup_s for i in it.invocations) for it in traced)
    self_times = {
        key[: -len(".self_s")]: value
        for key, value in summary.items() if key.endswith(".self_s")
    }
    print(f"# trace {workload}: wall {wall:.3f} s = set-up {setup:.3f} s "
          f"+ spans {summary['_spans_s']:.3f} s (self-time sum "
          f"{sum(self_times.values()):.3f} s) + rest {wall - setup - summary['_spans_s']:.3f} s")
    by_layer: dict[str, float] = {}
    for name, value in self_times.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    print("# trace layers: " + ", ".join(
        f"{layer} {value:.3f} s" for layer, value in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:8]
    print("# trace top self: " + ", ".join(f"{name} {value:.3f} s" for name, value in top))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "recon_census" / "cli.py").is_file():
        print(f"recon_census sources not found under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
