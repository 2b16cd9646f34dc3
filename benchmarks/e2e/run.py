"""End-to-end benchmark of the ``decor`` CLI.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--seconds N] [--trace 0|1] [--out PATH]
    python3 benchmarks/e2e/run.py compare A.json [B.json]

Each workload is one ``decor`` command (see ``WORKLOADS`` and
``README.md``) run as CLI subprocesses, one at a time, from this single
process.  A *timed* run (``--trace 0``) repeats the command for about
``--seconds`` seconds, each invocation preceded by one ``python -c
"import repro.cli"`` probe and bracketed by two host-speed measurements,
and reports medians of wall and CPU (raw and scaled to the reference host
speed), peak RSS and the probe wall (``setup_s``).  A *traced* run
(``--trace 1``) repeats, for about as long: an ``-X importtime`` import,
a probe, a plain invocation, one with every recording flag on, and one
through ``e2e_trace.py``, which times each layer by wrapping its public
functions from outside; per-layer values are medians over repetitions.
Without ``--trace`` both run.  Every invocation's output is checked
against its golden and a golden-free oracle; a failed check or nonzero
exit counts as a failed operation.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` for a timed run, its ``per_layer`` metrics for a traced
run).  ``--out PATH`` appends the full set (samples, quartiles, every
layer metric, checks, host) to a results file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Any

from e2e_checks import (
    check_fig08,
    check_restore,
    epoch_gaps,
    mask_restore,
    parse_importtime,
    percentile,
    summarize,
)
from e2e_trace import METHODS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
WORK = HERE / ".work"
EPOCHS = 100
#: an invocation running this long is killed and counted as failed
INVOCATION_TIMEOUT_S = 120.0
#: restore-only latencies: printed and compared, but not every workload has them
REPAIR_BOUNDS = {"repair_p50_ms": 0.10, "repair_p98_ms": 0.15}
#: Floor time of ``reference_loop`` on the baseline host when it was quiet.
#: ``*_ref_s`` metrics scale each invocation by REFERENCE_LOOP_S over the
#: floor measured around it, cancelling host-speed drift (README.md).
REFERENCE_LOOP_S = 0.020


@dataclass(frozen=True)
class Workload:
    name: str
    #: decor arguments; "{json}" and "{seed}" are filled per invocation
    args: tuple[str, ...]
    #: golden figure JSON under golden/, for figure workloads
    golden: str | None = None

    @property
    def restore(self) -> bool:
        return self.args[0] == "restore"

    def cli_args(self, seed: int, json_path: Path) -> list[str]:
        return [a.format(json=json_path, seed=seed) for a in self.args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig08-paper",
            ("figure", "8", "--scale", "paper", "--seeds", "1", "--json", "{json}"),
            golden="fig08-paper-s1.json",
        ),
        Workload(
            "restore-epochs",
            ("restore", "--side", "100", "--points", "2000", "--k", "3",
             "--method", "centralized", "--epochs", str(EPOCHS), "--seed", "{seed}"),
        ),
        Workload(
            "fig08-pool",
            ("figure", "8", "--scale", "paper", "--seeds", "2", "--workers", "2",
             "--json", "{json}"),
            golden="fig08-paper-s2.json",
        ),
        Workload("smoke-cli", ("figure", "8", "--json", "{json}"), golden="fig08-smoke.json"),
    )
}


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def unit_of(name: str) -> str:
    stem, _, last = name.rpartition(".")
    base = stem if last in METHODS else name  # per-method metrics, e.g. core.loop_self_s.grid
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"),
                         ("_bytes", "bytes"), ("ns_per_placement", "ns")):
        if base.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_kb: int
    code: int
    lines: list[tuple[float, str]]
    stderr: str

    @property
    def stdout(self) -> str:
        return "".join(line + "\n" for _, line in self.lines)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    return env


def run_process(argv: list[str]) -> Proc:
    """Run one process to exit; wall, rusage and time-stamped stdout lines."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            lines = [
                (time.perf_counter(), raw.decode("utf-8", "replace").rstrip("\n"))
                for raw in proc.stdout
            ]
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
        lines, err_path.read_text(encoding="utf-8", errors="replace"),
    )


PROBE = [sys.executable, "-c", "import repro.cli"]
IMPORTTIME = [sys.executable, "-X", "importtime", "-c", "import repro.cli"]


def reference_loop() -> float:
    """Floor time of a fixed pure-Python loop that uses no repro code.

    The minimum of seven repetitions ignores contention bursts shorter than
    the measurement, so it tracks the host's sustained speed.
    """

    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - start

    return min(once() for _ in range(7))


@dataclass
class Outcome:
    proc: Proc
    problems: list[str]
    #: the masked restore lines or figure JSON bytes, for determinism checks
    output: Any
    trace: dict[str, Any] | None = None


def invoke(wl: Workload, seed: int, mode: str = "plain") -> Outcome:
    """One invocation of ``wl``: ``plain``, ``obs`` (every recording flag
    on, into the work dir) or ``traced`` (through ``e2e_trace.py``)."""
    json_path = WORK / f"{wl.name}.json"
    json_path.unlink(missing_ok=True)
    cli = wl.cli_args(seed, json_path)
    if mode == "obs":
        obs_dir = WORK / "obs"
        shutil.rmtree(obs_dir, ignore_errors=True)
        obs_dir.mkdir()
        for flag, name in (("--trace", "trace.jsonl"), ("--metrics", "metrics.json"),
                           ("--sample", "sample.jsonl"), ("--ledger", "ledger")):
            cli += [flag, str(obs_dir / name)]
    trace_dir = WORK / f"trace-{wl.name}"
    if mode == "traced":
        (trace_dir / "trace.json").unlink(missing_ok=True)
        proc = run_process([sys.executable, str(HERE / "e2e_trace.py"), str(trace_dir), "--", *cli])
    else:
        proc = run_process([sys.executable, "-m", "repro.cli", *cli])
    trace = None
    stdout = proc.stdout
    code = proc.code
    if mode == "traced" and code == 0:
        trace = json.loads((trace_dir / "trace.json").read_text(encoding="utf-8"))
        stdout = (trace_dir / "stdout.txt").read_text(encoding="utf-8")
        code = trace["code"]
    if code != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Outcome(proc, [f"{mode} invocation exited {code}: {' / '.join(tail)}"], None, trace)
    if wl.restore:
        problems = check_restore(stdout, EPOCHS, restore_golden(seed))
        return Outcome(proc, problems, mask_restore(stdout), trace)
    data = json_path.read_bytes() if json_path.is_file() else b""
    return Outcome(proc, check_fig08(data, (GOLDEN / wl.golden).read_bytes()), data, trace)


def restore_golden(seed: int) -> str | None:
    digests = json.loads((GOLDEN / "restore-epochs.sha256.json").read_text(encoding="utf-8"))
    return digests.get(str(seed))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed in one run, with their problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self._first_output: Any = None

    def record(self, problems: list[str], output: Any = None) -> None:
        self.attempted += 1
        if output is not None:
            if self._first_output is None:
                self._first_output = output
            elif output != self._first_output:
                problems = [*problems, "output differs from this run's first invocation"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def probe(self, proc: Proc) -> Proc:
        self.record([] if proc.code == 0 else [f"probe exited {proc.code}"])
        return proc


def _keep_going(start: float, seconds: float, round_s: float) -> bool:
    """Whether another round of ``round_s`` seconds still fits the budget."""
    return time.perf_counter() - start + round_s <= seconds


def timed_run(wl: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Invocations with tracing off, each after one set-up probe and
    between two host-speed measurements."""
    ops = Tally()
    run_process(PROBE)  # untimed: compiles bytecode, fills the page cache
    samples: dict[str, list[float]] = {
        name: [] for name in ("wall_ref_s", "cpu_ref_s", "peak_rss_mb", "setup_s",
                              "wall_s", "cpu_s", "host.calib_s")
    }
    gaps: list[list[float]] = []
    start = time.perf_counter()
    while True:
        before = reference_loop()
        samples["setup_s"].append(ops.probe(run_process(PROBE)).wall)
        out = invoke(wl, seed)
        floor = min(before, reference_loop())
        ops.record(out.problems, out.output)
        samples["wall_s"].append(out.proc.wall)
        samples["cpu_s"].append(out.proc.cpu)
        samples["wall_ref_s"].append(out.proc.wall * REFERENCE_LOOP_S / floor)
        samples["cpu_ref_s"].append(out.proc.cpu * REFERENCE_LOOP_S / floor)
        samples["peak_rss_mb"].append(out.proc.rss_kb / 1024.0)
        samples["host.calib_s"].append(floor)
        if wl.restore:
            gaps.append([1000.0 * g for g in epoch_gaps(out.proc.lines)])
        mean_round_s = (time.perf_counter() - start) / len(samples["wall_s"])
        if not _keep_going(start, seconds, mean_round_s):
            break
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    if wl.restore and all(gaps):
        pooled = [g for per_invocation in gaps for g in per_invocation]
        for name, q in (("repair_p50_ms", 50), ("repair_p98_ms", 98)):
            metrics[name] = percentile(pooled, q)
            samples[name] = [percentile(per_invocation, q) for per_invocation in gaps]
    return {
        "metrics": metrics, "samples": samples, "repair_samples": sum(map(len, gaps)),
        "attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
    }


def traced_run(wl: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Per-layer metrics: medians over repeated traced rounds."""
    ops = Tally()
    run_process(PROBE)
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        importtime = ops.probe(run_process(IMPORTTIME))
        probe = ops.probe(run_process(PROBE))
        plain = invoke(wl, seed)
        recorded = invoke(wl, seed, "obs")
        traced = invoke(wl, seed, "traced")
        for out in (plain, recorded, traced):
            ops.record(out.problems, out.output)
        if importtime.code != 0 or traced.trace is None:
            break
        trace = traced.trace
        values = parse_importtime(importtime.stderr)
        values.update(layer_metrics(trace["stats"], trace["edges"]))
        values.update({
            "obs.on_wall_s": recorded.proc.wall,
            "obs.on_overhead_frac": recorded.proc.wall / plain.proc.wall - 1.0,
            "trace.overhead_frac": trace["wall_s"] / (plain.proc.wall - probe.wall) - 1.0,
            "host.calib_s": reference_loop(),
            "host.cores": os.cpu_count() or 1,
        })
        rounds.append(values)
        if not _keep_going(start, seconds, time.perf_counter() - round_start):
            break
    keys = rounds[0] if rounds else {}
    return {
        "metrics": {k: statistics.median(r[k] for r in rounds) for k in keys},
        "samples": {k: [r[k] for r in rounds] for k in keys},
        "spans": str((WORK / f"trace-{wl.name}" / "spans.jsonl").relative_to(ROOT)),
        "attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_metrics(workload: str, part: dict[str, Any]) -> None:
    for name, value in part["metrics"].items():
        s = summarize(part["samples"][name])
        if name.startswith("repair_"):
            s["n"] = part["repair_samples"]  # pooled gaps, not invocations
        print(f"{workload:<15} {name:<36} {value:>14.6g} {unit_of(name):<6}"
              f"(n={s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    if "spans" in part:
        print(f"{workload:<15} spans written to {part['spans']}")
    for problem in part["problems"][:5]:
        print(f"{workload:<15} CHECK FAILED: {problem}")


def host_info() -> dict[str, Any]:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "networkx": version("networkx"), "commit": commit,
    }


def summary_line(results: dict[str, dict[str, Any]], spec: dict[str, Any]) -> str:
    """The final JSON line: the timed run reports BENCHMARK.json's
    ``end_to_end`` metrics, the traced run its ``per_layer`` ones; names
    are prefixed with the workload when several ran."""
    attempted = failed = 0
    metrics: dict[str, Any] = {}
    for workload, parts in results.items():
        prefix = f"{workload}:" if len(results) > 1 else ""
        for part_name, part in parts.items():
            attempted += part["attempted"]
            failed += part["failed"]
            for m in spec["end_to_end" if part_name == "timed" else "per_layer"]:
                if m["name"] in part["metrics"]:
                    metrics[prefix + m["name"]] = {
                        "value": part["metrics"][m["name"]], "unit": m["unit"],
                    }
    return json.dumps({
        "correct": failed == 0 and attempted > 0, "attempted": attempted,
        "failed": failed, "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(paths: list[str]) -> int:
    """Per workload and metric: both sets' values, sample medians and
    quartiles, the relative delta of the values and the bound.  A pair is
    unresolved when either side's quartile spread exceeds the bound;
    returns 1 when any resolved pair got worse by more than its bound."""
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    if len(docs) == 1 and len(docs[0]["sets"]) >= 2:
        a, b = docs[0]["sets"][:2]
    elif len(docs) == 2:
        a, b = docs[0]["sets"][-1], docs[1]["sets"][-1]
    else:
        print("compare needs two results files, or one holding two sets", file=sys.stderr)
        return 2
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} | REPAIR_BOUNDS
    print(f"{'workload':<15} {'metric':<14} {'A':>9} {'A median [q1, q3]':>27} "
          f"{'B':>9} {'B median [q1, q3]':>27} {'delta':>7} {'bound':>6}  verdict")
    worse = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ta, tb = a["workloads"][workload]["timed"], b["workloads"][workload]["timed"]
        for metric, bound in bounds.items():
            if metric not in ta["samples"] or metric not in tb["samples"]:
                continue
            va, vb = ta["metrics"][metric], tb["metrics"][metric]
            qa, qb = summarize(ta["samples"][metric]), summarize(tb["samples"][metric])
            delta = vb / va - 1.0
            spreads = [(q["q3"] - q["q1"]) / q["median"] for q in (qa, qb)]
            if max(spreads) > bound:
                verdict = "unresolved"
            elif abs(delta) > bound:
                verdict = "worse" if delta > 0 else "better"
            else:
                verdict = "same"
            worse += verdict == "worse"
            quartiles = [f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}]" for q in (qa, qb)]
            print(f"{workload:<15} {metric:<14} {va:>9.5g} {quartiles[0]:>27} "
                  f"{vb:>9.5g} {quartiles[1]:>27} {delta:>+7.1%} {bound:>6.0%}  "
                  f"{verdict} (n={qa['n']}/{qb['n']}, spread {spreads[0]:.1%}/{spreads[1]:.1%})")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw[:1] == ["compare"]:
        return compare(raw[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (restore-epochs)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: timed run only, 1: traced run only (default: both)")
    parser.add_argument("--out", type=Path, help="append the full set to this results file")
    args = parser.parse_args(raw)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    parts = {"0": ("timed",), "1": ("traced",), None: ("timed", "traced")}[args.trace]
    results: dict[str, dict[str, Any]] = {}
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        results[name] = {}
        for part in parts:
            run = timed_run if part == "timed" else traced_run
            results[name][part] = run(wl, args.seed, args.seconds)
            print_metrics(name, results[name][part])
    if args.out is not None:
        doc = {"host": host_info(), "sets": []}
        if args.out.is_file():
            doc = json.loads(args.out.read_text(encoding="utf-8"))
        doc["sets"].append({"seed": args.seed, "seconds": args.seconds, "workloads": results})
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"appended set {len(doc['sets'])} to {args.out}")
    print(summary_line(results, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
