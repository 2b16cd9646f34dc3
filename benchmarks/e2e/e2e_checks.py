"""Output checks and text parsers for the end-to-end benchmark.

Pure functions over bytes and text, shared by ``run.py`` and its tests:

* golden comparison of figure JSON and of masked ``decor restore`` stdout;
* the golden-free fig08 oracle (monotone in k, centralized <= every
  series <= random) and the restore oracle (every epoch ends
  ``100% k-covered``);
* ``python -X importtime`` parsing into the ``imports.*`` metrics;
* epoch-gap extraction and percentiles for the repair latencies.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics

#: The restore summary names its engine strategy; masking it keeps a later
#: warm/cold default change from reading as an output change.
_MODE_WORD = re.compile(r"\((?:warm|cold)\)")
_RESTORE_PREFIXES = ("deployed", "epoch ", "survived")
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| *(\S+)\s*$")
#: Top-level packages whose import cost is reported on its own.
IMPORT_PACKAGES = ("repro", "numpy", "scipy", "networkx")


def mask_restore(text: str) -> str:
    """The deploy/epoch/summary lines of ``decor restore``, mode word masked.

    Other lines (obs export notices, trace tables) are dropped, so the
    same check serves plain and recording invocations.
    """
    keep = [
        _MODE_WORD.sub("(mode)", line)
        for line in text.splitlines()
        if line.startswith(_RESTORE_PREFIXES)
    ]
    return "".join(line + "\n" for line in keep)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _first_difference(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def check_restore(text: str, epochs: int, golden: str | None = None) -> list[str]:
    """Problems with one ``decor restore --epochs N`` stdout (empty = ok).

    ``golden`` is the :func:`digest` of the expected :func:`mask_restore`
    text; ``None`` checks the oracle only.
    """
    masked = mask_restore(text)
    lines = masked.splitlines()
    problems = []
    if sum(line.startswith("deployed") for line in lines) != 1:
        problems.append("expected one 'deployed' line")
    epoch_lines = [line for line in lines if line.startswith("epoch ")]
    numbers = [line.split()[1] for line in epoch_lines]
    if numbers != [str(i) for i in range(epochs)]:
        problems.append(f"expected epoch lines 0..{epochs - 1}, got {len(numbers)}")
    for line in epoch_lines:
        if not line.endswith("100% k-covered"):
            problems.append(f"epoch not repaired to full coverage: {line!r}")
            break
    if not any(line.startswith(f"survived           : {epochs} epochs") for line in lines):
        problems.append(f"missing 'survived ... {epochs} epochs' line")
    if golden is not None and digest(masked) != golden:
        problems.append("restore output differs from its golden")
    return problems


def check_fig08(data: bytes, golden: bytes | None = None) -> list[str]:
    """Problems with one fig08 JSON artifact (empty = ok).

    Byte equality with ``golden`` when given; the oracle always: each
    series is non-decreasing in k, and at every k the centralized count
    is the least and the random count the greatest.
    """
    problems = []
    if golden is not None and data != golden:
        problems.append(
            f"figure JSON differs from its golden at byte {_first_difference(data, golden)}"
        )
    try:
        series = {name: s["y"] for name, s in json.loads(data)["series"].items()}
        low, high = series["centralized"], series["random"]
    except (ValueError, KeyError, TypeError) as exc:
        return [*problems, f"not a fig08 JSON document: {exc!r}"]
    for name, ys in series.items():
        if any(b < a for a, b in zip(ys, ys[1:])):
            problems.append(f"series {name} decreases in k: {ys}")
        if len(ys) != len(low):
            problems.append(f"series {name} has {len(ys)} points, expected {len(low)}")
            continue
        for i, y in enumerate(ys):
            if not low[i] <= y <= high[i]:
                problems.append(f"series {name} at k index {i}: {y} outside [{low[i]}, {high[i]}]")
    return problems


def parse_importtime(text: str) -> dict[str, float]:
    """``-X importtime`` stderr of ``import repro.cli`` as ``imports.*`` seconds.

    ``imports.total_s`` is the cumulative time of the ``repro.cli`` import;
    ``imports.<pkg>_s`` sums the self time of every module of that
    top-level package, wherever in the graph it was imported.
    """
    self_us = dict.fromkeys(IMPORT_PACKAGES, 0)
    total_us = None
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        own, cumulative, name = int(match[1]), int(match[2]), match[3]
        top = name.split(".", 1)[0]
        if top in self_us:
            self_us[top] += own
        if name == "repro.cli":
            total_us = cumulative
    if total_us is None:
        raise ValueError("no 'repro.cli' line in the importtime output")
    out = {"imports.total_s": total_us / 1e6}
    out.update({f"imports.{pkg}_s": us / 1e6 for pkg, us in self_us.items()})
    return out


def epoch_gaps(timed_lines: list[tuple[float, str]]) -> list[float]:
    """Seconds between consecutive ``deployed``/``epoch i`` stdout lines.

    Each gap ends when an epoch's line appears, so it covers that epoch's
    failure injection, repair and report (the first also covers building
    the restoration session).
    """
    marks = [t for t, line in timed_lines if line.startswith(("deployed", "epoch "))]
    return [b - a for a, b in zip(marks, marks[1:])]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, interpolating between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values: list[float]) -> dict[str, float]:
    """Sample count, median and quartiles (``statistics.quantiles``, n=4)."""
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}
