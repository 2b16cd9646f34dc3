"""Tests of the end-to-end benchmark harness itself; they run no workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q --override-ini addopts=``.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

import e2e_checks as checks
import e2e_trace
import run as e2e_run

GOLDEN = Path(__file__).resolve().parent / "golden"

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       150 |        150 |   _io
import time:      1000 |       5000 |         numpy
import time:      4000 |       4000 |           numpy._core
import time:       300 |        300 |       scipy
import time:       700 |       1000 |     scipy.sparse
import time:       200 |        200 |       networkx
import time:        50 |      12000 |   repro
import time:        25 |         25 |     repro.geometry.points
import time:       400 |      12500 | repro.cli
"""


def test_importtime_sums_self_time_per_package():
    got = checks.parse_importtime(IMPORTTIME)
    assert got == {
        "imports.total_s": 0.0125,
        "imports.repro_s": 0.000475,
        "imports.numpy_s": 0.005,
        "imports.scipy_s": 0.001,
        "imports.networkx_s": 0.0002,
    }


def test_importtime_without_the_cli_line_is_an_error():
    with pytest.raises(ValueError):
        checks.parse_importtime(IMPORTTIME.replace("repro.cli", "repro.x"))


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def toy_modules():
    """A ``repro.*`` toy module plus one holding a ``from ... import`` alias."""
    toy = types.ModuleType("repro._e2e_toy")
    exec(
        "def inner(s):\n    spin(s)\n"
        "def outer(s):\n    spin(s)\n    inner(s)\n    inner(s)\n    return 'done'\n",
        toy.__dict__,
    )
    toy.spin = _spin
    alias = types.ModuleType("repro._e2e_toy_alias")
    alias.inner = toy.inner
    sys.modules[toy.__name__] = toy
    sys.modules[alias.__name__] = alias
    yield toy, alias
    del sys.modules[toy.__name__], sys.modules[alias.__name__]


def test_self_times_sum_to_the_outer_inclusive_time(toy_modules):
    toy, alias = toy_modules
    targets = (
        e2e_trace.Target("toy.outer", toy.__name__, "outer", span=True),
        e2e_trace.Target("toy.inner", toy.__name__, "inner"),
    )
    tracer = e2e_trace.Tracer()
    tracer.install(targets)
    try:
        assert alias.inner is toy.inner is not toy.outer
        assert toy.outer(0.002) == "done"
    finally:
        tracer.uninstall()
    outer, inner = tracer.stats["toy.outer"], tracer.stats["toy.inner"]
    assert (outer[0], inner[0]) == (1, 2)
    assert inner[2] == pytest.approx(inner[1])  # a leaf's self time is inclusive
    assert outer[2] + inner[2] == pytest.approx(outer[1], rel=1e-9)
    assert outer[2] >= 0.002 and inner[1] >= 0.004
    assert tracer.edges["toy.outer>toy.inner"] == pytest.approx(inner[1])
    [span] = tracer.spans
    assert span["name"] == "toy.outer" and span["parent"] is None
    assert span["end"] - span["start"] == pytest.approx(outer[1], rel=1e-9)


def _bindings() -> dict[tuple[str, str], int]:
    """Every global of every repro module and every traced class attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            out.update({(name, k): id(v) for k, v in vars(module).items()})
    for target in e2e_trace.TARGETS:
        owner = sys.modules[target.module]
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(target.module, target.qualname)] = id(owner.__dict__[attr] if path else owner)
    return out


def test_uninstall_restores_every_alias():
    import repro.cli  # noqa: F401  (loads the modules the targets live in)

    points = sys.modules["repro.geometry.points"]
    as_point = points.as_point
    tracer = e2e_trace.Tracer()
    tracer.install()  # imports every target module before the snapshot below
    tracer.uninstall()
    before = _bindings()
    tracer = e2e_trace.Tracer()
    tracer.install()
    try:
        assert points.as_point is not as_point
        assert sys.modules["repro.field.backends"].as_point is points.as_point
        # a module imported while tracing copies the wrapper
        late = types.ModuleType("repro._e2e_late")
        late.as_point = points.as_point
        sys.modules[late.__name__] = late
        points.as_point([1.0, 2.0])
    finally:
        tracer.uninstall()
    try:
        assert late.as_point is as_point
        del sys.modules[late.__name__]
        assert _bindings() == before
        assert tracer.stats["geometry.as_point"][0] == 1
    finally:
        sys.modules.pop("repro._e2e_late", None)


def test_figure_checker_flags_a_one_byte_change():
    golden = (GOLDEN / "fig08-smoke.json").read_bytes()
    assert checks.check_fig08(golden, golden) == []
    i = golden.index(b"72.0")
    changed = golden[:i] + b"73.0" + golden[i + 4:]
    assert checks.check_fig08(changed, golden) == [
        f"figure JSON differs from its golden at byte {i + 1}"
    ]


def test_figure_oracle_without_a_golden():
    doc = json.loads((GOLDEN / "fig08-smoke.json").read_bytes())
    assert checks.check_fig08(json.dumps(doc).encode()) == []
    doc["series"]["grid-big"]["y"] = [83.0, 80.0, 226.0]
    problems = checks.check_fig08(json.dumps(doc).encode())
    assert any("decreases" in p for p in problems)
    assert any("outside" in p for p in problems)


def _golden_restore() -> tuple[str, str]:
    text = (GOLDEN / "restore-epochs-s0.txt").read_text(encoding="utf-8")
    digests = json.loads((GOLDEN / "restore-epochs.sha256.json").read_text(encoding="utf-8"))
    return text, digests["0"]


def test_restore_golden_text_matches_its_digest():
    text, digest = _golden_restore()
    assert checks.digest(text) == digest
    assert checks.check_restore(text, 100, digest) == []


@pytest.mark.parametrize("mode", ["warm", "cold"])
def test_restore_checker_ignores_the_mode_word(mode):
    text, digest = _golden_restore()
    stdout = text.replace("(mode)", f"({mode})") + "wrote trace.jsonl\n"
    assert checks.check_restore(stdout, 100, digest) == []


def test_restore_checker_flags_a_one_byte_change():
    text, digest = _golden_restore()
    changed = text.replace("repair +84 ->", "repair +85 ->", 1)
    assert changed != text
    assert checks.check_restore(changed, 100, digest) == [
        "restore output differs from its golden"
    ]
    unrepaired = text.replace("-> 100% k-covered", "-> 99% k-covered", 1)
    assert any("full coverage" in p for p in checks.check_restore(unrepaired, 100))
    assert checks.check_restore(text, 101) != []


def test_epoch_gaps_and_percentiles():
    lines = [(0.0, "deployed           : 3 nodes")]
    lines += [(0.5 + i, f"epoch {i} (  random): ...") for i in range(4)]
    lines += [(9.0, "survived           : 4 epochs (warm)")]
    gaps = checks.epoch_gaps(lines)
    assert gaps == [0.5, 1.0, 1.0, 1.0]
    assert checks.percentile(gaps, 50) == 1.0
    assert checks.percentile(list(range(101)), 98) == 98.0
    assert checks.percentile([1.0, 2.0], 50) == 1.5
    summary = checks.summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary == {"n": 5, "median": 3.0, "q1": 1.5, "q3": 52.0}


def test_benchmark_json_units_match_the_printed_units():
    spec = e2e_run.load_spec()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert e2e_run.unit_of(metric["name"]) == metric["unit"], metric["name"]
    assert [w["name"] for w in spec["workloads"]] == list(e2e_run.WORKLOADS)
