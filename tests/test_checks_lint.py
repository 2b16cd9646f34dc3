"""Fixture-snippet tests for the project-specific AST linter.

Each rule gets at least one violating snippet and one clean snippet; the
suppression machinery (``# checks: ignore[CODE]``) is tested for matched,
unused and unknown codes.  Snippets are written into a ``src/repro/...``
layout under ``tmp_path`` so module-scoped rules (DET002, OBS001)
see them as library code.

Multi-module fixtures (a clock read three frames below a worker, an
unguarded touchpoint inside a helper, a switch flipped by a helper a
worker calls) pin the contract that every violation is reported at its
own source line, however far up the call chain its callers sit.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.checks.lint import ALL_RULES, SUPPRESSION_RULE, lint_paths
from repro.checks.lint.__main__ import main as lint_main
from repro.checks.lint.framework import (
    iter_python_files,
    module_name_for,
    parse_suppressions,
)

REPO = Path(__file__).resolve().parent.parent


def _write(tmp_path, code, *, library=True, name="fixture_mod.py"):
    """Materialise a snippet, by default as library module repro.fx.*."""
    if library:
        path = tmp_path / "src" / "repro" / "fx" / name
    else:
        path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


def _codes(findings):
    return [f.rule for f in findings]


def lint_snippet(tmp_path, code, **kwargs):
    _write(tmp_path, code, **kwargs)
    return lint_paths([tmp_path])


def lint_tree(tmp_path, files):
    """Materialise {relpath: code} under src/repro/ and lint the tree."""
    for rel, code in files.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code), encoding="utf-8")
    return lint_paths([tmp_path])


def _located(tmp_path, findings):
    """(path under src/repro, line, code) of each finding."""
    root = tmp_path / "src" / "repro"
    return [
        (Path(f.path).relative_to(root).as_posix(), f.line, f.rule)
        for f in findings
    ]


def _line_of(code, needle):
    """1-based line of the only line of dedented ``code`` holding ``needle``."""
    lines = textwrap.dedent(code).splitlines()
    hits = [i + 1 for i, line in enumerate(lines) if needle in line]
    assert len(hits) == 1, (needle, hits)
    return hits[0]


# ----------------------------------------------------------------------
# DET001 - legacy global RNG
# ----------------------------------------------------------------------
class TestDet001:
    def test_numpy_legacy_call_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert _codes(findings) == ["DET001"]
        assert "numpy.random.rand" in findings[0].message

    def test_numpy_seed_flagged_even_aliased(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from numpy import random as nprandom
            nprandom.seed(7)
            """,
        )
        assert _codes(findings) == ["DET001"]

    def test_stdlib_random_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random
            v = random.random()
            """,
        )
        assert _codes(findings) == ["DET001"]

    def test_generator_usage_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                return rng.random(3)
            """,
        )
        assert findings == []

    def test_applies_outside_library_too(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            np.random.shuffle([1, 2, 3])
            """,
            library=False,
            name="test_something.py",
        )
        assert _codes(findings) == ["DET001"]

    PARALLEL_UNSEEDED = {
        "numpy.random.default_rng": """
            import numpy as np

            def jitter():
                return np.random.default_rng().random()
            """,
        "random.Random": """
            from random import Random

            def jitter():
                return Random().random()
            """,
        "numpy.random.SeedSequence": """
            import numpy as np

            def spawn():
                return np.random.SeedSequence().spawn(2)
            """,
    }

    @pytest.mark.parametrize("qual", sorted(PARALLEL_UNSEEDED))
    def test_unseeded_constructor_flagged(self, tmp_path, qual):
        code = self.PARALLEL_UNSEEDED[qual]
        findings = lint_tree(tmp_path, {"parallel/__init__.py": code})
        assert _located(tmp_path, findings) == [
            ("parallel/__init__.py", _line_of(code, "()."), "DET001")
        ]
        assert f"un-seeded `{qual}()`" in findings[0].message

    def test_unseeded_constructor_flagged_in_any_module(self, tmp_path):
        # the contract holds in every module, not only in repro.parallel
        code = self.PARALLEL_UNSEEDED["numpy.random.default_rng"]
        findings = lint_tree(tmp_path, {"elsewhere.py": code})
        assert _located(tmp_path, findings) == [
            ("elsewhere.py", _line_of(code, "()."), "DET001")
        ]

    def test_seeded_rng_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "parallel/__init__.py": """
                from random import Random

                import numpy as np

                def sample(seed):
                    return np.random.default_rng(seed).random()

                def sample_kw(seed):
                    return np.random.default_rng(seed=seed).random()

                def spawn(seed):
                    return np.random.SeedSequence(seed).spawn(2), Random(seed)
                """,
            },
        )
        assert findings == []

    def test_seeded_worker_tree_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "parallel/__init__.py": """
                from concurrent.futures import ProcessPoolExecutor

                import numpy as np

                def _worker(cell):
                    rng = np.random.default_rng(cell)
                    return rng.random()

                def sweep(cells):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(_worker, c) for c in cells]
                """,
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# DET002 - wall clock / entropy in library code
# ----------------------------------------------------------------------
class TestDet002:
    VIOLATION = """
    import time

    def stamp():
        return time.time()
    """

    def test_wall_clock_in_library_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, self.VIOLATION)
        assert _codes(findings) == ["DET002"]
        assert "time.time" in findings[0].message

    def test_from_import_resolved(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from time import perf_counter as pc

            def stamp():
                return pc()
            """,
        )
        assert _codes(findings) == ["DET002"]

    def test_uuid_and_urandom_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os
            import uuid

            def ident():
                return uuid.uuid4(), os.urandom(8)
            """,
        )
        assert _codes(findings) == ["DET002", "DET002"]

    def test_obs_package_exempt(self, tmp_path):
        path = tmp_path / "src" / "repro" / "obs" / "clocky.py"
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(self.VIOLATION), encoding="utf-8")
        assert lint_paths([tmp_path]) == []

    def test_non_library_code_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.VIOLATION, library=False, name="bench_helper.py"
        )
        assert findings == []

    UTIL = """
    import time

    def now():
        return time.time()
    """

    def test_clock_read_flagged_at_source_not_at_callers(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "util.py": self.UTIL,
                "core/__init__.py": """
                from repro.util import now

                def select(xs):
                    return now() + len(xs)

                def wrapper(xs):
                    return select(xs)
                """,
            },
        )
        assert _located(tmp_path, findings) == [
            ("util.py", _line_of(self.UTIL, "time.time()"), "DET002")
        ]

    def test_clean_protected_package(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "core/__init__.py": """
                def select(xs):
                    return sorted(xs)[0]
                """,
            },
        )
        assert findings == []

    LEVELS = """
    import time

    def level3():
        return time.time()

    def level2():
        return level3() + 1.0

    def level1():
        return level2() * 2.0
    """

    def test_clock_three_frames_below_submit_flagged_at_source(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "util.py": self.LEVELS,
                "parallel/__init__.py": """
                from concurrent.futures import ProcessPoolExecutor

                from repro.util import level1

                def _worker(cell):
                    return level1() + cell

                def sweep(cells):
                    with ProcessPoolExecutor() as pool:
                        futs = [pool.submit(_worker, c) for c in cells]
                    return [f.result() for f in futs]
                """,
            },
        )
        assert _located(tmp_path, findings) == [
            ("util.py", _line_of(self.LEVELS, "time.time()"), "DET002")
        ]
        assert "time.time" in findings[0].message


# ----------------------------------------------------------------------
# DET003 - set iteration in library code
# ----------------------------------------------------------------------
class TestDet003:
    def test_set_iteration_flagged(self, tmp_path):
        code = """
        def tally(xs):
            seen = set(xs)
            total = 0
            for x in seen:
                total += x
            return total
        """
        findings = lint_tree(tmp_path, {"pure.py": code})
        assert _located(tmp_path, findings) == [
            ("pure.py", _line_of(code, "for x in seen"), "DET003")
        ]
        assert "seen" in findings[0].message

    def test_comprehension_over_set_literal_flagged(self, tmp_path):
        code = """
        def names():
            return [n for n in {"b", "a"}]
        """
        findings = lint_tree(tmp_path, {"pure.py": code})
        assert _located(tmp_path, findings) == [
            ("pure.py", _line_of(code, "for n in"), "DET003")
        ]

    def test_sorted_set_iteration_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "pure.py": """
                def tally(xs):
                    seen = set(xs)
                    return [x for x in sorted(seen)]
                """,
            },
        )
        assert findings == []

    def test_effectful_function_flagged(self, tmp_path):
        # set order leaks into output as surely as into results
        code = """
        def dump(xs):
            seen = set(xs)
            for x in seen:
                print(x)
        """
        findings = lint_tree(tmp_path, {"io_mod.py": code})
        assert _located(tmp_path, findings) == [
            ("io_mod.py", _line_of(code, "for x in seen"), "DET003")
        ]

    def test_dict_iteration_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "pure.py": """
                def tally(d):
                    total = 0
                    for k in d:
                        total += d[k]
                    return total
                """,
            },
        )
        assert findings == []

    def test_suppression_silences_finding(self, tmp_path):
        marker = "  # checks: ignore[DET003]"
        code = f"""
        def tally(xs):
            seen = set(xs)
            return [x for x in seen]{marker}
        """
        # a matched suppression leaves nothing, not even SUP001
        assert lint_tree(tmp_path, {"pure.py": code}) == []
        bare = code.replace(marker, "")
        findings = lint_tree(tmp_path, {"pure.py": bare})
        assert _located(tmp_path, findings) == [
            ("pure.py", _line_of(bare, "for x in seen"), "DET003")
        ]


# ----------------------------------------------------------------------
# ALIAS001 - in-place ops on cached getters
# ----------------------------------------------------------------------
class TestAlias001:
    def test_augassign_on_tracked_name(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(engine):
                counts = engine.counts
                counts += 1
            """,
        )
        assert _codes(findings) == ["ALIAS001"]

    def test_subscript_write_through_attribute(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(fm):
                adj = fm.adjacency(2.0)
                adj.data[0] = 5.0
            """,
        )
        assert _codes(findings) == ["ALIAS001"]

    def test_mutator_method_and_out_kwarg(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f(engine):
                b = engine.benefit
                b.sort()
                np.add(b, 1.0, out=b)
            """,
        )
        assert _codes(findings) == ["ALIAS001", "ALIAS001"]

    def test_direct_property_augassign(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(engine):
                engine.counts += 1
            """,
        )
        assert _codes(findings) == ["ALIAS001"]

    def test_unfreezing_writeable_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(fm):
                pts = fm.points
                pts.flags.writeable = True
            """,
        )
        assert _codes(findings) == ["ALIAS001"]

    def test_loop_over_cached_groups(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(fm, region, w):
                for grp in fm.points_by_cell(region, w):
                    grp += 1
            """,
        )
        assert _codes(findings) == ["ALIAS001"]

    def test_copy_releases_tracking(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(engine):
                counts = engine.counts.copy()
                counts += 1
                view = engine.benefit
                mine = view.copy()
                mine.sort()
            """,
        )
        assert findings == []

    def test_reads_are_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(fm, engine, idx):
                pts = fm.points
                pos = pts[idx]
                total = engine.counts.sum()
                return pos, total
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# OBS001 - guarded obs touchpoints
# ----------------------------------------------------------------------
class TestObs001:
    def test_unguarded_counter_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f():
                OBS.counter("decor_placements_total").inc()
            """,
        )
        assert _codes(findings) == ["OBS001"]

    def test_guarded_counter_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(benefit):
                if OBS.enabled:
                    OBS.counter("x").inc()
                    OBS.histogram("greedy_round_benefit").observe(benefit)
            """,
        )
        assert findings == []

    def test_early_exit_guard_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f():
                if not OBS.enabled:
                    return
                OBS.counter("decor_placements_total").inc()
            """,
        )
        assert findings == []

    def test_span_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f():
                with OBS.span("placement", method="grid"):
                    pass
            """,
        )
        assert findings == []

    def test_guard_does_not_leak_into_nested_def(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f():
                if OBS.enabled:
                    def g():
                        OBS.counter("late_total").inc()
                    return g
            """,
        )
        assert _codes(findings) == ["OBS001"]

    def test_non_library_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS
            OBS.counter("x").inc()
            """,
            library=False,
            name="test_obs_usage.py",
        )
        assert findings == []

    LIB = """
    from repro.obs import OBS

    def emit_hit():
        OBS.counter("hit_total").inc()

    def bad_caller():
        emit_hit()

    def good_caller():
        if OBS.enabled:
            emit_hit()
    """

    def test_unguarded_helper_flagged_at_touchpoint(self, tmp_path):
        findings = lint_tree(tmp_path, {"lib.py": self.LIB})
        assert _located(tmp_path, findings) == [
            ("lib.py", _line_of(self.LIB, 'OBS.counter("hit_total")'), "OBS001")
        ]

    def test_aliased_receiver_resolved(self, tmp_path):
        code = """
        from repro.obs import OBS as TELEMETRY

        def f():
            TELEMETRY.gauge("hit").set(1.0)
            if TELEMETRY.enabled:
                TELEMETRY.counter("x").inc()
        """
        findings = lint_tree(tmp_path, {"lib.py": code})
        assert _located(tmp_path, findings) == [
            ("lib.py", _line_of(code, 'TELEMETRY.gauge("hit")'), "OBS001")
        ]


# ----------------------------------------------------------------------
# what counts as an OBS001 guard
# ----------------------------------------------------------------------
class TestGuardForms:
    FORMS = {
        "or-with-guard": (
            "if verbose or OBS.enabled:\n    OBS.counter('x').inc()",
            ["OBS001"],
        ),
        "enabled-is-false": (
            "if OBS.enabled is False:\n    OBS.counter('x').inc()",
            ["OBS001"],
        ),
        "other-runtime-guard": (
            "if CHECKS.enabled:\n    OBS.flight.emit('e', 0, t=0.0)",
            ["OBS001"],
        ),
        "and-with-guard": (
            "if OBS.enabled and verbose:\n    OBS.counter('x').inc()",
            [],
        ),
        "or-early-exit": (
            "if not OBS.enabled or verbose:\n    return\n"
            "OBS.counter('x').inc()",
            [],
        ),
    }

    @pytest.mark.parametrize("form", list(FORMS))
    def test_only_real_guards_guard(self, tmp_path, form):
        body, expected = self.FORMS[form]
        code = (
            "from repro.checks import CHECKS\nfrom repro.obs import OBS\n\n\n"
            "def f(verbose):\n"
            + textwrap.indent(body, "    ")
            + "\n"
        )
        findings = lint_tree(tmp_path, {"lib.py": code})
        assert _codes(findings) == expected


# ----------------------------------------------------------------------
# OBS001 over the telemetry touchpoints (OBS.sample, record_*_health),
# which a rule of their own, OBS004, guarded until it merged into OBS001
# ----------------------------------------------------------------------
class TestObs004:
    def test_unguarded_sample_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f():
                OBS.sample("cell", seed=0)
            """,
        )
        assert _codes(findings) == ["OBS001"]

    def test_unguarded_health_helper_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import record_coverage_health

            def f(coverage, k):
                record_coverage_health(coverage, k)
            """,
        )
        assert _codes(findings) == ["OBS001"]

    def test_health_helper_resolved_through_module_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import health
            from repro.obs.health import record_energy_health as energy

            def f(coverage, k, profile, stats):
                health.record_coverage_health(coverage, k)
                energy(profile, stats)
            """,
        )
        assert _codes(findings) == ["OBS001", "OBS001"]

    def test_guarded_telemetry_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import (
                OBS,
                record_coverage_health,
                record_energy_health,
                record_protocol_health,
            )

            def f(coverage, k, energy, stats, nodes):
                if OBS.enabled:
                    record_coverage_health(coverage, k)
                    record_energy_health(energy, stats)
                    record_protocol_health(heartbeats=nodes)
                    OBS.sample("cell", k=k)
            """,
        )
        assert findings == []

    def test_early_exit_guard_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f():
                if not OBS.enabled:
                    return
                OBS.sample("epoch")
            """,
        )
        assert findings == []

    def test_unrelated_bare_call_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def record_coverage(x):
                return x

            def f(x):
                record_coverage(x)
            """,
        )
        assert findings == []

    def test_non_library_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS
            OBS.sample("t")
            """,
            library=False,
            name="test_sample_usage.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# OBS001 over the flight pillar's emits (OBS.flight.*), which a rule of
# their own, OBS003, guarded until it merged into OBS001
# ----------------------------------------------------------------------
class TestObs003:
    def test_unguarded_emit_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(sim):
                OBS.flight.emit("drop", 3, t=sim.now, msg="HB")
            """,
        )
        assert _codes(findings) == ["OBS001"]
        assert "OBS.flight.emit" in findings[0].message

    def test_guarded_touchpoints_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(sim, receiver):
                send_id = None
                if OBS.enabled:
                    OBS.counter("radio_sent_total").inc()
                    send_id = OBS.flight.emit_send(0, t=sim.now, msg="HELLO")
                if OBS.enabled:
                    eid = OBS.flight.emit_deliver(receiver, send_id, t=sim.now,
                                                  msg="HELLO")
                    OBS.flight.set_cause(eid)
            """,
        )
        assert findings == []

    def test_early_exit_guard_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(sim):
                if not OBS.enabled:
                    return
                OBS.flight.emit("placement", 1, t=sim.now, point=7)
            """,
        )
        assert findings == []

    def test_run_and_session_exempt(self, tmp_path):
        """``OBS.run`` opens a run block like ``OBS.span`` opens a span, and
        the recording session's header and export are no touchpoints."""
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(path, argv):
                OBS.flight.set_header("cli", {"argv": argv})
                with OBS.span("protocol"), OBS.run("grid", k=2) as frun:
                    frun.set(placed=0)
                OBS.flight.write_jsonl(path)
            """,
        )
        assert findings == []

    def test_unguarded_set_cause_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(eid):
                OBS.flight.set_cause(eid)
            """,
        )
        assert _codes(findings) == ["OBS001"]

    def test_aliased_flight_receiver_resolved(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.runtime import OBS as TELEMETRY

            def f(sim):
                if TELEMETRY.enabled:
                    TELEMETRY.flight.emit("start", 0, t=sim.now)
                TELEMETRY.flight.emit("fail", 0, t=sim.now)
            """,
        )
        assert _codes(findings) == ["OBS001"]
        assert "OBS.flight.emit" in findings[0].message

    def test_guard_does_not_leak_into_nested_def(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS

            def f(sim):
                if OBS.enabled:
                    def late():
                        OBS.flight.emit("fail", 2, t=sim.now)
                    return late
            """,
        )
        assert _codes(findings) == ["OBS001"]

    def test_non_library_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS
            OBS.flight.emit("start", 0, t=0.0)
            """,
            library=False,
            name="test_flight_usage.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# OBS006 - runtime switches flipped only in repro.obs and repro.cli
# ----------------------------------------------------------------------
class TestObs006:
    def test_obs_mutation_below_worker_flagged(self, tmp_path):
        helpers = """
        from repro.obs import OBS

        def switch_on():
            OBS.enable()
        """
        findings = lint_tree(
            tmp_path,
            {
                "helpers.py": helpers,
                "parallel/__init__.py": """
                from concurrent.futures import ProcessPoolExecutor

                from repro.helpers import switch_on

                def _worker(cell):
                    switch_on()
                    return cell

                def sweep(cells):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(_worker, c) for c in cells]
                """,
            },
        )
        assert _located(tmp_path, findings) == [
            ("helpers.py", _line_of(helpers, "OBS.enable()"), "OBS006")
        ]
        assert "bridge" in findings[0].message

    def test_obs_mutator_calls_flagged(self, tmp_path):
        code = """
        from repro.obs import OBS
        from repro.obs.runtime import OBS as RUNTIME

        def worker():
            OBS.disable()
            RUNTIME.reset()
        """
        findings = lint_tree(tmp_path, {"parallel/__init__.py": code})
        assert _located(tmp_path, findings) == [
            ("parallel/__init__.py", _line_of(code, "OBS.disable()"), "OBS006"),
            ("parallel/__init__.py", _line_of(code, "RUNTIME.reset()"), "OBS006"),
        ]
        assert "repro.obs.runtime.OBS.reset()" in findings[1].message

    def test_obs_attribute_store_flagged(self, tmp_path):
        code = """
        from repro.obs import OBS

        def worker(saved):
            OBS.enabled = True
            OBS.enabled, OBS.flight = saved
        """
        findings = lint_tree(tmp_path, {"parallel/__init__.py": code})
        assert _located(tmp_path, findings) == [
            ("parallel/__init__.py", _line_of(code, "= True"), "OBS006"),
            ("parallel/__init__.py", _line_of(code, "= saved"), "OBS006"),
        ]

    def test_checks_enable_in_worker_initializer_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "parallel/pool.py": """
                from concurrent.futures import ProcessPoolExecutor

                from repro.checks import CHECKS

                def _worker_init(checks_on):
                    if checks_on:
                        CHECKS.enable()

                def make_pool(checks_on):
                    return ProcessPoolExecutor(
                        initializer=_worker_init, initargs=(checks_on,)
                    )
                """,
            },
        )
        assert findings == []

    @pytest.mark.parametrize("module", ["obs/bridge.py", "cli.py"])
    def test_switch_owners_exempt(self, tmp_path, module):
        findings = lint_tree(
            tmp_path,
            {
                module: """
                from repro.obs import OBS

                def session(saved):
                    OBS.enable(fresh=True, flight=True)
                    OBS.reset()
                    OBS.enabled = saved
                """,
            },
        )
        assert findings == []

    def test_non_library_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import OBS
            OBS.enable()
            OBS.enabled = False
            """,
            library=False,
            name="test_switches.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# the real worker entry points
# ----------------------------------------------------------------------
class TestWorkerEntryPoints:
    """Worker purity rests on the rules' scope, not on reachability.

    The functions the pool runs in worker processes are clean as shipped,
    and a clock read, an un-seeded RNG or a switch flip planted in any of
    them is flagged at the planted line.
    """

    ENTRY_POINTS = {
        "parallel/pool.py": ("_worker_init", "_worker_run_chunk"),
        "parallel/shm.py": ("attach_array",),
    }
    PLANTED = {
        "DET001": ("import numpy", "numpy.random.default_rng().random()"),
        "DET002": ("import time", "time.time()"),
        "OBS006": ("from repro.obs import OBS", "OBS.enable()"),
    }

    @staticmethod
    def _plant(source, func, lines):
        """``source`` with ``lines`` opening ``func``'s body; 1-based line."""
        tree = ast.parse(source)
        node = next(
            n for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name == func
        )
        body = node.body
        first = body[1] if ast.get_docstring(node) is not None else body[0]
        indent = " " * first.col_offset
        src_lines = source.splitlines()
        at = first.lineno - 1
        src_lines[at:at] = [indent + line for line in lines]
        return "\n".join(src_lines) + "\n", first.lineno + len(lines) - 1

    def test_real_parallel_workers_are_pure(self, tmp_path):
        real = {
            rel: (REPO / "src" / "repro" / rel).read_text(encoding="utf-8")
            for rel in self.ENTRY_POINTS
        }
        findings = lint_paths([REPO / "src" / "repro" / rel for rel in real])
        assert findings == [], "\n".join(f.render() for f in findings)
        for rel, funcs in self.ENTRY_POINTS.items():
            for func in funcs:
                for code, lines in self.PLANTED.items():
                    planted, line = self._plant(real[rel], func, lines)
                    case = tmp_path / f"{func}_{code}"
                    path = case / "src" / "repro" / rel
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(planted, encoding="utf-8")
                    located = [
                        (Path(f.path).relative_to(case / "src" / "repro")
                         .as_posix(), f.line, f.rule)
                        for f in lint_paths([case])
                    ]
                    assert located == [(rel, line, code)], (func, code)


# ----------------------------------------------------------------------
# API001 - exact float equality on coordinates/benefits
# ----------------------------------------------------------------------
class TestApi001:
    def test_benefit_equality_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(benefit):
                return benefit == 0.0
            """,
        )
        assert _codes(findings) == ["API001"]

    def test_position_inequality_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(pos, target):
                return pos != target
            """,
        )
        assert _codes(findings) == ["API001"]

    def test_inequalities_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(benefit, dist, rs):
                return benefit <= 0.0 or dist < rs
            """,
        )
        assert findings == []

    def test_mode_strings_and_tolerant_compares_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f(benefit_mode, benefit, expected):
                ok = benefit_mode == "binary"
                close = benefit == pytest_approx(expected)
                return ok, close, np.isclose(benefit, expected)

            def pytest_approx(x):
                return x
            """,
        )
        # pytest_approx is not a sanctioned comparator; only the literal
        # approx/isclose/allclose names are -- so the middle compare flags
        assert _codes(findings) == ["API001"]

    def test_approx_comparator_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import pytest

            def f(dist, expected):
                assert dist == pytest.approx(expected)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# suppressions (SUP001)
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_matched_suppression_silences(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)  # checks: ignore[DET001]
            """,
        )
        assert findings == []

    def test_unused_suppression_is_error(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            x = 1  # checks: ignore[DET001]
            """,
        )
        assert _codes(findings) == [SUPPRESSION_RULE]

    def test_unknown_code_is_error(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            x = 1  # checks: ignore[NOPE99]
            """,
        )
        assert _codes(findings) == [SUPPRESSION_RULE]
        assert "NOPE99" in findings[0].message

    def test_suppression_only_covers_named_rule(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)  # checks: ignore[API001]
            """,
        )
        # the DET001 finding survives AND the API001 suppression is unused
        assert sorted(_codes(findings)) == ["DET001", SUPPRESSION_RULE]

    def test_marker_inside_string_is_inert(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            '''
            DOC = "np.random.rand(3)  # checks: ignore[DET001]"
            ''',
        )
        assert findings == []


# ----------------------------------------------------------------------
# framework plumbing + CLI
# ----------------------------------------------------------------------
class TestFramework:
    def test_every_registered_rule_has_code_and_summary(self):
        codes = [rule.code for rule in ALL_RULES]
        assert len(codes) == len(set(codes))
        assert len(codes) >= 6
        assert all(rule.summary for rule in ALL_RULES)

    def test_module_name_resolution(self):
        from pathlib import Path

        assert module_name_for(Path("src/repro/obs/trace.py")) == "repro.obs.trace"
        assert module_name_for(Path("tests/test_x.py")) is None

    def test_iter_python_files_skips_hidden_and_pycache(self, tmp_path):
        keep = tmp_path / "pkg" / "mod.py"
        keep.parent.mkdir()
        keep.write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        hidden = tmp_path / ".venv"
        hidden.mkdir()
        (hidden / "junk.py").write_text("x = 1\n")
        assert iter_python_files([tmp_path]) == [keep]

    def test_syntax_error_reported_not_crashing(self, tmp_path):
        _write(tmp_path, "def broken(:\n")
        findings = lint_paths([tmp_path])
        assert _codes(findings) == ["PARSE"]

    def test_findings_sorted_by_location(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            import time

            def f():
                np.random.rand(2)
                return time.time()
            """,
        )
        assert _codes(findings) == ["DET001", "DET002"]
        assert findings[0].line < findings[1].line

    def test_cli_exit_codes(self, tmp_path, capsys):
        _write(tmp_path, "import numpy as np\nnp.random.rand(1)\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        assert lint_main(["--list-rules"]) == 0

    def test_repo_src_is_clean(self):
        """The shipped tree must satisfy its own linter (no baselines)."""
        findings = lint_paths([REPO / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_repo_tree_is_clean(self, monkeypatch, capsys):
        """The CI gate: the lint CLI over every tree it covers exits 0."""
        monkeypatch.chdir(REPO)
        code = lint_main(["src", "tests", "benchmarks", "tools"])
        assert code == 0, capsys.readouterr().out

    def test_repo_src_carries_no_suppressions(self):
        """No `# checks: ignore` in src/repro: a clean lint means no finding."""
        suppressed = {
            str(path.relative_to(REPO)): found
            for path in iter_python_files([REPO / "src" / "repro"])
            if (found := parse_suppressions(path.read_text(encoding="utf-8")))
        }
        assert suppressed == {}


# ----------------------------------------------------------------------
# decor check aggregate
# ----------------------------------------------------------------------
class TestAggregate:
    def test_gate_rendering_and_skip(self):
        from repro.checks.aggregate import (
            GateResult,
            overall_ok,
            render_json,
            render_sarif,
            render_text,
        )
        from repro.checks.lint.framework import Finding

        results = [
            GateResult(
                name="lint",
                ok=False,
                skipped=False,
                detail="1 finding(s)",
                findings=[
                    Finding(
                        path="src/repro/x.py",
                        line=3,
                        col=1,
                        rule="DET001",
                        message="legacy RNG",
                    )
                ],
            ),
            GateResult(name="mypy", ok=True, skipped=True, detail="skipped"),
        ]
        assert not overall_ok(results)
        text = render_text(results)
        assert "FAIL" in text and "DET001" in text
        payload = json.loads(render_json(results))
        assert payload["ok"] is False
        assert payload["gates"][0]["findings"][0]["rule"] == "DET001"
        sarif = json.loads(render_sarif(results))
        assert sarif["version"] == "2.1.0"
        result = sarif["runs"][0]["results"][0]
        assert result["ruleId"] == "DET001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        ids = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert {"DET003", "OBS006", SUPPRESSION_RULE} <= ids
        assert not any(i.startswith("FLOW") for i in ids)

    def test_cli_check_command_wired(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.chdir(REPO)
        code = cli_main(
            ["check", "--skip", "mypy", "--skip", "typing", "--output", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        names = [g["name"] for g in payload["gates"]]
        assert names == ["lint", "typing", "mypy"]
        with pytest.raises(SystemExit) as exc:
            cli_main(["check", "--skip", "bench"])
        assert exc.value.code == 2
