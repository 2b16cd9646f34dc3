"""Tests for the runtime invariant sanitizer (``repro.checks``).

Covers the switch (``REPRO_CHECKS`` / :data:`CHECKS`), the null-object fast
path, every guarded invariant raising :class:`InvariantError` at the
violating step, CSR write-protection at the FieldModel cache boundary, and
the contract that enabling the sanitizer never changes results
(bit-identical placements for all three greedy variants).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.checks import (
    CHECKS,
    ChecksRuntime,
    GreedyStepChecker,
    NULL_CHECKER,
    freeze_csr,
    greedy_checker,
    validate_adjacency_symmetry,
    validate_coverage_recount,
    validate_engine_consistency,
)
from repro.core import centralized_greedy, grid_decor, voronoi_decor
from repro.core.benefit import BenefitEngine
from repro.errors import InvariantError, ReproError
from repro.field import Adjacency, as_field_model

REPO_ROOT = Path(__file__).resolve().parent.parent

SQUARE = np.array(
    [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]], dtype=np.float64
)


def small_engine(k: int = 1) -> BenefitEngine:
    """Four well-separated points; each sensor covers exactly one point."""
    return BenefitEngine(SQUARE, 2.0, k)


class TestRuntimeSwitch:
    def test_disabled_by_default(self):
        assert ChecksRuntime().enabled is False

    def test_enable_disable_roundtrip(self):
        rt = ChecksRuntime()
        rt.enable()
        assert rt.enabled
        rt.disable()
        assert not rt.enabled

    def test_env_var_activates_singleton(self):
        code = "from repro.checks import CHECKS; print(int(CHECKS.enabled))"
        for value, expected in (("1", "1"), ("0", "0"), ("", "0")):
            env = {**os.environ, "REPRO_CHECKS": value}
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert out.stdout.strip() == expected, f"REPRO_CHECKS={value!r}"


class TestNullObjectPath:
    def test_disabled_runtime_returns_shared_null_checker(self):
        eng = small_engine()
        assert greedy_checker(eng, method="t", checks=ChecksRuntime()) is NULL_CHECKER

    def test_enabled_runtime_returns_real_checker(self):
        rt = ChecksRuntime()
        rt.enable()
        checker = greedy_checker(small_engine(), method="t", checks=rt)
        assert isinstance(checker, GreedyStepChecker)

    def test_null_checker_after_step_is_noop(self):
        assert NULL_CHECKER.after_step(0, 0, np.zeros(2)) is None

    def test_default_runtime_is_module_singleton(self, monkeypatch):
        eng = small_engine()
        monkeypatch.setattr(CHECKS, "enabled", False)
        assert greedy_checker(eng, method="t") is NULL_CHECKER
        monkeypatch.setattr(CHECKS, "enabled", True)
        assert isinstance(greedy_checker(eng, method="t"), GreedyStepChecker)


class TestInvariantError:
    def test_taxonomy_and_fields(self):
        err = InvariantError("benefit-consistency", "detail text", step=3)
        assert isinstance(err, ReproError)
        assert isinstance(err, RuntimeError)
        assert err.invariant == "benefit-consistency"
        assert err.step == 3
        assert "at step 3" in str(err)
        assert "detail text" in str(err)

    def test_step_optional(self):
        err = InvariantError("adjacency-symmetry", "boom")
        assert err.step is None
        assert "at step" not in str(err)


class TestValidators:
    def test_symmetry_passes_on_symmetric(self):
        adj = sparse.csr_matrix(np.array([[0, 1], [1, 0]], dtype=np.float64))
        validate_adjacency_symmetry(adj)  # does not raise

    def test_symmetry_raises_on_asymmetric(self):
        adj = sparse.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.float64))
        with pytest.raises(InvariantError) as exc:
            validate_adjacency_symmetry(adj, step=7, method="t")
        assert exc.value.invariant == "adjacency-symmetry"
        assert exc.value.step == 7

    def test_consistency_passes_on_live_engine(self):
        eng = small_engine()
        eng.place_at(0)
        validate_engine_consistency(eng)  # does not raise

    def test_negative_count_raises(self):
        eng = small_engine()
        eng._counts[2] = -1
        with pytest.raises(InvariantError) as exc:
            validate_engine_consistency(eng, step=0)
        assert exc.value.invariant == "counts-nonnegative"
        assert "point 2" in str(exc.value)

    def test_benefit_drift_raises(self):
        eng = small_engine()
        eng._benefit[1] += 7.0
        with pytest.raises(InvariantError) as exc:
            validate_engine_consistency(eng, step=4, method="demo")
        assert exc.value.invariant == "benefit-consistency"
        assert exc.value.step == 4

    def test_kcovered_count_drift_raises(self):
        eng = small_engine()
        eng.place_at(0)
        validate_engine_consistency(eng)  # consistent before corruption
        eng._n_kcovered += 1
        with pytest.raises(InvariantError) as exc:
            validate_engine_consistency(eng, step=2, method="demo")
        assert exc.value.invariant == "kcovered-count"
        assert exc.value.step == 2


class TestGreedyStepChecker:
    def test_clean_run_passes_every_step(self):
        eng = small_engine()
        checker = GreedyStepChecker(eng, method="t")
        for step in range(4):
            idx = eng.argmax()
            eng.place_at(idx)
            checker.after_step(step, idx, eng.field.points[idx])
        assert eng.is_fully_covered()

    def test_out_of_bounds_position_raises(self):
        eng = small_engine()
        checker = GreedyStepChecker(eng, method="t")
        eng.place_at(0)
        with pytest.raises(InvariantError) as exc:
            checker.after_step(0, 0, np.array([99.0, -99.0]))
        assert exc.value.invariant == "placement-in-bounds"
        assert exc.value.step == 0

    def test_deficiency_increase_raises(self):
        eng = small_engine()
        checker = GreedyStepChecker(eng, method="t")
        covered = eng.place_at(0)
        checker.after_step(0, 0, eng.field.points[0])
        # undoing coverage is legal engine API but raises the residual
        # deficiency -- exactly what the monotone invariant watches for
        eng.remove_covered(covered)
        with pytest.raises(InvariantError) as exc:
            checker.after_step(1, 0, eng.field.points[0])
        assert exc.value.invariant == "deficiency-monotone"
        assert exc.value.step == 1


class TestEndToEndCorruption:
    def test_corrupted_count_raises_at_violating_step(
        self, field, spec, monkeypatch
    ):
        """A coverage count silently corrupted during the 3rd placement is
        reported by the sanitizer at exactly that step, not later."""
        real_place_at = BenefitEngine.place_at
        calls = {"n": 0}

        def corrupting_place_at(self, point_index):
            covered = real_place_at(self, point_index)
            calls["n"] += 1
            if calls["n"] == 3:
                # inflate the count of a still-deficient point: its Eq. 1
                # weight changes but the incremental benefit vector does not
                bad = int(self.deficient_indices()[0])
                self._counts[bad] += 1
            return covered

        monkeypatch.setattr(BenefitEngine, "place_at", corrupting_place_at)
        monkeypatch.setattr(CHECKS, "enabled", True)
        with pytest.raises(InvariantError) as exc:
            centralized_greedy(field, spec, 2)
        assert exc.value.invariant == "benefit-consistency"
        assert exc.value.step == 2

    def test_checker_wired_into_all_three_variants(
        self, field, region, spec, monkeypatch
    ):
        calls: list[int] = []
        orig = GreedyStepChecker.after_step

        def spy(self, step, point_index, position):
            calls.append(step)
            return orig(self, step, point_index, position)

        monkeypatch.setattr(GreedyStepChecker, "after_step", spy)
        monkeypatch.setattr(CHECKS, "enabled", True)
        centralized_greedy(field, spec, 1)
        n_cent = len(calls)
        assert n_cent > 0
        grid_decor(field, spec, 1, region, 5.0)
        n_grid = len(calls)
        assert n_grid > n_cent
        voronoi_decor(field, spec, 1)
        assert len(calls) > n_grid


class TestCoverageEqualsRecount:
    def test_clean_result_passes(self, field, spec):
        result = centralized_greedy(field, spec, 2)
        validate_coverage_recount(result.coverage, result.deployment)

    def test_corrupted_engine_row_raises(self, field, spec, monkeypatch):
        """A recorded row that no longer matches its sensor's disc leaves
        counts and benefit consistent, so only the result's coverage would
        be wrong; the recount in ``finalize`` catches it."""
        real_place_at = BenefitEngine.place_at
        calls = {"n": 0}

        def corrupting_place_at(self, point_index):
            covered = real_place_at(self, point_index)
            calls["n"] += 1
            if calls["n"] == 3:
                self._rows[-1] = self._rows[-1][1:]
            return covered

        monkeypatch.setattr(BenefitEngine, "place_at", corrupting_place_at)
        monkeypatch.setattr(CHECKS, "enabled", True)
        with pytest.raises(InvariantError) as exc:
            centralized_greedy(field, spec, 2)
        assert exc.value.invariant == "coverage-equals-recount"
        assert "method='centralized'" in str(exc.value)

    def test_deployment_with_extra_node_raises(self, field, spec):
        result = centralized_greedy(field, spec, 1)
        grown = result.deployment.copy()
        grown.add(field[0])
        with pytest.raises(InvariantError) as exc:
            validate_coverage_recount(result.coverage, grown)
        assert exc.value.invariant == "coverage-equals-recount"


class TestCsrFreezing:
    def test_freeze_csr_write_protects_payload(self):
        adj = Adjacency.from_keys(np.array([1, 2]), 2)
        freeze_csr(adj)
        for attr in ("indices", "indptr"):
            assert not getattr(adj, attr).flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            adj.indices[0] = 1

    def test_field_model_adjacency_frozen_when_enabled(self, monkeypatch):
        monkeypatch.setattr(CHECKS, "enabled", True)
        fm = as_field_model(SQUARE)
        adj = fm.adjacency(12.0)
        assert not adj.indices.flags.writeable
        assert not adj.indptr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            adj.indices[0] = 1  # checks: ignore[ALIAS001] -- raise is the point

    def test_field_model_adjacency_writable_when_disabled(self, monkeypatch):
        monkeypatch.setattr(CHECKS, "enabled", False)
        fm = as_field_model(SQUARE)
        assert fm.adjacency(12.0).indices.flags.writeable


class TestBitIdentity:
    def test_sanitizer_never_changes_results(
        self, field, region, spec, monkeypatch
    ):
        """REPRO_CHECKS on vs off must produce bit-identical deployments for
        every greedy variant (the sanitizer only reads)."""

        def run_all():
            return {
                "centralized": centralized_greedy(field, spec, 2),
                "grid": grid_decor(field, spec, 2, region, 5.0),
                "voronoi": voronoi_decor(field, spec, 2),
            }

        monkeypatch.setattr(CHECKS, "enabled", False)
        plain = run_all()
        monkeypatch.setattr(CHECKS, "enabled", True)
        checked = run_all()
        for method, a in plain.items():
            b = checked[method]
            assert np.array_equal(a.deployment.positions, b.deployment.positions), method
            assert np.array_equal(a.added_ids, b.added_ids), method
            assert np.array_equal(a.trace.positions, b.trace.positions), method
            # equal_nan: the voronoi seed placement records a NaN benefit
            assert np.array_equal(
                a.trace.benefits, b.trace.benefits, equal_nan=True
            ), method
