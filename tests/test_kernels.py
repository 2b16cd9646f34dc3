"""Bit-identity of pluggable benefit kernels against the numpy reference.

Alternate ``REPRO_KERNEL`` backends are optimisations, never
approximations: for every available backend, twin engines driven
through randomized op streams (mirroring ``tests/test_selection_lazy.py``)
must produce identical selections, identical heap statistics, identical
warm-start footprints and identical benefit vectors — under both
selection strategies.  Selection of the backend itself follows the
``REPRO_FIELD_BACKEND`` precedence rules, and a registered backend
whose import fails must degrade to numpy instead of erroring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.benefit import BenefitEngine
from repro.core.kernels import (
    KERNEL_ENV_VAR,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_kernel_name,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import run_series
from repro.experiments.setup import SERIES, ExperimentSetup


def _engine(kernel: str, *, selection: str = "scan", k: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    pts = rng.random((150, 2)) * 25.0
    return BenefitEngine(
        pts, sensing_radius=3.0, k=k,
        selection=selection, kernel=kernel,
    )


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel_name() == "numpy"
        assert get_kernel().name == "numpy"

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numba")
        assert resolve_kernel_name("numpy") == "numpy"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numba")
        assert resolve_kernel_name() == "numba"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_kernel_name("cuda")
        monkeypatch.setenv(KERNEL_ENV_VAR, "nonsense")
        with pytest.raises(ConfigurationError):
            get_kernel()

    def test_numpy_always_available(self):
        assert "numpy" in available_kernels()

    def test_engine_reports_kernel(self):
        eng = _engine("numpy")
        assert eng.kernel_name == "numpy"

    def test_unimportable_backend_falls_back_to_numpy(self):
        def broken():
            raise ImportError("compiler not installed on this host")

        register_kernel("broken-backend", broken)
        try:
            assert "broken-backend" not in available_kernels()
            kernel = get_kernel("broken-backend")
            assert kernel.name == "numpy"
            eng = _engine("broken-backend")
            assert eng.kernel_name == "numpy"
            assert eng.argmax() == _engine("numpy").argmax()
        finally:
            from repro.core import kernels

            kernels._KERNELS.pop("broken-backend", None)

    def test_numba_request_degrades_gracefully_when_absent(self, monkeypatch):
        """REPRO_KERNEL=numba must never crash a host without numba."""
        monkeypatch.setenv(KERNEL_ENV_VAR, "numba")
        eng = BenefitEngine(
            np.array([[0.0, 0.0], [1.0, 0.0]]), sensing_radius=2.0, k=1
        )
        assert eng.kernel_name in ("numba", "numpy")
        if "numba" not in available_kernels():
            assert eng.kernel_name == "numpy"

    def test_custom_backend_is_used_by_the_engine(self):
        calls = {"argmax": 0}
        reference = get_kernel("numpy")

        def counting():
            from repro.core.kernels import BenefitKernel

            def argmax(benefit):
                calls["argmax"] += 1
                return reference.argmax(benefit)

            return BenefitKernel(
                name="counting",
                apply_delta=reference.apply_delta,
                argmax=argmax,
                argmax_slice=reference.argmax_slice,
            )

        register_kernel("counting", counting)
        try:
            eng = _engine("counting")
            assert eng.kernel_name == "counting"
            eng.argmax()
            assert calls["argmax"] == 1
        finally:
            from repro.core import kernels

            kernels._KERNELS.pop("counting", None)
            kernels._BUILT.pop("counting", None)


# ----------------------------------------------------------------------
# twin-engine parity, every available backend vs the numpy reference
# ----------------------------------------------------------------------
class TestTwinEngineParity:
    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize("selection", ["scan", "lazy"])
    def test_randomized_op_stream(self, kernel, selection):
        ref = _engine("numpy", selection=selection)
        alt = _engine(kernel, selection=selection)
        n = ref.n_points
        rng = np.random.default_rng(7)
        removable: list[np.ndarray] = []
        for _ in range(120):
            op = int(rng.integers(0, 4))
            if op == 0:
                cand = rng.choice(n, size=int(rng.integers(1, 40)), replace=False)
                key = ("slice", int(cand.size) % 3)
                assert alt.argmax(candidates=cand, key=key) == ref.argmax(
                    candidates=cand, key=key
                )
            elif op == 1:
                idx = ref.argmax()
                assert alt.argmax() == idx
                np.testing.assert_array_equal(
                    alt.place_at(idx), ref.place_at(idx)
                )
            elif op == 2 and removable:
                cov = removable.pop(int(rng.integers(0, len(removable))))
                ref.remove_covered(cov)
                alt.remove_covered(cov)
            else:
                pos = rng.random(2) * 25.0
                cov = ref.add_sensor_at_position(pos)
                np.testing.assert_array_equal(
                    alt.add_sensor_at_position(pos), cov
                )
                removable.append(cov)
        ref.validate()
        alt.validate()
        np.testing.assert_array_equal(alt.benefit, ref.benefit)
        np.testing.assert_array_equal(alt.counts, ref.counts)
        assert alt.selection_stats.as_dict() == ref.selection_stats.as_dict()

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_warm_start_remove_rows_footprints(self, kernel):
        ref = _engine("numpy", selection="lazy")
        alt = _engine(kernel, selection="lazy")
        for _ in range(12):
            idx = ref.argmax()
            assert alt.argmax() == idx
            ref.place_at(idx)
            alt.place_at(idx)
        failed = np.array([1, 4, 7], dtype=np.intp)
        np.testing.assert_array_equal(
            alt.remove_rows(failed), ref.remove_rows(failed)
        )
        assert alt.n_rows == ref.n_rows
        # post-failure repair walks the identical argmax sequence
        for _ in range(6):
            idx = ref.argmax()
            assert alt.argmax() == idx
            ref.place_at(idx)
            alt.place_at(idx)
        np.testing.assert_array_equal(alt.benefit, ref.benefit)
        assert alt.selection_stats.as_dict() == ref.selection_stats.as_dict()


# ----------------------------------------------------------------------
# end-to-end: all six series per backend
# ----------------------------------------------------------------------
class TestSeriesBitIdentity:
    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize("series", [s.name for s in SERIES])
    def test_deployments_identical(self, kernel, series, monkeypatch):
        setup = ExperimentSetup(
            field_side=30.0, n_points=200, n_initial=0, n_seeds=1,
            k_values=(1, 2),
        )
        positions = {}
        for name in ("numpy", kernel):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            result = run_series(setup, series, 2, 0, use_initial=False)
            positions[name] = np.asarray(result.deployment.alive_positions())
        np.testing.assert_array_equal(positions["numpy"], positions[kernel])
