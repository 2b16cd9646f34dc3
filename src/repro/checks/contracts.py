"""Runtime invariant sanitizer for the DECOR placement pipeline.

Opt-in via ``REPRO_CHECKS=1`` (see :mod:`repro.checks.runtime`), this module
is the dynamic half of ``repro.checks``: where the AST linter catches
invariant-threatening *patterns* at lint time, the sanitizer validates the
invariants themselves while the code runs, and raises
:class:`~repro.errors.InvariantError` **at the violating step** instead of
letting a corrupted count surface three figures later as a skewed average.

Guarded invariants
------------------

``benefit-consistency``
    The incrementally maintained benefit vector must equal the batch
    recompute ``b = A_benefit @ max(k - counts, 0)`` (paper Eq. 1) after
    every greedy step — the exact invariant per-node state divergence
    breaks in distributed set-cover implementations.
``counts-nonnegative``
    Coverage counts can never go below zero.
``kcovered-count``
    The engine's running count of k-covered points (behind its O(1)
    ``is_fully_covered``/``covered_fraction``) equals a recount of
    ``counts >= k``.
``adjacency-symmetry``
    The coverage adjacency must be symmetric (undirected closeness).
``placement-in-bounds``
    Every placed position must lie inside the field's bounding box.
``deficiency-monotone``
    Residual total deficiency never increases across greedy steps.
``coverage-equals-recount``
    A result's coverage, built from the engine's recorded rows, equals a
    recount of its deployment's alive sensors.

Array write-protection
----------------------

:func:`freeze_csr` write-protects the ``indices``/``indptr`` arrays of
adjacencies crossing the :class:`~repro.field.FieldModel` cache
boundary, so a consumer mutating a shared adjacency trips a NumPy
``ValueError: assignment destination is read-only`` at the mutation site
(dense arrays leaving the cache are already frozen unconditionally).

Call sites use the null-object pattern: :func:`greedy_checker` returns the
shared no-op :data:`NULL_CHECKER` while the runtime is disabled, so the hot
loop pays one no-op method call per placement and results stay
bit-identical (the sanitizer only ever reads).

>>> import numpy as np
>>> from repro.checks.runtime import ChecksRuntime
>>> from repro.core.benefit import BenefitEngine
>>> rt = ChecksRuntime(); rt.enable()
>>> eng = BenefitEngine(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, 1)
>>> checker = greedy_checker(eng, method="demo", checks=rt)
>>> _ = eng.place_at(0)
>>> checker.after_step(0, 0, eng.field.points[0])   # consistent: passes
>>> eng._counts[1] -= 1                             # corrupt the state
>>> checker.after_step(1, 1, eng.field.points[1])   # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.errors.InvariantError: invariant 'benefit-consistency' violated at step 1: ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Union

import numpy as np

from repro.checks.runtime import CHECKS, ChecksRuntime
from repro.errors import InvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.benefit import BenefitEngine
    from repro.field.csr import Adjacency
    from repro.network.coverage import CoverageState
    from repro.network.deployment import Deployment

__all__ = [
    "freeze_csr",
    "NULL_CHECKER",
    "GreedyStepChecker",
    "greedy_checker",
    "validate_adjacency_symmetry",
    "validate_coverage_recount",
    "validate_engine_consistency",
    "validate_warm_engine",
]


def freeze_csr(matrix: Adjacency) -> Adjacency:
    """Write-protect an adjacency's ``indices`` and ``indptr``, in place.

    Applied to adjacencies as they cross a cache boundary while the
    sanitizer is enabled; consumers keep full read access but any
    in-place mutation of the shared structure raises immediately.
    """
    matrix.indices.flags.writeable = False
    matrix.indptr.flags.writeable = False
    return matrix


def validate_adjacency_symmetry(
    adjacency: Adjacency, *, step: int | None = None, method: str = ""
) -> None:
    """Raise :class:`InvariantError` unless ``adjacency`` is symmetric."""
    from repro.core.benefit import _is_symmetric  # import cycle guard

    if not _is_symmetric(adjacency):
        raise InvariantError(
            "adjacency-symmetry",
            f"coverage adjacency is not symmetric (method={method!r})",
            step=step,
        )


def validate_engine_consistency(
    engine: "BenefitEngine", *, step: int | None = None, method: str = ""
) -> None:
    """Check coverage-count/benefit consistency of a live engine.

    Recomputes the benefit vector from the coverage counts (Eq. 1 batch
    form) and compares against the incrementally maintained vector, and the
    running k-covered count against a recount; also rejects negative
    counts.  Read-only: never mutates the engine.
    """
    counts = engine.counts
    if counts.min(initial=0) < 0:
        bad = int(np.argmin(counts))
        raise InvariantError(
            "counts-nonnegative",
            f"coverage count of field point {bad} is {int(counts[bad])} "
            f"(method={method!r})",
            step=step,
        )
    expected = engine.recomputed_benefit()
    actual = engine.benefit
    mismatch = ~np.isclose(actual, expected)
    if np.any(mismatch):
        where = np.nonzero(mismatch)[0]
        raise InvariantError(
            "benefit-consistency",
            f"incremental benefit diverged from Eq. 1 recompute at "
            f"{int(where.size)} point(s), first at field point "
            f"{int(where[0])} (method={method!r})",
            step=step,
        )
    n = engine.n_points
    kcovered = int(np.count_nonzero(counts >= engine.k_per_point))
    running = engine.covered_fraction()
    if running != kcovered / n:
        raise InvariantError(
            "kcovered-count",
            f"running k-covered fraction {running!r} differs from the "
            f"recount of {kcovered}/{n} points (method={method!r})",
            step=step,
        )


def validate_warm_engine(
    engine: "BenefitEngine",
    initial_positions: np.ndarray,
    *,
    epoch: int | None = None,
) -> None:
    """Check a warm engine against a cold rebuild from the survivors.

    The warm-equals-cold contract: after removing the failed
    sensors' coverage rows, a warm engine's counts and benefit vector must
    be *exactly* (integer-exact, not approximately) the state a fresh
    engine built from ``initial_positions`` would hold — that equality is
    what makes warm restoration bit-identical to the cold path.  O(field)
    per epoch — sanitizer pricing, like the per-step Eq. 1 recompute.
    """
    from repro.core.benefit import BenefitEngine  # import cycle guard

    ben = engine.benefit_adjacency
    reference = BenefitEngine(
        engine.field,
        engine.sensing_radius,
        np.asarray(engine.k_per_point),
        benefit_adjacency=None if ben is engine.coverage_adjacency else ben,
        benefit_mode=engine.benefit_mode,
    )
    reference.add_sensors(np.asarray(initial_positions, dtype=np.float64).reshape(-1, 2))
    if not np.array_equal(engine.counts, reference.counts):
        bad = np.nonzero(engine.counts != reference.counts)[0]
        raise InvariantError(
            "warm-equals-cold",
            f"warm coverage counts diverged from the cold rebuild at "
            f"{int(bad.size)} point(s), first at field point {int(bad[0])}",
            step=epoch,
        )
    if not np.array_equal(engine.benefit, reference.benefit):
        bad = np.nonzero(engine.benefit - reference.benefit)[0]
        raise InvariantError(
            "warm-equals-cold",
            f"warm benefit vector diverged from the cold rebuild at "
            f"{int(bad.size)} point(s), first at field point {int(bad[0])}",
            step=epoch,
        )


def validate_coverage_recount(
    coverage: "CoverageState", deployment: "Deployment", *, method: str = ""
) -> None:
    """Check a result's coverage, assembled from the engine's recorded rows,
    against a recount that re-queries every alive sensor of ``deployment``
    (sensor keys and per-point counts).  O(sensors) ball queries per
    result — sanitizer pricing."""
    from repro.network.coverage import CoverageState  # import cycle guard

    fresh = CoverageState.from_deployment(
        coverage.field, coverage.sensing_radius, deployment
    )
    bad = np.nonzero(coverage.counts != fresh.counts)[0]
    if bad.size or coverage.sensor_keys() != fresh.sensor_keys():
        raise InvariantError(
            "coverage-equals-recount",
            f"result coverage of {coverage.n_sensors} sensor(s) differs from "
            f"the recount of {fresh.n_sensors} at {int(bad.size)} field "
            f"point(s) (method={method!r})",
        )


class _NullChecker:
    """Shared no-op stand-in for :class:`GreedyStepChecker` when disabled."""

    __slots__ = ()

    def after_step(
        self, step: int, point_index: int, position: np.ndarray
    ) -> None:
        return None


#: The no-op checker :func:`greedy_checker` returns while disabled.
NULL_CHECKER = _NullChecker()


class GreedyStepChecker:
    """Per-run invariant validator for a greedy placement loop.

    Construction validates the adjacency once (symmetry) and snapshots the
    starting deficiency; :meth:`after_step` re-validates the engine after
    every placement.  O(nnz) per step — sanitizer pricing, like running
    under ASan — which is why production runs leave ``REPRO_CHECKS`` unset.
    """

    __slots__ = ("_engine", "_method", "_lo", "_hi", "_last_deficiency")

    def __init__(self, engine: "BenefitEngine", *, method: str = "") -> None:
        self._engine = engine
        self._method = method
        pts = engine.field.points
        self._lo = pts.min(axis=0)
        self._hi = pts.max(axis=0)
        validate_adjacency_symmetry(engine.coverage_adjacency, method=method)
        self._last_deficiency = engine.total_deficiency()

    def after_step(
        self, step: int, point_index: int, position: np.ndarray
    ) -> None:
        """Validate all step invariants after placement number ``step``."""
        engine, method = self._engine, self._method
        pos = np.asarray(position, dtype=np.float64).reshape(-1)
        tol = 1e-9
        if np.any(pos < self._lo - tol) or np.any(pos > self._hi + tol):
            raise InvariantError(
                "placement-in-bounds",
                f"position {pos.tolist()} for field point {point_index} lies "
                f"outside the field bounding box "
                f"[{self._lo.tolist()}, {self._hi.tolist()}] "
                f"(method={method!r})",
                step=step,
            )
        validate_engine_consistency(engine, step=step, method=method)
        deficiency = engine.total_deficiency()
        if deficiency > self._last_deficiency:
            raise InvariantError(
                "deficiency-monotone",
                f"total deficiency rose {self._last_deficiency} -> "
                f"{deficiency} after placing field point {point_index} "
                f"(method={method!r})",
                step=step,
            )
        self._last_deficiency = deficiency


def greedy_checker(
    engine: "BenefitEngine",
    *,
    method: str = "",
    checks: ChecksRuntime | None = None,
) -> Union[GreedyStepChecker, _NullChecker]:
    """A step checker for ``engine``, or the shared no-op when disabled.

    ``checks`` overrides the global :data:`~repro.checks.runtime.CHECKS`
    runtime (tests and doctests); the hot-loop contract is one cheap call
    here per run and one no-op method call per placement when disabled.
    """
    runtime = CHECKS if checks is None else checks
    if not runtime.enabled:
        return NULL_CHECKER
    return GreedyStepChecker(engine, method=method)
