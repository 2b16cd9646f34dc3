"""Experiment constants (paper §4) and the six method series.

The paper's setup: a 100x100 field approximated with 2000 Halton points
(Hammersley gives similar results), sensing radius ``rs = 4``; grid cells of
5x5 ("small") and 10x10 ("big"); Voronoi communication radii ``rc = 8``
("small", = 2 rs) and ``rc = 10 sqrt(2) ≈ 14`` ("big", the minimum radius
letting 5x5-cell leaders talk without routing); up to 200 initially
deployed sensors; every figure averages 5 runs on randomly generated
fields.

``ExperimentSetup.smoke()`` shrinks everything proportionally so the full
figure suite runs in seconds (tests, default benchmarks); the shapes are
scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.geometry.region import Rect
from repro.network.spec import SensorSpec

__all__ = ["ExperimentSetup", "Series", "SERIES", "series_by_name"]


@dataclass(frozen=True)
class Series:
    """One line of the paper's figures.

    Attributes
    ----------
    name:
        Label used across figures (e.g. ``"grid-small"``).
    method:
        Name for :func:`repro.core.run_method`.
    cell:
        ``"small"``/``"big"`` for the grid variants, else None.
    rc:
        ``"small"``/``"big"`` for the Voronoi variants, else None (uses the
        setup's default rc).
    """

    name: str
    method: str
    cell: str | None = None
    rc: str | None = None


#: The six series of every figure, in the paper's legend order.
SERIES: tuple[Series, ...] = (
    Series("grid-small", "grid", cell="small"),
    Series("grid-big", "grid", cell="big"),
    Series("voronoi-small", "voronoi", rc="small"),
    Series("voronoi-big", "voronoi", rc="big"),
    Series("centralized", "centralized"),
    Series("random", "random"),
)

#: The four distributed series (Figure 10 only).
DECOR_SERIES: tuple[str, ...] = (
    "grid-small",
    "grid-big",
    "voronoi-small",
    "voronoi-big",
)


def series_by_name(name: str) -> Series:
    for s in SERIES:
        if s.name == name:
            return s
    raise ConfigurationError(
        f"unknown series {name!r}; known: {[s.name for s in SERIES]}"
    )


@dataclass(frozen=True)
class ExperimentSetup:
    """All §4 parameters in one immutable bundle."""

    field_side: float = 100.0
    n_points: int = 2000
    rs: float = 4.0
    rc_small: float = 8.0
    rc_big: float = 10.0 * math.sqrt(2.0)
    cell_small: float = 5.0
    cell_big: float = 10.0
    n_initial: int = 200
    n_seeds: int = 5
    generator: str = "halton"
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    disaster_radius_fraction: float = 0.24  # radius 24 on the 100-side field

    def __post_init__(self) -> None:
        for name, bad, rule in (
            ("field_side", not self.field_side > 0, "> 0"),
            ("n_points", self.n_points < 1, ">= 1"),
            ("rs", not self.rs > 0, "> 0"),
            ("rc_small", not self.rc_small >= self.rs, f">= rs ({self.rs:g})"),
            ("rc_big", not self.rc_big >= self.rs, f">= rs ({self.rs:g})"),
            ("n_seeds", self.n_seeds < 1, ">= 1"),
            ("n_initial", self.n_initial < 0, ">= 0"),
        ):
            if bad:
                raise ConfigurationError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )
        if not self.k_values or min(self.k_values) < 1:
            raise ConfigurationError(
                f"k_values must be non-empty and >= 1, got {self.k_values!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "ExperimentSetup":
        """The exact §4 configuration."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentSetup":
        """A proportionally shrunk configuration for fast CI runs.

        Half the field side (a quarter of the area), a quarter of the
        points (same point density), 2 seeds, k up to 3.  rs and the cell
        sizes stay at the paper's values, so the geometric relations (a
        sensor nearly covers a small cell; the disc-to-cell ratios) are
        preserved.
        """
        return cls(
            field_side=50.0,
            n_points=500,
            n_initial=50,
            n_seeds=2,
            k_values=(1, 2, 3),
        )

    @classmethod
    def from_env(cls, env_value: str | None) -> "ExperimentSetup":
        """``"paper"`` / ``"smoke"`` / None (-> smoke) selector for benches."""
        if env_value in (None, "", "smoke"):
            return cls.smoke()
        if env_value == "paper":
            return cls.paper()
        raise ConfigurationError(
            f"unknown REPRO_SCALE value {env_value!r}; use 'smoke' or 'paper'"
        )

    def with_seeds(self, n_seeds: int) -> "ExperimentSetup":
        return replace(self, n_seeds=n_seeds)

    def describe(self) -> dict:
        """The semantic parameters as a plain JSON-safe dict.

        This is what run-ledger config fingerprints hash: every field
        that changes *what* an experiment computes, none of the
        execution details (worker count, host) that merely change how
        fast.  Tuples become lists so the dict round-trips through JSON.

        >>> ExperimentSetup.smoke().describe()["k_values"]
        [1, 2, 3]
        """
        return {
            "field_side": self.field_side,
            "n_points": self.n_points,
            "rs": self.rs,
            "rc_small": self.rc_small,
            "rc_big": self.rc_big,
            "cell_small": self.cell_small,
            "cell_big": self.cell_big,
            "n_initial": self.n_initial,
            "n_seeds": self.n_seeds,
            "generator": self.generator,
            "k_values": list(self.k_values),
            "disaster_radius_fraction": self.disaster_radius_fraction,
        }

    # ------------------------------------------------------------------
    @property
    def region(self) -> Rect:
        return Rect.square(self.field_side)

    @property
    def disaster_radius(self) -> float:
        return self.disaster_radius_fraction * self.field_side

    def spec_for(self, series: Series) -> SensorSpec:
        """Sensor spec for a series (rc varies for the Voronoi variants)."""
        if series.rc == "small":
            return SensorSpec(self.rs, self.rc_small)
        if series.rc == "big":
            return SensorSpec(self.rs, self.rc_big)
        if series.rc is not None:
            raise ConfigurationError(f"unknown rc tag {series.rc!r}")
        # grid leaders need the big radius to reach each other (paper §4);
        # centralized/random do not use rc, any valid value works
        return SensorSpec(self.rs, self.rc_big)

    def cell_size_for(self, series: Series) -> float | None:
        if series.cell == "small":
            return self.cell_small
        if series.cell == "big":
            return self.cell_big
        if series.cell is not None:
            raise ConfigurationError(f"unknown cell tag {series.cell!r}")
        return None
