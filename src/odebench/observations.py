"""Noisy observation container shared by the inference engines."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["ObservationSet"]


@dataclass(frozen=True)
class ObservationSet:
    """Observations at N times for a D-component system: ``values`` is N x D.

    A component is observed when its column holds any value; an unobserved
    column is NaN everywhere.  Observed columns may still hold NaN at
    individual times (pointwise missingness).
    """

    times: np.ndarray
    values: np.ndarray
    noise_spec: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("observation times must be strictly increasing")
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError("values must be N x D with N = len(times)")

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    def observed_components(self) -> list[int]:
        return np.flatnonzero(~np.isnan(self.values).all(axis=0)).tolist()

    def component_values(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) for one observed component, NaN entries dropped."""
        keep = ~np.isnan(self.values[:, c])
        if not keep.any():
            raise ValueError(f"component {c} is not observed")
        return self.times[keep], self.values[keep, c]

    def to_csv(self, path, component_names, sidecar: dict | None = None) -> None:
        """Dataset CSV: t plus one column per observed component."""
        observed = self.observed_components()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [component_names[c] for c in observed])
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"]
                for c in observed:
                    v = self.values[i, c]
                    row.append("" if np.isnan(v) else f"{v:.17g}")
                writer.writerow(row)
        if sidecar is not None:
            meta = dict(sidecar)
            meta.setdefault("noise_spec", self.noise_spec)
            meta.setdefault("seed", self.seed)
            meta["mask"] = [c in observed for c in range(self.n_components)]
            with open(str(path) + ".json", "w") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
