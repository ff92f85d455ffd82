"""Per-cycle switching-activity records.

Dynamic power in CMOS is proportional to the number of node transitions per
cycle.  The RTL model therefore reduces every component to three per-cycle
counters:

``clock_toggles``
    Transitions on clock nets (clock buffers, register clock pins).  An
    enabled clock toggles twice per cycle; a gated clock does not toggle.
``data_toggles``
    Register bit flips (Hamming distance between old and new contents).
``comb_toggles``
    Combinational/glue-logic transitions (enable logic, XOR feedback, etc.).

The power estimator (:mod:`repro.power`) converts these counters to energy
using per-cell coefficients from the synthetic 65 nm library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class ActivityRecord:
    """Switching activity of one component during one clock cycle."""

    clock_toggles: int = 0
    data_toggles: int = 0
    comb_toggles: int = 0

    def __add__(self, other: "ActivityRecord") -> "ActivityRecord":
        return ActivityRecord(
            clock_toggles=self.clock_toggles + other.clock_toggles,
            data_toggles=self.data_toggles + other.data_toggles,
            comb_toggles=self.comb_toggles + other.comb_toggles,
        )

    @property
    def total_toggles(self) -> int:
        """Total transitions across all three categories."""
        return self.clock_toggles + self.data_toggles + self.comb_toggles

    def is_idle(self) -> bool:
        """True when no node switched during the cycle."""
        return self.total_toggles == 0


ZERO_ACTIVITY = ActivityRecord()


class ActivityTrace:
    """Activity of one component (or one group) across many cycles.

    Stored as three parallel integer arrays to keep long traces (hundreds of
    thousands of cycles) cheap and to allow vectorised power computation.
    """

    def __init__(
        self,
        name: str,
        clock_toggles: Optional[np.ndarray] = None,
        data_toggles: Optional[np.ndarray] = None,
        comb_toggles: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.clock_toggles = np.asarray(
            clock_toggles if clock_toggles is not None else [], dtype=np.int64
        )
        self.data_toggles = np.asarray(
            data_toggles if data_toggles is not None else [], dtype=np.int64
        )
        self.comb_toggles = np.asarray(
            comb_toggles if comb_toggles is not None else [], dtype=np.int64
        )
        self._validate()

    def _validate(self) -> None:
        lengths = {
            len(self.clock_toggles),
            len(self.data_toggles),
            len(self.comb_toggles),
        }
        if len(lengths) != 1:
            raise ValueError(
                f"activity arrays of trace {self.name!r} have mismatched lengths: "
                f"{sorted(lengths)}"
            )

    @classmethod
    def from_records(cls, name: str, records: Iterable[ActivityRecord]) -> "ActivityTrace":
        """Build a trace from an iterable of per-cycle records."""
        records = list(records)
        return cls(
            name=name,
            clock_toggles=np.array([r.clock_toggles for r in records], dtype=np.int64),
            data_toggles=np.array([r.data_toggles for r in records], dtype=np.int64),
            comb_toggles=np.array([r.comb_toggles for r in records], dtype=np.int64),
        )

    @classmethod
    def zeros(cls, name: str, num_cycles: int) -> "ActivityTrace":
        """An all-idle trace of ``num_cycles`` cycles."""
        z = np.zeros(num_cycles, dtype=np.int64)
        return cls(name=name, clock_toggles=z.copy(), data_toggles=z.copy(), comb_toggles=z.copy())

    def __len__(self) -> int:
        return len(self.clock_toggles)

    def __getitem__(self, cycle: int) -> ActivityRecord:
        return ActivityRecord(
            clock_toggles=int(self.clock_toggles[cycle]),
            data_toggles=int(self.data_toggles[cycle]),
            comb_toggles=int(self.comb_toggles[cycle]),
        )

    def __iter__(self) -> Iterator[ActivityRecord]:
        for i in range(len(self)):
            yield self[i]

    @property
    def total_toggles(self) -> np.ndarray:
        """Per-cycle total transition count."""
        return self.clock_toggles + self.data_toggles + self.comb_toggles

    def add(self, other: "ActivityTrace") -> "ActivityTrace":
        """Element-wise sum of two traces of equal length."""
        if len(self) != len(other):
            raise ValueError(
                f"cannot add traces of different lengths ({len(self)} vs {len(other)})"
            )
        return ActivityTrace(
            name=f"{self.name}+{other.name}",
            clock_toggles=self.clock_toggles + other.clock_toggles,
            data_toggles=self.data_toggles + other.data_toggles,
            comb_toggles=self.comb_toggles + other.comb_toggles,
        )

    def tile(self, num_cycles: int) -> "ActivityTrace":
        """Repeat the trace until it covers ``num_cycles`` cycles.

        Used to extend a representative workload window (e.g. one iteration
        of the Dhrystone-like loop) to the full acquisition length.
        """
        if len(self) == 0:
            raise ValueError("cannot tile an empty trace")
        reps = int(np.ceil(num_cycles / len(self)))
        return ActivityTrace(
            name=self.name,
            clock_toggles=np.tile(self.clock_toggles, reps)[:num_cycles],
            data_toggles=np.tile(self.data_toggles, reps)[:num_cycles],
            comb_toggles=np.tile(self.comb_toggles, reps)[:num_cycles],
        )

    def slice(self, start: int, stop: int) -> "ActivityTrace":
        """Return the sub-trace covering cycles ``[start, stop)``."""
        return ActivityTrace(
            name=self.name,
            clock_toggles=self.clock_toggles[start:stop],
            data_toggles=self.data_toggles[start:stop],
            comb_toggles=self.comb_toggles[start:stop],
        )

    def mean_record(self) -> ActivityRecord:
        """Average activity per cycle, rounded to integers (for reporting)."""
        if len(self) == 0:
            return ZERO_ACTIVITY
        return ActivityRecord(
            clock_toggles=int(round(float(np.mean(self.clock_toggles)))),
            data_toggles=int(round(float(np.mean(self.data_toggles)))),
            comb_toggles=int(round(float(np.mean(self.comb_toggles)))),
        )

