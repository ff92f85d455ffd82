"""Watermark sequence generators.

The watermark generation circuit in the paper's test chips contains two
32-bit sequence generators configurable as either Linear Feedback Shift
Registers or simple circular shift registers; the experiments use a single
generator configured as a 12-bit maximum-length LFSR (period 4,095).

Both generator types are implemented here.  Each ``step`` advances the
register one clock cycle, returns the output watermark bit and records the
switching activity of the generator itself (clock pins, data flips and the
XOR feedback gates), which the power estimator turns into the WGC's share
of the watermark dynamic power (the "Total Watermark Dynamic Power" column
of Table I).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE
from repro.rtl.signals import hamming_distance

#: Feedback taps producing maximum-length sequences for Fibonacci LFSRs.
#: Taps are 1-indexed from the output stage, as conventionally tabulated.
_MAX_LENGTH_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


def max_length_taps(width: int) -> Tuple[int, ...]:
    """Feedback taps that give a maximum-length sequence for ``width`` bits."""
    if width not in _MAX_LENGTH_TAPS:
        raise ValueError(
            f"no maximum-length tap set tabulated for width {width}; "
            f"supported widths: {sorted(_MAX_LENGTH_TAPS)}"
        )
    return _MAX_LENGTH_TAPS[width]


# -- closed-form (vectorised) sequence generation ---------------------------
#
# The trace-synthesis fast path (repro.power.synthesis) needs watermark
# sequences without paying one Python ``step()`` per bit.  The generators
# below produce arrays that are bit-identical to stepping the registers;
# the per-cycle ``stepped_sequence`` implementation stays as the golden
# reference and the equivalence is pinned by property tests for every
# tabulated width.

#: Cache of generated output sequences keyed by generator configuration.
_SEQUENCE_CACHE: Dict[Tuple, np.ndarray] = {}

#: Longest sequence kept in the cache (int8 entries, so 4 MiB per entry cap).
_SEQUENCE_CACHE_MAX_LENGTH = 1 << 22


def clear_sequence_cache() -> None:
    """Drop all cached closed-form sequences (used by tests)."""
    _SEQUENCE_CACHE.clear()


def _galois_feedback_mask(width: int, taps: Tuple[int, ...]) -> int:
    """Feedback mask of the Galois register (see :class:`LFSR`)."""
    mask = 1 << (width - 1)
    for tap in taps:
        if tap != width:
            mask |= 1 << (tap - 1)
    return mask


def galois_sequence_bits(
    width: int, seed: int, taps: Tuple[int, ...], length: int
) -> np.ndarray:
    """Closed-form Galois LFSR output, bit-identical to per-bit stepping.

    The output stream of the right-shifting Galois register implemented by
    :class:`LFSR` satisfies the GF(2) linear recurrence

    ``s[n] = XOR over t in taps of s[n - t]``

    (the recurrence of the reciprocal feedback polynomial).  Squaring the
    polynomial doubles every lag while keeping the term count, so after
    bootstrapping ``2 * width`` bits with the plain state transition the
    rest of the array is filled with O(len(taps) * width * log(length))
    vectorised block XORs instead of one Python iteration per bit.
    """
    if length <= 0:
        raise ValueError("sequence length must be positive")
    mask = (1 << width) - 1
    seed &= mask
    if seed == 0:
        raise ValueError("LFSR seed must be non-zero")
    feedback = _galois_feedback_mask(width, taps)
    bits = np.empty(length, dtype=np.int8)
    # Bootstrap enough bits for the doubled recurrences to take over.
    state = seed
    boot = min(length, 2 * width)
    for i in range(boot):
        bits[i] = state & 1
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= feedback
    filled = boot
    lags = sorted(set(taps))
    min_lag = lags[0]
    while filled < length:
        # Largest squaring level whose longest lag (scale * width) is known.
        scale = 1
        while 2 * scale * width <= filled:
            scale *= 2
        block = min(scale * min_lag, length - filled)
        start = filled - scale * lags[0]
        acc = bits[start : start + block].copy()
        for tap in lags[1:]:
            start = filled - scale * tap
            np.bitwise_xor(acc, bits[start : start + block], out=acc)
        bits[filled : filled + block] = acc
        filled += block
    return bits


def circular_shift_sequence_bits(pattern: int, width: int, length: int) -> np.ndarray:
    """Closed-form circular-shift-register output (the pattern, repeated)."""
    if length <= 0:
        raise ValueError("sequence length must be positive")
    pattern &= (1 << width) - 1
    stages = np.array([(pattern >> i) & 1 for i in range(width)], dtype=np.int8)
    return stages[np.arange(length, dtype=np.int64) % width]


def _cached_sequence_bits(key: Tuple, length: int, generate) -> np.ndarray:
    """Serve ``length`` bits from the cache, generating/extending as needed.

    The cache stores the longest sequence generated so far per
    configuration; shorter requests are prefix slices.  No periodicity is
    assumed (non-maximum-length tap sets may have a shorter true period
    than the nominal one), so extensions regenerate from the recurrence.
    """
    cached = _SEQUENCE_CACHE.get(key)
    if cached is None or len(cached) < length:
        cached = generate(length)
        if length <= _SEQUENCE_CACHE_MAX_LENGTH:
            _SEQUENCE_CACHE[key] = cached
    return cached[:length].copy()


def _shift_right_columns(width: int, feedback: int) -> List[int]:
    """Column images of a right shift whose output bit XORs in ``feedback``.

    Both generators are this GF(2)-linear map: the Galois LFSR with its
    feedback mask, the circular shift register with the top stage.  Column
    ``j`` is the next state of the unit state ``1 << j``.
    """
    return [feedback] + [1 << (j - 1) for j in range(1, width)]


def _apply_columns(columns: List[int], value: int) -> int:
    """The linear map given by ``columns`` applied to one state."""
    image = 0
    for bit, column in enumerate(columns):
        if (value >> bit) & 1:
            image ^= column
    return image


def linear_state_sequence(columns: List[int], seed: int, length: int) -> np.ndarray:
    """States ``s[0] = seed, s[n + 1] = A s[n]`` of a GF(2)-linear register.

    ``A`` is given by its column images (see :func:`_shift_right_columns`).
    Doubling fills the array without one Python iteration per state: with
    ``k`` states known, ``s[k:2k] = A^k s[0:k]`` is one vectorised pass per
    state bit, and squaring gives ``A^2k`` for the next round.  That is
    O(width * log(length)) array operations plus O(width^2 * log(length))
    integer work for the squarings.
    """
    if length <= 0:
        raise ValueError("sequence length must be positive")
    if len(columns) > 62:
        raise ValueError("states wider than 62 bits do not fit the int64 state array")
    states = np.empty(length, dtype=np.int64)
    states[0] = seed
    power = list(columns)  # A^filled
    filled = 1
    while filled < length:
        block = min(filled, length - filled)
        source = states[:block]
        image = np.zeros(block, dtype=np.int64)
        for bit, column in enumerate(power):
            image ^= ((source >> bit) & 1) * column
        states[filled : filled + block] = image
        filled += block
        power = [_apply_columns(power, column) for column in power]
    return states


def _hamming_weights(values: np.ndarray) -> np.ndarray:
    """Per-element population count of non-negative int64 values."""
    octets = np.ascontiguousarray(values, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1).sum(axis=1, dtype=np.int64)


def _generator_activity(
    name: str, width: int, states: np.ndarray, comb_toggles: np.ndarray
) -> ActivityTrace:
    """Activity of ``len(states) - 1`` steps through the given states."""
    steps = len(states) - 1
    return ActivityTrace(
        name,
        clock_toggles=np.full(steps, CLOCK_EDGES_PER_CYCLE * width, dtype=np.int64),
        data_toggles=_hamming_weights(states[:-1] ^ states[1:]),
        comb_toggles=comb_toggles,
    )


def max_length_period(width: int) -> int:
    """Period of a maximum-length sequence of the given register width."""
    if width < 2:
        raise ValueError("LFSR width must be at least 2")
    return (1 << width) - 1


class SequenceGenerator(abc.ABC):
    """Common interface of watermark sequence generators."""

    def __init__(self, name: str, width: int) -> None:
        if width < 2:
            raise ValueError("sequence generator width must be at least 2")
        self.name = name
        self.width = width

    @property
    @abc.abstractmethod
    def period(self) -> int:
        """Length of the generated periodic sequence."""

    @property
    @abc.abstractmethod
    def output_bit(self) -> int:
        """Current output (watermark) bit."""

    @abc.abstractmethod
    def step(self, clock_enabled: bool = True) -> Tuple[int, ActivityRecord]:
        """Advance one cycle; return the new output bit and the activity."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return to the seed state."""

    @abc.abstractmethod
    def activity_trace(self, num_cycles: int) -> ActivityTrace:
        """Array form of :meth:`step`: ``num_cycles`` enabled cycles from reset.

        Derived from the closed-form state sequence; bit-identical to the
        activity records of stepping from the seed state, which stays the
        golden reference.  The generator state is not touched.
        """

    @property
    def register_count(self) -> int:
        """Number of flip-flops in the generator."""
        return self.width

    def sequence(self, length: Optional[int] = None) -> np.ndarray:
        """Generate ``length`` output bits (default: one full period).

        Served by the closed-form vectorised generator (cached per
        generator configuration) when the subclass provides one; the
        bits are identical to :meth:`stepped_sequence`, which remains the
        cycle-accurate golden reference.  The generator state is never
        perturbed by either path.
        """
        if length is None:
            length = self.period
        if length <= 0:
            raise ValueError("sequence length must be positive")
        bits = self._closed_form_sequence(length)
        if bits is not None:
            return bits
        return self.stepped_sequence(length)

    def stepped_sequence(self, length: Optional[int] = None) -> np.ndarray:
        """Generate ``length`` output bits by stepping one cycle at a time.

        This is the golden reference for the closed-form fast path.  The
        generator state is saved and restored, so calling this does not
        perturb an ongoing simulation.
        """
        if length is None:
            length = self.period
        if length <= 0:
            raise ValueError("sequence length must be positive")
        saved = self._save_state()
        self.reset()
        bits = np.empty(length, dtype=np.int8)
        bits[0] = self.output_bit
        for i in range(1, length):
            bit, _ = self.step()
            bits[i] = bit
        self._restore_state(saved)
        return bits

    def _closed_form_sequence(self, length: int) -> Optional[np.ndarray]:
        """Vectorised sequence generation; ``None`` defers to stepping."""
        return None

    @abc.abstractmethod
    def _save_state(self):
        """Snapshot internal state (used by :meth:`sequence`)."""

    @abc.abstractmethod
    def _restore_state(self, state) -> None:
        """Restore a snapshot taken by :meth:`_save_state`."""


class LFSR(SequenceGenerator):
    """Galois linear feedback shift register.

    The feedback taps are the exponents of a primitive polynomial
    ``x^n + ... + 1``; with a primitive polynomial the register cycles
    through all ``2^n - 1`` non-zero states, so the output is a
    maximum-length sequence of period ``2^n - 1``.

    Parameters
    ----------
    width:
        Number of stages.
    seed:
        Initial state; must be non-zero (the all-zero state is the lock-up
        state of an XOR-feedback LFSR).
    taps:
        1-indexed taps of the feedback polynomial (excluding the constant
        term).  Defaults to a tabulated maximum-length set.
    """

    def __init__(
        self,
        width: int = 12,
        seed: int = 1,
        taps: Optional[Tuple[int, ...]] = None,
        name: str = "lfsr",
    ) -> None:
        super().__init__(name=name, width=width)
        mask = (1 << width) - 1
        seed &= mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.seed = seed
        self.state = seed
        self.taps = tuple(taps) if taps is not None else max_length_taps(width)
        for tap in self.taps:
            if not 1 <= tap <= width:
                raise ValueError(f"tap {tap} outside valid range [1, {width}]")
        if width not in self.taps:
            raise ValueError(
                f"the tap set must include the register width {width} "
                f"(the x^{width} term of the feedback polynomial)"
            )
        # Galois feedback mask: the x^width term corresponds to the bit that
        # is shifted out, so it is excluded; the constant term (x^0) injects
        # into the most significant stage.
        self._feedback_mask = 1 << (width - 1)
        for tap in self.taps:
            if tap != width:
                self._feedback_mask |= 1 << (tap - 1)

    @property
    def period(self) -> int:
        return max_length_period(self.width)

    @property
    def output_bit(self) -> int:
        """The output bit is the last stage of the register."""
        return self.state & 1

    def step(self, clock_enabled: bool = True) -> Tuple[int, ActivityRecord]:
        if not clock_enabled:
            return self.output_bit, ActivityRecord()
        lsb = self.state & 1
        next_state = self.state >> 1
        if lsb:
            next_state ^= self._feedback_mask
        data_toggles = hamming_distance(self.state, next_state, self.width)
        self.state = next_state
        activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.width,
            data_toggles=data_toggles,
            comb_toggles=len(self.taps) if lsb else 0,
        )
        return self.output_bit, activity

    def reset(self) -> None:
        self.state = self.seed

    def activity_trace(self, num_cycles: int) -> ActivityTrace:
        columns = _shift_right_columns(self.width, self._feedback_mask)
        states = linear_state_sequence(columns, self.seed, num_cycles + 1)
        feedback_gates = len(self.taps) * (states[:-1] & 1)
        return _generator_activity(self.name, self.width, states, feedback_gates)

    def _save_state(self) -> int:
        return self.state

    def _restore_state(self, state: int) -> None:
        self.state = state

    def _closed_form_sequence(self, length: int) -> np.ndarray:
        key = ("lfsr", self.width, self.seed, tuple(sorted(set(self.taps))))
        return _cached_sequence_bits(
            key,
            length,
            lambda n: galois_sequence_bits(self.width, self.seed, self.taps, n),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LFSR(width={self.width}, taps={self.taps}, state={self.state:#x})"


class CircularShiftRegister(SequenceGenerator):
    """A circular shift register emitting a fixed, user-chosen pattern.

    The test-chip WGC can be configured in this mode; the watermark
    sequence is simply the register's initial pattern repeated forever.
    """

    def __init__(self, pattern: int, width: int = 32, name: str = "csr") -> None:
        super().__init__(name=name, width=width)
        self.pattern = pattern & ((1 << width) - 1)
        self.state = self.pattern

    @property
    def period(self) -> int:
        return self.width

    @property
    def output_bit(self) -> int:
        return self.state & 1

    def step(self, clock_enabled: bool = True) -> Tuple[int, ActivityRecord]:
        if not clock_enabled:
            return self.output_bit, ActivityRecord()
        lsb = self.state & 1
        next_state = (self.state >> 1) | (lsb << (self.width - 1))
        data_toggles = hamming_distance(self.state, next_state, self.width)
        self.state = next_state
        activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.width,
            data_toggles=data_toggles,
        )
        return self.output_bit, activity

    def reset(self) -> None:
        self.state = self.pattern

    def activity_trace(self, num_cycles: int) -> ActivityTrace:
        columns = _shift_right_columns(self.width, 1 << (self.width - 1))
        states = linear_state_sequence(columns, self.pattern, num_cycles + 1)
        return _generator_activity(
            self.name, self.width, states, np.zeros(num_cycles, dtype=np.int64)
        )

    def _save_state(self) -> int:
        return self.state

    def _restore_state(self, state: int) -> None:
        self.state = state

    def _closed_form_sequence(self, length: int) -> np.ndarray:
        key = ("csr", self.width, self.pattern)
        return _cached_sequence_bits(
            key,
            length,
            lambda n: circular_shift_sequence_bits(self.pattern, self.width, n),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircularShiftRegister(width={self.width}, state={self.state:#x})"
