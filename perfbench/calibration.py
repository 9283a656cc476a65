"""Speed samples of the measuring box, for load-normalised times.

The benchmark is meant to run on machines shared with other tenants.  On
a two-vCPU KVM guest of a shared Intel Xeon host, the sample below took
anywhere from 19 ms to 35 ms from one half second to the next, and the
slow share drifted over minutes.  Raw operation times of unchanged code
moved by up to 40 % between runs a minute apart.

Between operations the harness times a fixed piece of work that uses
nothing from nlclaw: numpy convolution and interpolation on small arrays
plus an interpreted Python loop, the same mix as a Picard pass.  An
operation's load-normalised time is its raw time scaled by
REFERENCE_S / (mean of the samples taken just before and just after it).
That is the time it would have taken had the box run the sample in
REFERENCE_S, which is about the sample's time on a quiet box.  A change
to nlclaw moves raw and normalised times alike, because the sample does
not depend on nlclaw.  Raw times are kept in every result file.  The
correction is closest for short operations: the sample slows more under
contention than the second-long sweeps of smooth_sweep do, so there it
tracks the box less closely.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.02
SAMPLE_EVERY_S = 0.5
_ITERATIONS = 200
_X = np.linspace(0.0, 1.0, 4000)
_W = np.full(81, 1.0 / 81.0)


def sample() -> float:
    """Seconds taken by the fixed piece of work, now."""
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        np.convolve(_X, _W, mode="valid")
        np.interp(0.9 * _X, _X, _X)
        s = 0
        for i in range(150):
            s += i * i
    return time.perf_counter() - t0


def samples(after_seconds: float) -> list:
    """Speed samples to take after `after_seconds` of measured work: one
    per started half second, at least one, so that the samples cover the
    run at a steady density (about 4 % extra time)."""
    n = max(1, int(after_seconds / SAMPLE_EVERY_S + 0.999))
    return [sample() for _ in range(n)]


def normalise(seconds: float, speed_samples) -> float:
    """Raw `seconds` scaled to the reference speed of the box, from the
    mean of the speed samples taken next to them."""
    return seconds * REFERENCE_S * len(speed_samples) / sum(speed_samples)
