"""The time error of the pin-free trace, against a reference with no
oracle: the same solve at a 32 times smaller step.

Without tracked datum jumps, solver._transport_steps traces each foot by
the two-time-level midpoint rule x - h w(x - (h/2) w(x)), w = (V(u_n) +
V(u_{n+1}))/2, and transport_step sizes the step at Courant 1 (twice
time_step at the default cfl of 0.5).  On nn, -tanh(x) on [-4, 4], eps
0.1, T 0.5, dx 0.0025 the sup difference from the Courant-1/32 solve
measures 7.05e-7 at that step, 1.43e-6 at twice it and 3.41e-7 at half
it: the error is still first order in dt (ratios 2.03 and 2.07), with a
constant about 100 times smaller than that of the first-order trace the
solver used before, x - (h/2) (v(x) + v(x - (h/2) v(x))) with v at the
end of the step, which gave 9.0e-5 at its Courant 0.5 (1.9e-4 at
Courant 1) on the same problem.
"""

import numpy as np
import pytest

from nlclaw.expressions import parse_expression
from nlclaw.grids import sample
from nlclaw.solver import SolverConfig, solve_nn

# the measured error at transport_step's step, 7.05e-7, and its order
ERROR_BOUND = 1e-6
ORDER = 1.0


def test_the_midpoint_trace_has_a_small_first_order_time_error():
    datum = parse_expression("-tanh(x)")
    u0 = sample(datum, -4.0, 4.0, 0.0025)
    cfg = SolverConfig(store_stride=10**9)
    default = solve_nn(u0, 0.1, 0.5, cfg, data=datum)
    # Courant 1: twice time_step at cfl 0.5
    assert default.dt * np.abs(u0.values).max() == pytest.approx(u0.dx)
    ref, twice = (
        solve_nn(u0, 0.1, 0.5, cfg, data=datum, dt=dt).final.values
        for dt in (default.dt / 32.0, 2.0 * default.dt)
    )
    error = np.abs(default.final.values - ref).max()
    assert error < ERROR_BOUND
    order = np.log2(np.abs(twice - ref).max() / error)
    assert abs(order - ORDER) < 0.1
