"""Exact symmetries of the nn equation with the Burgers flux, as checks that
need no reference solution.

- Reflection: the kernel is even, so if u solves, so does -u(-x, t).  On a
  grid symmetric about 0 the solve of the reflected datum is the reflected
  solve up to roundoff.
- Galilean shift: eta_eps has unit mass, so eta_eps * (u + c) = eta_eps *
  u + c, and the datum u0 + c gives u(x - c t, t) + c.  Shifted by a whole
  number of cells the two solves are compared node for node, away from
  the grid ends, whose constant extension does not shift.

Both solves are pin-free (expression data), so their feet are traced by
the time-centred midpoint rule, and the Galilean residual is second order
in dx at a fixed Courant number.  The first-order trace of pinned solves,
applied to these data, leaves a residual 100 times larger that falls only
at first order (1.15e-3 at dx 0.01 and 5.7e-4 at dx 0.005).
"""

import numpy as np
import pytest

from nlclaw.expressions import parse_expression
from nlclaw.grids import sample
from nlclaw.solver import SolverConfig, solve_nn

CFG = SolverConfig(store_stride=10**9)

# the Galilean residual measured C dx^ORDER, with C 0.0968 at dx 0.01
# (9.68e-6) and 0.0967 at dx 0.005 (2.42e-6)
ORDER, CONSTANT = 2.0, 0.097


def test_reflection_holds_to_roundoff():
    # an asymmetric datum and its reflection; measured 3.9e-13 (rounding
    # of the nodes and of the two data is 1e-15)
    datum = parse_expression("0.2 - tanh(2*(x - 0.3))")
    mirror = parse_expression("-0.2 - tanh(2*(x + 0.3))")
    u0 = sample(datum, -3.0, 3.0, 0.01)
    w0 = sample(mirror, -3.0, 3.0, 0.01)
    u = solve_nn(u0, 0.1, 1.0, CFG, data=datum)
    w = solve_nn(w0, 0.1, 1.0, CFG, data=mirror)
    assert u.dt == w.dt
    assert np.abs(w.final.values + u.final.values[::-1]).max() < 2e-12


def galilean_residual(dx: float, c: float = 0.5, T: float = 0.5) -> float:
    """The sup over the nodes more than 1.5 from either end of [-6, 6] of
    |u_c(x, T) - u(x - c T, T) - c|, where u solves -tanh(x) and u_c
    solves c - tanh(x), both at dt = dx/1.5 (Courant 1 for u_c)."""
    datum = parse_expression("-tanh(x)")
    shifted = parse_expression(f"{c} - tanh(x)")
    u0 = sample(datum, -6.0, 6.0, dx)
    dt = dx / (1.0 + c)
    u = solve_nn(u0, 0.1, T, CFG, data=datum, dt=dt).final.values
    uc = solve_nn(
        sample(shifted, -6.0, 6.0, dx), 0.1, T, CFG, data=shifted, dt=dt
    ).final.values
    cells = round(c * T / dx)
    assert cells * dx == pytest.approx(c * T)
    inner = np.nonzero(np.abs(u0.x) < 6.0 - 1.5)[0]
    return float(np.abs(uc[inner] - u[inner - cells] - c).max())


def test_galilean_shift_holds_at_second_order_in_dx():
    coarse, fine = galilean_residual(0.01), galilean_residual(0.005)
    assert coarse <= 1.1 * CONSTANT * 0.01**ORDER
    assert fine <= 1.1 * CONSTANT * 0.005**ORDER
    assert abs(np.log2(coarse / fine) - ORDER) < 0.1
