"""Scenario files: a line-oriented key = value schema.

The full schema (one ``key = value`` per line, ``#`` starts a comment,
blank lines ignored, keys case-sensitive, each key at most once):

    name     = <token>                                       required
    mode     = nn | conservative | velocity_reg | flux_reg
               | euler | nn2d                                required
    initial  = riemann <uL> <uR>
             | piecewise <b1,b2,...> ; <expr> ; ... ; C=<c>
             | expression <expr>                             required
    velocity = <expr>                 euler only, default 0
    flux     = burgers | cubic | expression <f> ; <fprime>   default burgers
    epsilon  = <float>                 exactly one of epsilon /
    epsilon_list = <e1,e2,...>         epsilon_list (comma or space separated)
    T        = <float > 0>                                   required
    dx       = <float > 0>                                   required
    cfl      = <float in (0,1]>    time step, see below      default 0.5
    domain   = <a> <b>  with a < b                           required
    domain_y = <a> <b>                 nn2d only, default = domain
    output   = csv | json                                    default csv
    stride   = <int >= 1>              snapshot stride, default 50
    expect   = nonconvergence          optional flag

``cfl`` sets the time step.  A run whose datum has no tracked jump (an
``expression``, or a ``riemann`` or ``piecewise`` datum without one; nn2d
too) steps by 2 cfl dx / sup|u0|, Courant 1 at the default, because its
characteristics are traced by the time-centred midpoint rule.  A run
with tracked jumps and the euler pair step by cfl dx / sup|u0| (euler:
the sup of both invariants), and conservative mode by cfl dx / sup|v| of
the state's velocity v = eta_eps * u, at every step.

A ``<token>`` is ``[A-Za-z0-9_][A-Za-z0-9_.-]*``, at most 200 characters:
the result files are named after it, so it can name no directory and
leaves room for their suffixes.  An ``epsilon_list`` needs two distinct
values, since a sweep fits a rate through its rows.  Every number must be
finite; ``nan``, ``inf`` and values that overflow to them are rejected.
``piecewise`` lists n breakpoints and n+1 expressions separated by
semicolons, last entry ``C=<c >= 0>`` giving the one-sided Lipschitz
constant of the datum.  Expressions use the grammar of
``nlclaw.expressions``.  The parsed datum is the solver's own object:
``grids.RiemannData``, ``grids.PiecewiseInitialData`` or an
``expressions.Expression``.

A document becomes ``{key: (where, value)}``, with where = ``line N``,
and ``spec_from_fields`` validates that.  ``nlclaw riemann`` hands its
flags to the same function with where = ``--flag``, so a bad flag is
reported as ``--T: 'inf' is not a finite number``.  Validation
accumulates every error, not just the first.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .expressions import Expression, ExpressionError, parse_expression
from .grids import PiecewiseInitialData, RiemannData

__all__ = [
    "FluxChoice",
    "ScenarioError",
    "ScenarioSpec",
    "parse_scenario",
    "spec_from_fields",
]

MODES = ("nn", "conservative", "velocity_reg", "flux_reg", "euler", "nn2d")
KEYS = (
    "name", "mode", "initial", "velocity", "flux", "epsilon", "epsilon_list",
    "T", "dx", "cfl", "domain", "domain_y", "output", "stride", "expect",
)
# at most 200 characters: NAME_MAX (255) less the longest suffix a result
# file adds to the name, "_eps<float repr>.json" (32)
TOKEN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,199}")


class ScenarioError(ValueError):
    """All validation problems of one scenario document, together."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class FluxChoice:
    """The flux as written; the runner builds the FluxSpec once the data
    range that sizes its derivative spot-check is sampled."""

    kind: str  # burgers | cubic | expression
    f: Expression | None = None
    fprime: Expression | None = None


@dataclass
class ScenarioSpec:
    name: str
    mode: str
    initial: RiemannData | PiecewiseInitialData | Expression
    T: float
    dx: float
    domain: tuple
    flux: FluxChoice = field(default_factory=lambda: FluxChoice("burgers"))
    velocity: Expression | None = None
    epsilon: float | None = None
    epsilon_list: tuple | None = None
    cfl: float = 0.5
    domain_y: tuple | None = None
    output: str = "csv"
    stride: int = 50
    expect: str | None = None


def _parse_float(text: str, where: str, errors: list[str]) -> float | None:
    try:
        value = float(text)
    except ValueError:
        errors.append(f"{where}: {text!r} is not a number")
        return None
    if not math.isfinite(value):
        errors.append(f"{where}: {text!r} is not a finite number")
        return None
    return value


def _parse_initial(value: str, where: str, errors: list[str]):
    head, _, rest = value.partition(" ")
    if head == "riemann":
        parts = rest.split()
        if len(parts) != 2:
            errors.append(f"{where}: riemann needs exactly uL uR")
            return None
        uL = _parse_float(parts[0], where, errors)
        uR = _parse_float(parts[1], where, errors)
        if uL is None or uR is None:
            return None
        return RiemannData(uL, uR)
    if head == "piecewise":
        n_before = len(errors)
        chunks = [c.strip() for c in rest.split(";")]
        if len(chunks) < 3:
            errors.append(
                f"{where}: piecewise needs breakpoints, expressions and C="
            )
            return None
        if not chunks[-1].startswith("C="):
            errors.append(f"{where}: last piecewise entry must be C=<value>")
            return None
        C = _parse_float(chunks[-1][2:], where, errors)
        bps = [_parse_float(tok.strip(), where, errors)
               for tok in chunks[0].split(",")]
        exprs = []
        for chunk in chunks[1:-1]:
            try:
                exprs.append(parse_expression(chunk))
            except ExpressionError as e:
                errors.append(f"{where}: piece {chunk!r}: {e}")
        if len(errors) > n_before:
            return None
        try:
            return PiecewiseInitialData(tuple(bps), tuple(exprs), C)
        except ValueError as e:
            errors.append(f"{where}: {e}")
            return None
    if head == "expression":
        try:
            return parse_expression(rest)
        except ExpressionError as e:
            errors.append(f"{where}: {e}")
            return None
    errors.append(
        f"{where}: unknown initial data kind {head!r} "
        "(riemann | piecewise | expression)"
    )
    return None


def _parse_flux(value: str, where: str, errors: list[str]) -> FluxChoice | None:
    head, _, rest = value.partition(" ")
    if head in ("burgers", "cubic") and not rest.strip():
        return FluxChoice(head)
    if head == "expression":
        chunks = [c.strip() for c in rest.split(";")]
        if len(chunks) != 2:
            errors.append(f"{where}: expression flux needs '<f> ; <fprime>'")
            return None
        try:
            f = parse_expression(chunks[0])
            fp = parse_expression(chunks[1])
        except ExpressionError as e:
            errors.append(f"{where}: {e}")
            return None
        return FluxChoice("expression", f, fp)
    errors.append(
        f"{where}: unknown flux {value!r} (burgers | cubic | expression)"
    )
    return None


def _parse_pair(value: str, where: str, errors: list[str]) -> tuple | None:
    parts = value.split()
    if len(parts) != 2:
        errors.append(f"{where}: need two numbers")
        return None
    a = _parse_float(parts[0], where, errors)
    b = _parse_float(parts[1], where, errors)
    if a is None or b is None:
        return None
    if a >= b:
        errors.append(f"{where}: interval must satisfy a < b")
        return None
    return (a, b)


def _read_fields(text: str, errors: list[str]) -> dict[str, tuple[str, str]]:
    """The document's ``key = value`` lines as {key: ("line N", value)}."""
    fields: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key = key.strip()
        if key in fields:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        fields[key] = (f"line {lineno}", value.strip())
    return fields


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate one scenario document.

    Raises ScenarioError carrying every problem found; the message of
    each entry starts with the offending line number."""
    errors: list[str] = []
    return spec_from_fields(_read_fields(text, errors), errors)


def spec_from_fields(
    fields: dict[str, tuple[str, str]],
    errors: Sequence[str] = (),
    default_domain: Callable[[ScenarioSpec], tuple] | None = None,
) -> ScenarioSpec:
    """Validate {key: (where, value text)} into a ScenarioSpec.

    errors holds problems already found in the source; each new one is
    prefixed by the where of its key.  default_domain, when given, makes
    domain optional: a spec without one gets default_domain(spec).
    Raises ScenarioError carrying every problem found."""
    errors = list(errors)
    for key, (where, _) in fields.items():
        if key not in KEYS:
            errors.append(f"{where}: unknown key {key!r}")

    def grab(key: str):
        return fields.get(key, (None, None))

    def require(key: str) -> tuple[str | None, str | None]:
        where, value = grab(key)
        if value is None:
            errors.append(f"missing required key {key!r}")
        return where, value

    def positive(key: str, where: str | None, text: str | None):
        value = _parse_float(text, where, errors) if text is not None else None
        if value is not None and value <= 0.0:
            errors.append(f"{where}: {key} must be positive")
            return None
        return value

    where, name = require("name")
    if name is not None and not TOKEN.fullmatch(name):
        errors.append(
            f"{where}: name {name!r} is not a token ({TOKEN.pattern})"
        )
    where, mode = require("mode")
    if mode is not None and mode not in MODES:
        errors.append(
            f"{where}: unknown mode {mode!r} ({' | '.join(MODES)})"
        )
        mode = None

    where, ival = require("initial")
    initial = _parse_initial(ival, where, errors) if ival is not None else None

    # keys left out keep the ScenarioSpec defaults; a None stored here
    # comes with an error, so it never reaches a spec
    given = {}
    where, vval = grab("velocity")
    if vval is not None:
        if mode is not None and mode != "euler":
            errors.append(f"{where}: velocity is only valid in euler mode")
        try:
            given["velocity"] = parse_expression(vval)
        except ExpressionError as e:
            errors.append(f"{where}: {e}")

    where, fval = grab("flux")
    if fval is not None:
        given["flux"] = _parse_flux(fval, where, errors)

    where_e, eval_ = grab("epsilon")
    where_l, lval = grab("epsilon_list")
    if eval_ is None and lval is None:
        errors.append("missing required key 'epsilon' or 'epsilon_list'")
    elif eval_ is not None and lval is not None:
        errors.append(
            f"{where_l}: give either epsilon or epsilon_list, not both"
        )
    elif eval_ is not None:
        given["epsilon"] = positive("epsilon", where_e, eval_)
    else:
        vals = [positive("epsilon", where_l, tok)
                for tok in re.split(r"[,\s]+", lval.strip()) if tok]
        valid = [v for v in vals if v is not None]
        if not valid:
            errors.append(f"{where_l}: epsilon_list must be nonempty")
        else:
            given["epsilon_list"] = tuple(valid)
            # a sweep fits a rate through its rows
            if len(valid) == len(vals) and len(set(valid)) < 2:
                errors.append(
                    f"{where_l}: epsilon_list needs at least two distinct "
                    "values"
                )

    T = positive("T", *require("T"))
    dx = positive("dx", *require("dx"))

    where, cval = grab("cfl")
    if cval is not None:
        given["cfl"] = _parse_float(cval, where, errors)
        if given["cfl"] is not None and not 0.0 < given["cfl"] <= 1.0:
            errors.append(f"{where}: cfl must lie in (0, 1]")

    if default_domain is None or "domain" in fields:
        where, dom = require("domain")
        domain = _parse_pair(dom, where, errors) if dom is not None else None
    else:
        domain = None

    where, domy = grab("domain_y")
    if domy is not None:
        if mode is not None and mode != "nn2d":
            errors.append(f"{where}: domain_y is only valid in nn2d mode")
        given["domain_y"] = _parse_pair(domy, where, errors)

    where, out = grab("output")
    if out is not None:
        if out not in ("csv", "json"):
            errors.append(f"{where}: output must be csv or json")
        given["output"] = out

    where, sval = grab("stride")
    if sval is not None:
        try:
            given["stride"] = int(sval)
        except ValueError:
            errors.append(f"{where}: stride {sval!r} is not an integer")
        else:
            if given["stride"] < 1:
                errors.append(f"{where}: stride must be >= 1")

    where, exp = grab("expect")
    if exp is not None:
        if exp != "nonconvergence":
            errors.append(
                f"{where}: unknown expect flag {exp!r} (nonconvergence)"
            )
        given["expect"] = exp

    if mode == "euler" and initial is not None:
        if not isinstance(initial, Expression):
            errors.append("euler mode needs 'initial = expression <rho0>'")
    if mode in ("euler", "nn2d") and "epsilon_list" in given:
        errors.append(f"{mode} mode needs a single epsilon, not epsilon_list")

    if errors:
        raise ScenarioError(errors)
    spec = ScenarioSpec(
        name=name, mode=mode, initial=initial, T=T, dx=dx, domain=domain,
        **given,
    )
    if domain is None:
        spec.domain = default_domain(spec)
    return spec
