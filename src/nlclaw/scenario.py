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
    cfl      = <float in (0,1]>                              default 0.5
    domain   = <a> <b>  with a < b                           required
    domain_y = <a> <b>                 nn2d only, default = domain
    output   = csv | json                                    default csv
    stride   = <int >= 1>              snapshot stride, default 50
    expect   = nonconvergence          optional flag

``piecewise`` lists n breakpoints and n+1 expressions separated by
semicolons, last entry ``C=<c>`` giving the one-sided Lipschitz constant
of the datum.  Expressions use the grammar of ``nlclaw.expressions``.
Parsing accumulates every validation error, not just the first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .expressions import Expression, ExpressionError, parse_expression

__all__ = [
    "ExpressionData",
    "FluxChoice",
    "PiecewiseData",
    "RiemannSpec",
    "ScenarioError",
    "ScenarioSpec",
    "parse_scenario",
]

MODES = ("nn", "conservative", "velocity_reg", "flux_reg", "euler", "nn2d")


class ScenarioError(ValueError):
    """All validation problems of one scenario document, together."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RiemannSpec:
    uL: float
    uR: float


@dataclass(frozen=True)
class PiecewiseData:
    breakpoints: tuple
    pieces: tuple
    lipschitz_C: float


@dataclass(frozen=True)
class ExpressionData:
    expr: Expression


@dataclass(frozen=True)
class FluxChoice:
    kind: str  # burgers | cubic | expression
    f: Expression | None = None
    fprime: Expression | None = None


@dataclass
class ScenarioSpec:
    name: str
    mode: str
    initial: object
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
        return float(text)
    except ValueError:
        errors.append(f"{where}: {text!r} is not a number")
        return None


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
        return RiemannSpec(uL, uR)
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
        bps = []
        for tok in chunks[0].split(","):
            b = _parse_float(tok.strip(), where, errors)
            if b is not None:
                bps.append(b)
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            errors.append(f"{where}: breakpoints must increase strictly")
        exprs = []
        for chunk in chunks[1:-1]:
            try:
                exprs.append(parse_expression(chunk))
            except ExpressionError as e:
                errors.append(f"{where}: piece {chunk!r}: {e}")
        if len(exprs) != len(bps) + 1:
            errors.append(
                f"{where}: {len(bps)} breakpoints need {len(bps) + 1} "
                f"pieces, got {len(exprs)}"
            )
        if len(errors) > n_before or C is None:
            return None
        return PiecewiseData(tuple(bps), tuple(exprs), C)
    if head == "expression":
        try:
            return ExpressionData(parse_expression(rest))
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


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate one scenario document.

    Raises ScenarioError carrying every problem found; the message of
    each entry starts with the offending line number."""
    errors: list[str] = []
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key = key.strip()
        value = value.strip()
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = (lineno, value)

    known = {
        "name", "mode", "initial", "velocity", "flux", "epsilon",
        "epsilon_list", "T", "dx", "cfl", "domain", "domain_y", "output",
        "stride", "expect",
    }
    for key, (lineno, _) in raw.items():
        if key not in known:
            errors.append(f"line {lineno}: unknown key {key!r}")

    def grab(key: str):
        return raw.get(key, (None, None))

    def require(key: str) -> tuple[int | None, str | None]:
        lineno, value = grab(key)
        if value is None:
            errors.append(f"missing required key {key!r}")
        return lineno, value

    _, name = require("name")
    ln, mode = require("mode")
    if mode is not None and mode not in MODES:
        errors.append(
            f"line {ln}: unknown mode {mode!r} ({' | '.join(MODES)})"
        )
        mode = None

    ln, ival = require("initial")
    initial = (
        _parse_initial(ival, f"line {ln}", errors) if ival is not None else None
    )

    ln, vval = grab("velocity")
    velocity = None
    if vval is not None:
        if mode is not None and mode != "euler":
            errors.append(f"line {ln}: velocity is only valid in euler mode")
        try:
            velocity = parse_expression(vval)
        except ExpressionError as e:
            errors.append(f"line {ln}: {e}")

    ln, fval = grab("flux")
    flux = FluxChoice("burgers")
    if fval is not None:
        parsed = _parse_flux(fval, f"line {ln}", errors)
        if parsed is not None:
            flux = parsed

    ln_e, eval_ = grab("epsilon")
    ln_l, lval = grab("epsilon_list")
    epsilon = None
    epsilon_list = None
    if eval_ is None and lval is None:
        errors.append("missing required key 'epsilon' or 'epsilon_list'")
    elif eval_ is not None and lval is not None:
        errors.append(
            f"line {ln_l}: give either epsilon or epsilon_list, not both"
        )
    elif eval_ is not None:
        epsilon = _parse_float(eval_, f"line {ln_e}", errors)
        if epsilon is not None and epsilon <= 0.0:
            errors.append(f"line {ln_e}: epsilon must be positive")
            epsilon = None
    else:
        vals = []
        for tok in re.split(r"[,\s]+", lval.strip()):
            if not tok:
                continue
            v = _parse_float(tok, f"line {ln_l}", errors)
            if v is not None:
                if v <= 0.0:
                    errors.append(f"line {ln_l}: epsilon must be positive")
                else:
                    vals.append(v)
        if not vals:
            errors.append(f"line {ln_l}: epsilon_list must be nonempty")
        else:
            epsilon_list = tuple(vals)

    ln, tval = require("T")
    T = _parse_float(tval, f"line {ln}", errors) if tval is not None else None
    if T is not None and T <= 0.0:
        errors.append(f"line {ln}: T must be positive")
        T = None

    ln, dval = require("dx")
    dx = _parse_float(dval, f"line {ln}", errors) if dval is not None else None
    if dx is not None and dx <= 0.0:
        errors.append(f"line {ln}: dx must be positive")
        dx = None

    ln, cval = grab("cfl")
    cfl = 0.5
    if cval is not None:
        c = _parse_float(cval, f"line {ln}", errors)
        if c is not None:
            if not 0.0 < c <= 1.0:
                errors.append(f"line {ln}: cfl must lie in (0, 1]")
            else:
                cfl = c

    ln, dom = require("domain")
    domain = _parse_pair(dom, f"line {ln}", errors) if dom is not None else None

    ln, domy = grab("domain_y")
    domain_y = None
    if domy is not None:
        if mode is not None and mode != "nn2d":
            errors.append(f"line {ln}: domain_y is only valid in nn2d mode")
        domain_y = _parse_pair(domy, f"line {ln}", errors)

    ln, out = grab("output")
    output = "csv"
    if out is not None:
        if out not in ("csv", "json"):
            errors.append(f"line {ln}: output must be csv or json")
        else:
            output = out

    ln, sval = grab("stride")
    stride = 50
    if sval is not None:
        try:
            stride = int(sval)
        except ValueError:
            errors.append(f"line {ln}: stride {sval!r} is not an integer")
        else:
            if stride < 1:
                errors.append(f"line {ln}: stride must be >= 1")
                stride = 50

    ln, exp = grab("expect")
    expect = None
    if exp is not None:
        if exp != "nonconvergence":
            errors.append(
                f"line {ln}: unknown expect flag {exp!r} (nonconvergence)"
            )
        else:
            expect = exp

    if mode == "euler" and initial is not None:
        if not isinstance(initial, ExpressionData):
            errors.append("euler mode needs 'initial = expression <rho0>'")
    if mode in ("euler", "nn2d") and epsilon_list is not None:
        errors.append(f"{mode} mode needs a single epsilon, not epsilon_list")

    if errors:
        raise ScenarioError(errors)
    return ScenarioSpec(
        name=name,
        mode=mode,
        initial=initial,
        T=T,
        dx=dx,
        domain=domain,
        flux=flux,
        velocity=velocity,
        epsilon=epsilon,
        epsilon_list=epsilon_list,
        cfl=cfl,
        domain_y=domain_y,
        output=output,
        stride=stride,
        expect=expect,
    )
