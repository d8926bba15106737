"""Exception types shared across the package, and the one config reader."""

import math
import sys


class PeskinError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PeskinError):
    """Malformed or inconsistent run configuration."""


REQUIRED = object()  # schema default of a key that must be given


def _real(v):  # type() keeps true and false out; NaN, inf and huge ints fail the bound
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _list(v, test, n=None):
    return type(v) in (list, tuple) and len(v) == (n or len(v)) and all(map(test, v))


# kind: (test, conversion or None, what a value of the kind must be)
_KINDS = {
    "int": (lambda v: type(v) is int, None, "an integer"),
    "real": (_real, None, "a finite number"),
    "positive": (lambda v: _real(v) and v > 0, None, "a finite number > 0"),
    "bool": (lambda v: type(v) is bool, None, "true or false"),
    "str": (lambda v: type(v) is str, None, "a string"),
    "object": (lambda v: type(v) is dict, None, "an object"),
    "pair": (lambda v: _list(v, _real, 2), lambda v: complex(*v), "a finite pair [re, im]"),
    "amplitude": (lambda v: _real(v) or _list(v, _real, 2),
                  lambda v: v if _real(v) else complex(*v), "a finite number or [re, im]"),
    "reals": (lambda v: _list(v, _real), None, "a list of finite numbers"),
    "target": (lambda v: type(v) in (list, tuple) and len(v) == 2 and v[0] in ("s", "w")
               and _real(v[1]) and v[1] > 0, lambda v: (v[0], float(v[1])),
               '["s" or "w", a finite value > 0]'),
}


def read_config(d, schema, where, dispatch=None):
    """Check the mapping d against schema; return its values, defaults filled in.

    schema maps each key to (kind, default) or (kind, default, (lo, hi)),
    kind one of _KINDS and a None bound open.  A REQUIRED default makes the
    key mandatory; a key whose default is None also takes null.  With
    dispatch, schema maps each value of the string d[dispatch] to the schema
    of that kind's other keys.  An unknown key, a missing required key, a
    value of the wrong kind, a NaN or inf and a value outside [lo, hi] are
    ConfigErrors naming where and the key.
    """
    if type(d) is not dict:
        raise ConfigError(f"{where} must be an object, got {d!r}")
    if dispatch is not None:
        choice = d.get(dispatch)
        if type(choice) is not str or choice not in schema:
            raise ConfigError(f"{where}: {dispatch} {choice!r} is not one of {sorted(schema)}")
        schema, where = {dispatch: ("str", REQUIRED), **schema[choice]}, f"{where} {choice!r}"
    unknown = [key for key in d if key not in schema]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    out = {}
    for key, (kind, default, *bounds) in schema.items():
        value = d.get(key)
        if value is None and (key not in d or default is None):
            if default is REQUIRED:
                raise ConfigError(f"{where}: missing the key {key!r}")
            out[key] = default
            continue
        test, convert, wants = _KINDS[kind]
        if any(type(x) is float and not math.isfinite(x)
               for x in (value if type(value) in (list, tuple) else [value])):
            raise ConfigError(f"{where}: {key} is non-finite, got {value!r}")
        lo, hi = bounds[0] if bounds else (None, None)
        if not test(value) or (lo is not None and value < lo) or (hi is not None and value > hi):
            bound = " and".join(f" {op} {b}" for op, b in ((">=", lo), ("<=", hi))
                                if b is not None)
            raise ConfigError(f"{where}: {key} must be {wants}{bound}, got {value!r}")
        out[key] = convert(value) if convert else value
    return out


class GeometryError(PeskinError):
    """Curve violated the chord-arc condition (near self-intersection)."""


class TensionDomainError(PeskinError):
    """Stretch left the validity interval of the tension law."""


class StepRejected(PeskinError):
    """A time step amplified some mode beyond the blow-up guard."""


class InsufficientDecay(PeskinError):
    """Trajectory too short to fit a decay rate (norm drop below e^2)."""


class IllConditioned(PeskinError):
    """Eigenvector matrix too ill-conditioned to build a propagator."""
