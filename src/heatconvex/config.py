"""Flat key=value experiment configs for the command-line front end.

A config is a plain text file of ``key = value`` lines; ``#`` starts a
comment and blank lines are skipped.  The ``transform`` key may repeat (one
transform per line); every other key appears at most once.  Values that
describe a transform or a datum are a registry name followed by inline
``key=value`` parameters, for example::

    transform = power alpha=1
    transform = hot a=1
    datum     = counterexample r0=1
    domain    = interval lo=0 hi=1 ell=1
    grid.lo   = 0
    grid.hi   = 1
    grid.h    = 0.015625
    flow.times = 0.05,0.1,0.2
    certify.significance_factor = 10
    out       = results

Unknown keys are rejected so typos fail loudly, and so are ``grid.lo`` and
``grid.hi`` values other than the walls of an interval domain, which is
evolved from wall to wall (its window resolves to the walls, and ``grid.h``
must fit between them) and truncates nothing (``flow.eps_tail`` is refused).
Every effective value, parsed and defaults included, lands in the
``resolved`` mapping that the commands write into their metadata records.
The retired keys ``certify.plan``, ``certify.lambda_set``,
``certify.n_random`` and ``seed``, which chose the midpoint weights and
triples before the certificate tested every chord, are accepted with a
warning on stderr naming each, and left out of ``resolved``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .certify import counterexample_datum
from .heatflow import DomainSpec, GridFunction, InitialDatum, fit_growth_envelope, gauss_kernel, hot_h
from .numerics import param_text
from .transforms import (abs_kink_generator, make_affine, make_exp,
                         make_from_g, make_hot, make_neglog, make_power_alpha)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


_DEFAULTS = {
    "domain": "free",
    "grid.lo": -8.0,
    "grid.hi": 8.0,
    "grid.h": 1.0 / 64.0,
    "flow.times": (0.05, 0.1, 0.2),
    "flow.eps_tail": 1e-10,
    "certify.refine_levels": 3,
    "certify.significance_factor": 10.0,
    "out": ".",
}

# keys of the midpoint plans that the chord certificate replaced
_RETIRED = ("certify.plan", "certify.lambda_set", "certify.n_random", "seed")

_KNOWN_KEYS = set(_DEFAULTS) | {"transform", "datum"} | set(_RETIRED)


def _scalar(tok):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _float_list(value):
    return tuple(float(tok) for tok in str(value).split(",") if tok.strip())


def _inline(value):
    """'power alpha=1' -> ('power', {'alpha': 1.0})."""
    toks = str(value).split()
    if not toks:
        raise ConfigError("empty transform/datum value")
    params = {}
    for tok in toks[1:]:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        params[k] = _scalar(v)
    return toks[0], params


def parse_config_text(text):
    """Raw key -> value mapping; the 'transform' key accumulates a list."""
    raw = {"transform": []}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "transform":
            raw["transform"].append(value)
        elif key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        else:
            raw[key] = value
    return raw


# -- registries ----------------------------------------------------------------


def _num(params, key, default=None):
    if key in params:
        val = params[key]
        if not isinstance(val, (int, float)):
            raise ConfigError(f"parameter {key!r} must be a number, got {val!r}")
        return float(val)
    if default is None:
        raise ConfigError(f"missing required parameter {key!r}")
    return float(default)


def build_transform(name, params):
    if name == "power":
        return make_power_alpha(_num(params, "alpha"))
    if name == "affine":
        return make_affine(_num(params, "A", 1.0), _num(params, "B", 0.0),
                           domain_kind=params.get("domain", "whole_line"))
    if name == "exp":
        return make_exp()
    if name == "hot":
        return make_hot(_num(params, "a", 1.0))
    if name == "neglog":
        return make_neglog(_num(params, "a", 0.0), _num(params, "ell", 1.0))
    if name == "from_g":
        g = abs_kink_generator(center=_num(params, "center", 1.0),
                               drop=_num(params, "drop", 1.0))
        return make_from_g(g, _num(params, "base_z", 0.0),
                           _num(params, "base_value", 1.0),
                           _num(params, "base_slope", 1.0))
    raise ConfigError(f"unknown transform kind {name!r}")


def build_datum(name, params, F=None, window=(-8.0, 8.0)):
    """Named initial-datum generators used by evolve/verify/hunt.

    F is the transform under test, needed only by the 'counterexample'
    generator; window sizes the fitted growth certificates.  A non-finite
    numeric parameter, or a Gaussian's t0 <= 0, is a ConfigError.
    """
    for key, val in params.items():
        if isinstance(val, float) and not np.isfinite(val):
            raise ConfigError(f"datum parameter {key!r} must be finite, got {val!r}")
    if name == "const":
        c = _num(params, "c", 1.0)
        return InitialDatum(fn=lambda x: np.full_like(np.asarray(x, float), c),
                            growth_a=abs(c) + 1e-300, growth_A=0.0,
                            label=f"const[{param_text(c)}]")
    if name == "abs":
        scale = _num(params, "scale", 1.0)
        shift = _num(params, "shift", 0.0)
        center = _num(params, "center", 0.0)

        def vee(x):
            return scale * np.abs(np.asarray(x, float) - center) + shift

        a, A = fit_growth_envelope(vee, window)
        return InitialDatum(fn=vee, growth_a=a, growth_A=A,
                            breakpoints=(center,), label="abs")
    if name == "exp_abs":
        scale = _num(params, "scale", 1.0)

        def ridge(x):
            return np.exp(scale * np.abs(np.asarray(x, float)))

        a, A = fit_growth_envelope(ridge, window)
        return InitialDatum(fn=ridge, growth_a=a, growth_A=A,
                            breakpoints=(0.0,), label="exp_abs")
    if name == "gaussian":
        t0 = _num(params, "t0", 0.5)
        if not t0 > 0:
            raise ConfigError(f"datum 'gaussian' needs t0 > 0, got {t0!r}")
        return InitialDatum(fn=lambda x: gauss_kernel(x, t0),
                            growth_a=float(gauss_kernel(0.0, t0)), growth_A=0.0,
                            label=f"gaussian[t0={param_text(t0)}]")
    if name == "gauss_bump":
        return InitialDatum(fn=lambda x: np.exp(-np.asarray(x, float) ** 2),
                            growth_a=1.0, growth_A=0.0, label="gauss_bump")
    if name == "indicator":
        return InitialDatum(
            fn=lambda x: (np.asarray(x, float) >= 0.0).astype(float),
            growth_a=1.0, growth_A=0.0, breakpoints=(0.0,), label="indicator")
    if name == "counterexample":
        if F is None:
            raise ConfigError(
                "datum 'counterexample' needs a transform in the config")
        return counterexample_datum(F, _num(params, "r0", 1.0),
                                    fit_window=window)
    if name == "hot_bowl":
        depth = _num(params, "depth", 6.0)

        def bowl(x):
            x = np.asarray(x, float)
            inside = (x > 0.0) & (x < 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(inside,
                             -2.0 * (np.log(np.where(inside, x, 0.5))
                                     + np.log1p(np.where(inside, -x, -0.5)))
                             - depth,
                             np.inf)
            return hot_h(v)

        return InitialDatum(fn=bowl, growth_a=1.0, growth_A=0.0,
                            label=f"hot_bowl[depth={param_text(depth)}]")
    if name == "neglog_bowl":

        def cup(x):
            x = np.asarray(x, float)
            return 1.0 - x * (1.0 - x)

        return InitialDatum(fn=cup, growth_a=1.0, growth_A=0.0,
                            label="neglog_bowl")
    if name == "csv":
        path = params.get("path")
        if not isinstance(path, str):
            raise ConfigError("datum 'csv' needs path=<file>")
        try:
            return GridFunction.from_csv(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read datum file {path!r}: {exc}")
    raise ConfigError(f"unknown datum kind {name!r}")


def _build_domain(value):
    name, params = _inline(value)
    if name == "free":
        return DomainSpec.free_space()
    if name == "interval":
        return DomainSpec.interval(_num(params, "lo", 0.0),
                                   _num(params, "hi", 1.0),
                                   ell=_num(params, "ell", 0.0))
    raise ConfigError(f"unknown domain kind {name!r} (free or interval)")


# -- the resolved experiment -----------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything a command needs, with defaults already applied."""

    transforms: list            # list of FTransform
    datum_spec: object          # (name, params) or None
    domain: DomainSpec
    grid: tuple                 # (lo, hi, h); lo, hi the walls of an interval
    times: tuple
    eps_tail: float
    refine_levels: int
    significance_factor: float
    out_dir: str
    resolved: dict = field(default_factory=dict)

    def datum(self, F=None):
        if self.datum_spec is None:
            raise ConfigError("this command needs a 'datum' config line")
        name, params = self.datum_spec
        lo, hi, _ = self.grid
        return build_datum(name, params, F=F, window=(lo, hi))


def load_config(path, overrides=None):
    """Parse the file, apply CLI overrides, and resolve every field."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    raw = parse_config_text(text)
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val

    def get(key):
        return raw.get(key, _DEFAULTS[key])

    # every key's value as the run uses it, whether the file set it or not
    resolved = {key: get(key) for key in _DEFAULTS}

    def number(key, cast, ok, what):
        """get(key) cast to int or float, resolved; ConfigError unless ok."""
        try:
            val = cast(get(key))
        except (TypeError, ValueError):
            val = None
        if val is None or not ok(val):
            raise ConfigError(f"{key} must be {what}, got {get(key)!r}")
        resolved[key] = val
        return val

    lo, hi, h = (number(key, float, np.isfinite, "a finite number")
                 for key in ("grid.lo", "grid.hi", "grid.h"))
    domain = _build_domain(get("domain"))
    if domain.kind == "interval":
        # an interval evolves from wall to wall, so its window is the walls:
        # one set elsewhere would be written to the metadata but not used
        (a, b), = domain.bounds
        for key, value, wall in (("grid.lo", lo, a), ("grid.hi", hi, b)):
            if key in raw and value != wall:
                raise ConfigError(f"{key} = {param_text(value)} differs from the "
                                  f"wall {param_text(wall)} of the interval domain")
        lo, hi = a, b
        if "flow.eps_tail" in raw:
            raise ConfigError("flow.eps_tail does not apply to an interval "
                              "domain, whose evolution has no truncated tail")
    if not (hi > lo and 0 < h <= hi - lo):
        raise ConfigError(f"bad grid: lo={lo} hi={hi} h={h}")
    times = get("flow.times")
    if isinstance(times, str):
        try:
            times = _float_list(times)
        except ValueError:
            times = ()
    if not times or not all(0 < t < np.inf for t in times):
        raise ConfigError("flow.times must list positive finite times, "
                          f"got {get('flow.times')!r}")
    for key in _RETIRED:
        if key in raw:
            print(f"warning: {key} = {raw[key]} is ignored (retired: the certificate "
                  "tests every chord)", file=sys.stderr)

    transforms = []
    for spec in raw["transform"]:
        name, params = _inline(spec)
        try:
            transforms.append(build_transform(name, params))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"cannot build transform {spec!r}: {exc}")
    labels = [F.label for F in transforms]
    for label in labels:
        if labels.count(label) > 1:  # outputs are keyed by label
            raise ConfigError(f"two transform lines build {label!r}: each "
                              "transform's label must differ")

    datum_spec = _inline(raw["datum"]) if "datum" in raw else None
    resolved.update({"transform": list(raw["transform"]), "datum": raw.get("datum", ""),
                     "grid.lo": lo, "grid.hi": hi, "flow.times": list(times)})

    return ExperimentConfig(
        transforms=transforms,
        datum_spec=datum_spec,
        domain=domain,
        grid=(lo, hi, h),
        times=tuple(sorted(float(t) for t in times)),
        eps_tail=number("flow.eps_tail", float, lambda e: 0 < e < 1,
                        "a relative tolerance in (0, 1)"),
        refine_levels=number("certify.refine_levels", int, lambda n: n >= 0,
                             "a count >= 0"),
        significance_factor=number("certify.significance_factor", float,
                                   lambda c: 0 <= c < np.inf, "finite and >= 0"),
        out_dir=str(get("out")),
        resolved=resolved,
    )
