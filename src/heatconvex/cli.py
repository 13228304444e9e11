"""Command-line front end wiring the library into reproducible experiments.

Subcommands: ``classify``, ``evolve``, ``verify``, ``hunt``.  Each takes a
flat key=value config file (see :mod:`heatconvex.config`) plus optional
overrides and writes plain CSV data files and a JSON metadata record into
the output directory; ``hunt`` evolves in free space only and refuses any
other ``domain`` (exit 2).  Exit codes: 0 ok, 2 config error (a
transform or datum parameter its constructor refuses included), 4
existence/evaluation window error, 5 significant violation found by
verify.  Every transform is admissible once built, so ``classify`` always
reaches a verdict.

Outputs carry no timestamps and all floats are printed with %.17g, so the
same config always produces bit-identical files.  _cell formats every
cell of the CSV tables, so each row parses to its header's width, and
_write_meta writes every metadata record as strict JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .certify import check_F_convex, hunt_violation
from .config import ConfigError, load_config
from .heatflow import (EvaluationWindowError, ExistenceWindowError,
                       check_existence, heat_evolve_dirichlet, heat_evolve_free)
from .numerics import DomainError
from .transforms import ClassReport, classify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WINDOW = 4
EXIT_VIOLATION = 5


def _cell(val):
    """One CSV cell: floats as %.17g, booleans true/false, None empty, and
    text holding a comma, a quote or a newline quoted."""
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    text = f"{val:.17g}" if isinstance(val, float) else str(val)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row(*vals):
    return ",".join(map(_cell, vals))


def _slug(label):
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_") or "transform"


def _write(out_dir, name, text):
    # a new file: truncating an old one makes the filesystem flush its
    # pending data first, which costs far more than the write
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.unlink(missing_ok=True)
    path.write_text(text)


def _strict(val):
    """val with every non-finite float, however deep, as the string "inf",
    "-inf" or "nan": JSON has no such numbers, and jq and JSON.parse refuse
    json's Infinity and NaN."""
    if isinstance(val, float) and not np.isfinite(val):
        return str(float(val))
    if isinstance(val, dict):
        return {k: _strict(v) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_strict(v) for v in val]
    return val


def _write_meta(cfg, command, name, extra):
    """The command's metadata record, strict JSON: a non-finite number that
    _strict missed raises."""
    record = _strict({"command": command, "config": cfg.resolved, **extra})
    _write(cfg.out_dir, name,
           json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _evolve(cfg, phi, t):
    if cfg.domain.kind == "free_space":
        return heat_evolve_free(phi, t, cfg.grid, eps_tail=cfg.eps_tail)
    return heat_evolve_dirichlet(phi, cfg.domain, t, cfg.grid)


def _check_schedule(cfg, phi):
    """The whole schedule's existence window, before any file is written;
    only free space evolves by the datum's growth certificate."""
    if cfg.domain.kind == "free_space":
        check_existence(phi.growth_A, max(cfg.times))


def _warn_unconverged(where, meta):
    """stderr warning for an evolution whose refinement missed heatflow._QUAD_TOL."""
    if not meta["converged"]:
        print(f"warning: {where}: evolution did not converge (quad_error "
              f"{meta['quad_error']:.3g} at lattice_factor "
              f"{meta['lattice_factor']})", file=sys.stderr)


def _cert_fields(c):
    """status, gap, noise_floor, significant of a certificate; the gap is
    nan when it scanned no triple."""
    return (c.status, c.worst.gap if c.worst is not None else np.nan,
            c.noise_floor, c.significant)


def _scan_record(cert, **where):
    """where plus the certificate's count of middle nodes and its deciding
    chord {x0, x1, lam, gap} (None when it scanned no triple), for the
    *_meta.json scan lists."""
    w = cert.worst
    return {**where, "n_samples": cert.n_samples,
            "chord": None if w is None else {"x0": w.x0, "x1": w.x1, "lam": w.lam,
                                             "gap": w.gap}}


def _require_transforms(cfg):
    if not cfg.transforms:
        raise ConfigError("config lists no transforms")


# -- subcommands ----------------------------------------------------------------


def cmd_classify(cfg):
    """Classify every configured transform."""
    _require_transforms(cfg)
    reports = [classify(F) for F in cfg.transforms]
    lines = [_row(*ClassReport.FIELDS)] + [
        _row(*(getattr(r, name) for name in ClassReport.FIELDS)) for r in reports]
    _write(cfg.out_dir, "classify.csv", "\n".join(lines) + "\n")
    _write_meta(cfg, "classify", "classify_meta.json",
                {"verdicts": {r.label: r.verdict for r in reports}})
    for r in reports:
        print(f"{r.label}: {r.verdict} [{r.basis}]")
    return EXIT_OK


def cmd_evolve(cfg):
    """Write u(.,t) for each scheduled t plus a metadata record."""
    F_ctx = cfg.transforms[0] if cfg.transforms else None
    phi = cfg.datum(F_ctx)
    _check_schedule(cfg, phi)
    results = []
    for i, t in enumerate(cfg.times):
        u = _evolve(cfg, phi, t)
        fname = f"evolve_{i:02d}.csv"
        _write(cfg.out_dir, fname, f"# t={t!r}\n" + u.to_csv())
        results.append({"file": fname, "value_error": u.value_error,
                        "growth_a": u.growth_a, "growth_A": u.growth_A, **u.meta})
        print(f"t={t:g}: wrote {fname} (value_error {u.value_error:.3g})")
        _warn_unconverged(f"t={t:g}", u.meta)
    _write_meta(cfg, "evolve", "evolve_meta.json", {"results": results})
    return EXIT_OK


_VERIFY_HEADER = "transform,t,status,gap,noise_floor,significant,lambda,x0,x1"


def cmd_verify(cfg):
    """Certificate table across the schedule; exit 5 on significant violation."""
    _require_transforms(cfg)
    rows = [_VERIFY_HEADER]
    scans = []
    any_significant = False
    for F in cfg.transforms:
        report = classify(F)
        if report.verdict != "preserved":
            print(f"warning: {F.label} classifies as {report.verdict}, "
                  "not preserved; verifying anyway", file=sys.stderr)
        phi = cfg.datum(F)
        _check_schedule(cfg, phi)
        for t in cfg.times:
            u = _evolve(cfg, phi, t)
            _warn_unconverged(f"{F.label} t={t:g}", u.meta)
            cert = check_F_convex(u, F, cfg.significance_factor)
            worst = cert.worst
            any_significant |= cert.significant
            fields = _cert_fields(cert)
            rows.append(_row(F.label, t, *fields, *(
                (None,) * 3 if worst is None else (worst.lam, worst.x0, worst.x1))))
            scans.append(_scan_record(cert, transform=F.label, t=t))
            print(f"{F.label} t={t:g}: {cert.status} gap={fields[1]:.3g} "
                  f"noise={cert.noise_floor:.3g}"
                  + (" SIGNIFICANT" if cert.significant else ""))
    _write(cfg.out_dir, "verify.csv", "\n".join(rows) + "\n")
    _write_meta(cfg, "verify", "verify_meta.json",
                {"significant_violation": any_significant, "scans": scans})
    return EXIT_VIOLATION if any_significant else EXIT_OK


def cmd_hunt(cfg):
    """Refinement-driven violation search; writes history per transform.
    It evolves in free space only: another domain is a config error."""
    _require_transforms(cfg)
    if cfg.domain.kind != "free_space":
        raise ConfigError(f"hunt evolves in free space, not on a {cfg.domain.kind}")
    summary, scans = {}, {}
    for F in cfg.transforms:
        phi = cfg.datum(F)
        _check_schedule(cfg, phi)
        history = []
        cert, t_first = hunt_violation(
            F, phi, cfg.times, cfg.grid, refine=cfg.refine_levels,
            history=history,
            significance_factor=cfg.significance_factor, eps_tail=cfg.eps_tail)
        lines = ["t,level,h,status,gap,noise_floor,significant"]
        for rec in history:
            _warn_unconverged(f"{F.label} t={rec['t']:g} level {rec['level']}", rec["meta"])
            lines.append(_row(rec["t"], rec["level"], rec["h"],
                              *_cert_fields(rec["certificate"])))
        if t_first is not None and cert.worst is not None:
            lines.append(f"# earliest_significant_t={t_first:.17g}")
            lines.append(f"# worst lambda={cert.worst.lam:.17g} "
                         f"x0={cert.worst.x0:.17g} x1={cert.worst.x1:.17g} "
                         f"gap={cert.worst.gap:.17g} "
                         f"noise_floor={cert.noise_floor:.17g}")
            print(f"{F.label}: significant violation at t={t_first:g} "
                  f"(gap {cert.worst.gap:.3g}, noise {cert.noise_floor:.3g})")
        else:
            lines.append("# no stable significant violation found")
            print(f"{F.label}: no stable significant violation found")
        fname = f"hunt_{_slug(F.label)}.csv"
        _write(cfg.out_dir, fname, "\n".join(lines) + "\n")
        summary[F.label] = t_first
        scans[F.label] = [_scan_record(rec["certificate"], t=rec["t"], level=rec["level"])
                          for rec in history]
    _write_meta(cfg, "hunt", "hunt_meta.json",
                {"earliest_significant_t": summary, "scans": scans})
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------


_COMMANDS = {
    "classify": (cmd_classify, "classify configured transforms"),
    "evolve": (cmd_evolve, "evolve the configured datum over the schedule"),
    "verify": (cmd_verify, "certify F-convexity of the evolved datum"),
    "hunt": (cmd_hunt, "search the schedule for a stable violation"),
}


@functools.cache
def build_parser():
    """The CLI's parser, built once per process and shared by every entry()
    call: parse_args leaves it unchanged, and each build leaves a few
    hundred argparse objects in reference cycles that only the cyclic
    garbage collector frees, whose full passes then pause later work."""
    parser = argparse.ArgumentParser(
        prog="heatconvex",
        description="Heat-flow convexity experiments driven by config files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, help="key=value config file")
        s.add_argument("--out", help="output directory (overrides config)")
        s.add_argument("--grid-h", type=float, help="grid spacing override")
        s.add_argument("--grid-extent",
                       help="window override, written lo,hi "
                            "(use --grid-extent=-8,8 for negative lo)")
        s.add_argument("--times", help="comma-separated time schedule override")
        s.set_defaults(fn=fn)
    return parser


def entry(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {
        "out": args.out,
        "grid.h": args.grid_h,
        "flow.times": args.times,
    }
    if args.grid_extent is not None:
        parts = re.split(r"[,:]", args.grid_extent)
        if len(parts) != 2:
            print("config error: --grid-extent expects lo,hi", file=sys.stderr)
            return EXIT_CONFIG
        try:
            overrides["grid.lo"], overrides["grid.hi"] = (float(p) for p in parts)
        except ValueError:
            print("config error: --grid-extent expects numbers", file=sys.stderr)
            return EXIT_CONFIG
    try:
        cfg = load_config(args.config, overrides)
        return args.fn(cfg)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExistenceWindowError, EvaluationWindowError) as exc:
        print(f"window error: {exc}", file=sys.stderr)
        return EXIT_WINDOW


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
