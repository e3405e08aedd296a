"""Command-line front end.

Subcommands: evolve (time series of one quench), sweep (phase-diagram
heatmaps with threshold and efficiency), threshold-curve (B_c versus
alpha or h), fit (Gaussian / tri-Gaussian fits of a curve CSV), and
oracle (dense cross-validation at small N).

Configuration comes from an optional `key = value` file plus command
line flags; flags win.  Unknown keys and malformed lines are rejected
with their line number.  Every run writes deterministic data artifacts
plus a manifest.json carrying the resolved config, checksums of each
artifact and the (volatile) wall-clock duration.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract
violation (undefined threshold, non-positive state), 4 resource cap,
1 unexpected failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .bell import chsh_arrays, xstate_log_negativity
from .dynamics import TimeGrid, correlator_arrays
from .errors import (BellquenchError, ConfigError, InconsistentCorrelatorsError,
                     ResourceCapError, ThresholdUndefinedError)
from .fit import fit_gaussian, fit_trigaussian
from .model import (COUPLING_H_MAX, COUPLING_H_MIN, ModelParams, QuenchKind,
                    field_quench, same_phase_area)
from .output import sha256_file, write_csv, write_json, write_matrix_csv
from .sweep import (KIND_DEFAULTS, GridSpec, Quantifier, check_policy,
                    critical_threshold, cross_cell_count, efficiency,
                    steady_cell, sweep_all, threshold_curve)
from . import oracle as oracle_mod
from . import dynamics, momentum

SCHEMA_VERSION = 1
OUT_ENV = "BELLQUENCH_OUT"


def _parse_scalar(key, raw, kind, lineno=None):
    where = f" (line {lineno})" if lineno is not None else ""
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}{where}") from None


# key -> python type; "floats"/"strs" are comma-separated lists
_KEY_TYPES = {
    "n": int, "j": float, "gamma": float, "alpha": float, "h": float,
    "kind": str, "q_initial": float, "q_final": float,
    "t_max": float, "dt": float,
    "q_min": float, "q_max": float, "step": float,
    "quantifiers": "strs", "boundary": str, "cross_lines": str,
    "absolute_czz": bool, "points": "floats",
    "curve": str, "model": str,
    "t": float, "h_initial": float, "h_final": float,
    "workers": int, "seed": int, "out": str,
}

_ALLOWED = {
    "evolve": {"n", "j", "gamma", "alpha", "h", "kind", "q_initial",
               "q_final", "t_max", "dt", "out"},
    "sweep": {"n", "j", "gamma", "alpha", "h", "kind", "q_min", "q_max",
              "step", "quantifiers", "boundary", "cross_lines",
              "absolute_czz", "workers", "out"},
    "threshold-curve": {"n", "j", "gamma", "kind", "points", "q_min",
                        "q_max", "step", "boundary", "cross_lines",
                        "workers", "out"},
    "fit": {"curve", "model", "seed", "out"},
    "oracle": {"n", "j", "gamma", "alpha", "h_initial", "h_final", "t",
               "out"},
}


def read_config_file(path, command):
    """Parse `key = value` lines; reject unknown keys with line numbers."""
    values = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"malformed config line {lineno}: {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _ALLOWED[command]:
            raise ConfigError(f"unknown key {key!r} for {command} (line {lineno})")
        kind = _KEY_TYPES[key]
        if kind == "floats":
            values[key] = [_parse_scalar(key, tok.strip(), float, lineno)
                           for tok in raw.split(",") if tok.strip()]
        elif kind == "strs":
            values[key] = [tok.strip() for tok in raw.split(",") if tok.strip()]
        else:
            values[key] = _parse_scalar(key, raw, kind, lineno)
    return values


def resolve_config(args, command, defaults):
    """Layer file values under flag values under defaults; flags win.

    Values left at None are optional-until-dispatch; each command
    checks its own requirements with _require after kind-specific
    defaults are applied.
    """
    config = dict(defaults)
    if getattr(args, "config", None):
        config.update(read_config_file(args.config, command))
    for key in _ALLOWED[command]:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            config[key] = flag
    if config.get("out") is None:
        config["out"] = os.environ.get(OUT_ENV, "out")
    return config


def _require(config, *keys):
    missing = [k for k in keys if config.get(k) is None]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(sorted(missing))}")


def _quench_kind(name):
    try:
        return QuenchKind(name)
    except ValueError:
        raise ConfigError(f"kind must be 'field' or 'coupling', got {name!r}") from None


def _base_params(config):
    """ModelParams of config; an unset alpha or h, the parameter a quench
    grid or a quench replaces, is taken as 1 or 0."""
    a = config.get("alpha")
    field = config.get("h")
    try:
        return ModelParams(N=config["n"], J=config["j"], gamma=config["gamma"],
                           alpha=1.0 if a is None else a,
                           h=0.0 if field is None else field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_manifest(out_dir, command, config, results, artifacts, started):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "bellquench", "version": __version__},
        "command": command,
        "config": {k: v for k, v in sorted(config.items()) if v is not None},
        "duration_seconds": time.time() - started,
        "checksums": {name: sha256_file(os.path.join(out_dir, name))
                      for name in sorted(artifacts)},
        "results": results,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def cmd_evolve(args):
    started = time.time()
    defaults = {"n": 512, "j": 1.0, "gamma": None, "kind": "field",
                "alpha": None, "h": None, "q_initial": None, "q_final": None,
                "t_max": 400.0, "dt": 0.1, "out": None}
    config = resolve_config(args, "evolve", defaults)
    _require(config, "gamma", "q_initial", "q_final")
    kind = _quench_kind(config["kind"])
    held = KIND_DEFAULTS[kind].fixed
    if config.get(held) is None:
        raise ConfigError(f"{kind.value} quench needs {held}")
    quench = steady_cell(kind, _base_params(config), config["q_initial"],
                         config["q_final"])
    times, mz, cxx, cyy, czz, cxy = correlator_arrays(
        quench, TimeGrid(t_max=config["t_max"], dt=config["dt"]))
    bell = chsh_arrays(cxx, cyy, czz, cxy, cxy)[3]
    logneg = xstate_log_negativity(mz, cxx, cyy, czz, cxy)
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "timeseries.csv"),
              ["t", "mz", "cxx", "cyy", "czz", "cxy", "cyx", "bell", "logneg"],
              np.column_stack([times, mz, cxx, cyy, czz, cxy, cxy, bell, logneg]))
    _write_manifest(out_dir, "evolve", config,
                    {"samples": times.size}, ["timeseries.csv"], started)
    return 0


def _resolve_quench(config):
    """Kind and grid of sweep and threshold-curve, with their policy.

    Grid and threshold settings left unset take the kind's defaults
    (sweep.KIND_DEFAULTS) and are written back into config, so the
    manifest records what ran.  A policy the kind does not define is
    refused before anything is computed.
    """
    kind = _quench_kind(config["kind"])
    defaults = KIND_DEFAULTS[kind]
    for key, value in (("q_min", defaults.grid.q_min),
                       ("q_max", defaults.grid.q_max),
                       ("step", defaults.grid.step),
                       ("boundary", defaults.boundary),
                       ("cross_lines", defaults.cross_lines)):
        if config.get(key) is None:
            config[key] = value
    grid = GridSpec(config["q_min"], config["q_max"], config["step"])
    check_policy(kind, config["boundary"], config["cross_lines"])
    return kind, grid


def cmd_sweep(args):
    started = time.time()
    defaults = {"n": 512, "j": 1.0, "gamma": None, "kind": "field",
                "alpha": None, "h": None, "q_min": None, "q_max": None,
                "step": None, "quantifiers": ["bell"], "boundary": None,
                "cross_lines": None, "absolute_czz": False, "workers": 1,
                "out": None}
    config = resolve_config(args, "sweep", defaults)
    _require(config, "gamma")
    kind, grid = _resolve_quench(config)
    held = KIND_DEFAULTS[kind].fixed
    if config.get(held) is None:
        raise ConfigError(f"{kind.value} sweep needs {held}")
    config.pop("h" if held == "alpha" else "alpha", None)
    fixed = _base_params(config)
    boundary, lines = config["boundary"], config["cross_lines"]
    if kind is QuenchKind.COUPLING and not COUPLING_H_MIN < fixed.h < COUPLING_H_MAX:
        print(f"warning: h={fixed.h} outside ({COUPLING_H_MIN}, "
              f"{COUPLING_H_MAX:.6f}); no magnetic boundary in the "
              "alpha window", file=sys.stderr)
    try:
        quantifiers = [Quantifier(q) for q in config["quantifiers"]]
    except ValueError as exc:
        raise ConfigError(f"unknown quantifier: {exc}") from None
    # what the memory cap (exit 4), the threshold (no cross cells:
    # exit 3) and the efficiency (h outside the coupling window: exit 2)
    # would refuse stops the run before any map is computed or file written
    momentum.check_footprint(fixed.N, grid.count, grid.count ** 2)
    cross_cell_count(kind, fixed, grid, boundary, lines)
    same_phase_area(kind, getattr(fixed, held))

    diagrams = sweep_all(kind, fixed, grid, workers=config["workers"])
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    qs = grid.values()
    artifacts = ["same_phase_mask.csv", "axes.csv", "results.json"]
    write_matrix_csv(os.path.join(out_dir, "same_phase_mask.csv"),
                     diagrams[Quantifier.BELL].same_phase_mask.astype(int), qs)
    write_csv(os.path.join(out_dir, "axes.csv"), ["index", "value"],
              np.column_stack([np.arange(qs.size), qs]))
    results = {}
    for quant in quantifiers:
        diagram = diagrams[quant]
        name = f"values_{quant.value}.csv"
        write_matrix_csv(os.path.join(out_dir, name), diagram.values, qs)
        artifacts.append(name)
        absolute = quant is Quantifier.CZZ and config["absolute_czz"]
        q_c = critical_threshold(diagram, boundary=boundary,
                                 cross_lines=lines, absolute=absolute)
        report = efficiency(diagram, q_c, absolute=absolute,
                            boundary=boundary, cross_lines=lines)
        results[quant.value] = {
            "q_c": q_c, "eta": report.eta,
            "area_detected": report.area_detected,
            "area_same": report.area_same,
            "n_cross_cells": report.n_cross_cells,
            "n_same_cells": report.n_same_cells,
            "n_detected_cells": report.n_detected_cells,
        }
    write_json(os.path.join(out_dir, "results.json"), results)
    _write_manifest(out_dir, "sweep", config, results, artifacts, started)
    return 0


def cmd_threshold_curve(args):
    started = time.time()
    defaults = {"n": 512, "j": 1.0, "gamma": None, "kind": "field",
                "points": None, "q_min": None, "q_max": None, "step": None,
                "boundary": None, "cross_lines": None, "workers": 1,
                "out": None}
    config = resolve_config(args, "threshold-curve", defaults)
    _require(config, "gamma", "points")
    kind, grid = _resolve_quench(config)
    curve = threshold_curve(kind, config["gamma"], config["points"], grid,
                            N=config["n"], J=config["j"],
                            workers=config["workers"],
                            boundary=config["boundary"],
                            cross_lines=config["cross_lines"])
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "curve.csv"),
              [KIND_DEFAULTS[kind].fixed, "b_c"], curve)
    _write_manifest(out_dir, "threshold-curve", config,
                    {"points": len(curve)}, ["curve.csv"], started)
    return 0


def cmd_fit(args):
    started = time.time()
    defaults = {"curve": None, "model": "gaussian", "seed": 0, "out": None}
    config = resolve_config(args, "fit", defaults)
    _require(config, "curve")
    points = []
    try:
        lines = open(config["curve"], encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read curve file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 or not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"malformed curve row at line {lineno}: {line!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(
                f"non-numeric curve row at line {lineno}: {line!r}") from None
    if config["model"] == "gaussian":
        fit = fit_gaussian(points, seed=config["seed"])
        payload = {"model": "gaussian", "A": fit.A, "B": fit.B, "C": fit.C,
                   "r_squared": fit.r_squared}
    elif config["model"] == "trigaussian":
        fit = fit_trigaussian(points, seed=config["seed"])
        payload = {"model": "trigaussian",
                   "components": [{"amplitude": c.amplitude,
                                   "center": c.center, "width": c.width}
                                  for c in fit.components],
                   "r_squared": fit.r_squared,
                   "low_confidence": fit.low_confidence}
    else:
        raise ConfigError(f"model must be gaussian or trigaussian, "
                          f"got {config['model']!r}")
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "fit.json"), payload)
    _write_manifest(out_dir, "fit", config, payload, ["fit.json"], started)
    return 0


def cmd_oracle(args):
    started = time.time()
    defaults = {"n": 8, "j": 1.0, "gamma": 1.0, "alpha": 10.0,
                "h_initial": 0.5, "h_final": 2.5, "t": 1.3, "out": None}
    config = resolve_config(args, "oracle", defaults)
    params = ModelParams(N=config["n"], J=config["j"], gamma=config["gamma"],
                         alpha=config["alpha"], h=config["h_initial"])
    spectrum_dev = oracle_mod.spectrum_match(params)
    quench = field_quench(params, config["h_initial"], config["h_final"])
    computed = dynamics.correlators_at(quench, config["t"])
    reference, rho12 = oracle_mod.oracle_quench(quench, config["t"])
    correlator_dev = max(abs(getattr(computed, k) - getattr(reference, k))
                         for k in ("mz", "cxx", "cyy", "czz", "cxy", "cyx"))
    obs = oracle_mod.pair_observables(rho12)
    xstate_dev = max(abs(obs[k]) for k in ("cxz", "czx", "cyz", "czy"))
    energy_dev = abs(oracle_mod.ground_state_even(params)[0]
                     - momentum.ground_energy(params))
    report = {
        "n": config["n"],
        "spectrum_max_dev": spectrum_dev,
        "correlator_max_dev": correlator_dev,
        "xstate_max_dev": xstate_dev,
        "ground_energy_dev": energy_dev,
        "pass": bool(spectrum_dev <= 1e-8 and correlator_dev <= 1e-6
                     and xstate_dev <= 1e-10 and energy_dev <= 1e-8),
    }
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report)
    _write_manifest(out_dir, "oracle", config, report, ["report.json"], started)
    return 0 if report["pass"] else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bellquench",
        description="Steady-state Bell-correlator detection of dynamical "
                    "phase transitions in the long-range XY chain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, keys):
        p.add_argument("--config", help="key = value configuration file")
        for key in sorted(keys):
            kind = _KEY_TYPES[key]
            flag = "--" + key.replace("_", "-")
            if kind == "floats":
                p.add_argument(flag, dest=key,
                               type=lambda s: [float(tok) for tok in s.split(",")])
            elif kind == "strs":
                p.add_argument(flag, dest=key,
                               type=lambda s: [tok.strip() for tok in s.split(",")])
            elif kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=key, type=kind)

    handlers = {"evolve": cmd_evolve, "sweep": cmd_sweep,
                "threshold-curve": cmd_threshold_curve, "fit": cmd_fit,
                "oracle": cmd_oracle}
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        add_common(p, _ALLOWED[name])
        p.set_defaults(handler=handler)
    return parser


_LIST_FLAGS = {"--" + key.replace("_", "-")
               for key, kind in _KEY_TYPES.items() if kind == "floats"}


def _is_float_list(token):
    try:
        [float(tok) for tok in token.split(",")]
    except ValueError:
        return False
    return True


def _join_list_values(argv):
    """Rewrite `--points -0.7,0.3` as `--points=-0.7,0.3`.

    argparse takes a token that starts with '-' for a flag unless it is
    one negative number, so a list that opens with a negative value
    would leave its flag without an argument.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in _LIST_FLAGS and _is_float_list(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_list_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ThresholdUndefinedError, InconsistentCorrelatorsError) as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except BellquenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
