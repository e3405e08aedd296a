"""Command-line front end.

Subcommands: evolve (time series of one quench), sweep (phase-diagram
heatmaps with threshold and efficiency), threshold-curve (B_c versus
alpha or h), fit (Gaussian / tri-Gaussian fits of a curve CSV), and
oracle (dense cross-validation at small N).

SETTINGS declares each subcommand's keys and their defaults once; the
config-file reader, the resolver and the argument parser read it.
Configuration comes from an optional `key = value` file plus command
line flags; flags win.  Unknown keys and malformed lines are rejected
with their line number.  _parse is the one step from setting text to
value, for file values and flags alike (argparse hands flags over as
text).

A command (cmd_*) takes the resolved config and returns its results
and the files to write, {name: (writer, *data)}.  run_command, the one
run frame, calls it and only then makes the output directory, writes
each file and a manifest.json carrying the resolved config, checksums
of each artifact and the (volatile) wall-clock duration.  So a refused
run writes no file.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract
violation (undefined threshold, non-positive state; also a failed
oracle report, which is still written), 4 resource cap, 1 unexpected
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .bell import chsh_arrays, xstate_log_negativity
from .dynamics import TimeGrid, correlator_arrays
from .errors import (BellquenchError, ConfigError, InconsistentCorrelatorsError,
                     ResourceCapError, ThresholdUndefinedError)
from .fit import fit_gaussian, fit_trigaussian
from .model import (QUENCHED, ModelParams, QuenchKind, field_quench,
                    make_quench, same_phase_area)
from .output import sha256_file, write_csv, write_json, write_matrix_csv
from .sweep import (KIND_DEFAULTS, GridSpec, Quantifier, check_policy,
                    critical_threshold, cross_cell_count, efficiency,
                    sweep_all, threshold_curve)
from . import oracle as oracle_mod
from . import dynamics, momentum

SCHEMA_VERSION = 1
OUT_ENV = "BELLQUENCH_OUT"


# key -> python type; "floats"/"strs" are comma-separated lists
_KEY_TYPES = {
    "n": int, "j": float, "gamma": float, "alpha": float, "h": float,
    "kind": str, "q_initial": float, "q_final": float,
    "t_max": float, "dt": float,
    "q_min": float, "q_max": float, "step": float,
    "quantifiers": "strs", "boundary": str, "cross_lines": str,
    "points": "floats", "curve": str, "model": str,
    "t": float, "h_initial": float, "h_final": float,
    "seed": int, "out": str,
}


def _parse(key, raw, where=""):
    """The value of setting `key` written as `raw`, from a config-file
    line or a flag alike.  A list skips empty items and needs one."""
    kind = _KEY_TYPES[key]
    try:
        if kind not in ("floats", "strs"):
            return kind(raw)
        items = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if items:
            return [float(tok) for tok in items] if kind == "floats" else items
    except ValueError:
        pass
    raise ConfigError(f"invalid value for {key!r}: {raw!r}{where}")


# command -> {key: default}: the keys each command accepts.  None leaves
# a key unset: a required one is checked by _require, and the grid and
# threshold keys take the quench kind's defaults in _resolve_quench.
SETTINGS = {
    "evolve": {"n": 512, "j": 1.0, "gamma": None, "kind": "field",
               "alpha": None, "h": None, "q_initial": None, "q_final": None,
               "t_max": 400.0, "dt": 0.1, "out": None},
    "sweep": {"n": 512, "j": 1.0, "gamma": None, "kind": "field",
              "alpha": None, "h": None, "q_min": None, "q_max": None,
              "step": None, "quantifiers": ("bell",), "boundary": None,
              "cross_lines": None, "out": None},
    "threshold-curve": {"n": 512, "j": 1.0, "gamma": None, "kind": "field",
                        "points": None, "q_min": None, "q_max": None,
                        "step": None, "boundary": None, "cross_lines": None,
                        "out": None},
    "fit": {"curve": None, "model": "gaussian", "seed": 0, "out": None},
    "oracle": {"n": 8, "j": 1.0, "gamma": 1.0, "alpha": 10.0,
               "h_initial": 0.5, "h_final": 2.5, "t": 1.3, "out": None},
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
        if key not in SETTINGS[command]:
            raise ConfigError(f"unknown key {key!r} for {command} (line {lineno})")
        values[key] = _parse(key, raw, f" (line {lineno})")
    return values


def resolve_config(args, command):
    """The command's SETTINGS defaults under the config file's values
    under the flags; flags win.

    Values left at None are optional-until-dispatch; each command
    checks its own requirements with _require after kind-specific
    defaults are applied.
    """
    config = dict(SETTINGS[command])
    if getattr(args, "config", None):
        config.update(read_config_file(args.config, command))
    for key in SETTINGS[command]:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = _parse(key, flag)
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


def _base_params(config, kind, what):
    """ModelParams of config for a `what` ("quench", "sweep") of `kind`.

    The kind's held parameter is required; the quenched one, which the
    quench or grid replaces, is dropped from config and taken as 1
    (alpha) or 0 (h).
    """
    held = KIND_DEFAULTS[kind].fixed
    if config.get(held) is None:
        raise ConfigError(f"{kind.value} {what} needs {held}")
    config.pop(QUENCHED[kind], None)
    return ModelParams(N=config["n"], J=config["j"], gamma=config["gamma"],
                       **{"alpha": 1.0, "h": 0.0, held: config[held]})


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


def run_command(args) -> int:
    """Resolve, compute, then write; exit code 3 when the results
    report a failed check ("pass" false).  Each writer takes the file's
    path first."""
    started = time.time()
    config = resolve_config(args, args.command)
    out_dir = config["out"]
    existing = os.path.abspath(out_dir)  # where os.makedirs will start
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not out_dir or not os.path.isdir(existing):
        raise ConfigError(f"out must name a directory, got {out_dir!r}")
    results, files = args.handler(config)
    os.makedirs(out_dir, exist_ok=True)
    for name, (writer, *data) in files.items():
        writer(os.path.join(out_dir, name), *data)
    _write_manifest(out_dir, args.command, config, results, files, started)
    return 3 if results.get("pass") is False else 0


def cmd_evolve(config):
    _require(config, "gamma", "q_initial", "q_final")
    kind = _quench_kind(config["kind"])
    quench = make_quench(kind, _base_params(config, kind, "quench"),
                         config["q_initial"], config["q_final"])
    times, mz, cxx, cyy, czz, cxy = correlator_arrays(
        quench, TimeGrid(t_max=config["t_max"], dt=config["dt"]))
    bell = chsh_arrays(cxx, cyy, czz, cxy, cxy)[3]
    logneg = xstate_log_negativity(mz, cxx, cyy, czz, cxy)
    columns = np.column_stack([times, mz, cxx, cyy, czz, cxy, cxy, bell, logneg])
    return {"samples": times.size}, {"timeseries.csv": (
        write_csv, ["t", "mz", "cxx", "cyy", "czz", "cxy", "cyx", "bell",
                    "logneg"], columns)}


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


def cmd_sweep(config):
    _require(config, "gamma")
    kind, grid = _resolve_quench(config)
    fixed = _base_params(config, kind, "sweep")
    boundary, lines = config["boundary"], config["cross_lines"]
    try:
        quantifiers = [Quantifier(q) for q in config["quantifiers"]]
    except ValueError as exc:
        raise ConfigError(f"unknown quantifier: {exc}") from None
    # what the memory cap (exit 4), the efficiency (h outside the
    # coupling window: exit 2, as threshold-curve) and the threshold (no
    # cross cells: exit 3) would refuse stops the run before any map
    momentum.check_footprint(fixed.N, grid.count, grid.count ** 2)
    same_phase_area(kind, getattr(fixed, KIND_DEFAULTS[kind].fixed))
    cross_cell_count(kind, fixed, grid, boundary, lines)

    diagrams = sweep_all(kind, fixed, grid)
    qs = grid.values()
    files = {"same_phase_mask.csv": (write_matrix_csv,
                                     diagrams[Quantifier.BELL].same_phase_mask, qs),
             "axes.csv": (write_csv, ["index", "value"],
                          np.column_stack([np.arange(qs.size), qs]))}
    results = {}
    for quant in quantifiers:
        diagram = diagrams[quant]
        files[f"values_{quant.value}.csv"] = (write_matrix_csv, diagram.values, qs)
        q_c = critical_threshold(diagram, boundary=boundary, cross_lines=lines)
        report = efficiency(diagram, q_c, boundary=boundary, cross_lines=lines)
        results[quant.value] = asdict(report)
    files["results.json"] = (write_json, results)
    return results, files


def cmd_threshold_curve(config):
    _require(config, "gamma", "points")
    kind, grid = _resolve_quench(config)
    curve = threshold_curve(kind, config["gamma"], config["points"], grid,
                            N=config["n"], J=config["j"],
                            boundary=config["boundary"],
                            cross_lines=config["cross_lines"])
    return {"points": len(curve)}, {"curve.csv": (
        write_csv, [KIND_DEFAULTS[kind].fixed, "b_c"], curve)}


def cmd_fit(config):
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
    name = config["model"]
    if name == "gaussian":
        fit = fit_gaussian(points, seed=config["seed"])
    elif name == "trigaussian":
        fit = fit_trigaussian(points, seed=config["seed"])
    else:
        raise ConfigError(f"model must be gaussian or trigaussian, got {name!r}")
    payload = {"model": name, **asdict(fit)}
    return payload, {"fit.json": (write_json, payload)}


def cmd_oracle(config):
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
    return report, {"report.json": (write_json, report)}


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
            p.add_argument("--" + key.replace("_", "-"), dest=key)

    handlers = {"evolve": cmd_evolve, "sweep": cmd_sweep,
                "threshold-curve": cmd_threshold_curve, "fit": cmd_fit,
                "oracle": cmd_oracle}
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        add_common(p, SETTINGS[name])
        p.set_defaults(handler=handler)
    return parser


_LIST_FLAGS = {"--" + key.replace("_", "-")
               for key, kind in _KEY_TYPES.items() if kind == "floats"}


def _join_list_values(argv):
    """Rewrite `--points -0.7,0.3` as `--points=-0.7,0.3`.

    argparse takes a token that starts with '-' for a flag unless it is
    one negative number, so a list that opens with a negative value
    would leave its flag without an argument.  Any token but a `--`
    flag is joined; _parse judges it.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in _LIST_FLAGS and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_list_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return run_command(args)
    except (ConfigError, ValueError) as exc:
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
