"""Command-line harness: simulate, train, evaluate, sweeps, heat maps.

Every command writes a ``manifest.json`` holding the canonical command line
of its resolved options, a content hash of the scenario and the sha256 of
each other file the command line names; ``replay MANIFEST --out DIR`` parses
that command line again and reproduces the CSV outputs byte for byte.

``main`` runs every command in one sequence: parse the command line
(argparse makes every refusal of one); load the scenario, or replay a
manifest, which loads it; run the command (which checks its inputs before it
creates ``--out``); write the manifest. Outputs are plain CSV and SVG only. The
trace CSV is written here (``trace_to_csv_rows``), and ``heatmap`` reads back
only that layout, for the same scenario. ``simulate`` writes each trace as its
episode ends: one that raises leaves the earlier traces and no ``summary.csv``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
from numpy.lib.introspect import opt_func_info

from . import __version__
from .engine import EpisodeTrace, run_episode
from .heatmap import heatmap_svg
from .network import ConfigError
from .policies import CheckpointError, make_controller, save_checkpoint
from .ppo import LEARNING_CURVE_HEADER, TrainConfig, evaluate_policy, train
from .scenario import Scenario, load_scenario, read_document, scenario_to_dict

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "headwayctl-manifest"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3

# Time steps of a trace formatted at once when writing its CSV rows.
_CSV_BLOCK_STEPS = 25


def write_csv(path: FsPath, header, rows) -> None:
    """Write the header and the rows, one cell per header column, each cell
    as ``str`` gives it (``%s`` formats a cell as ``str`` does).

    Every cell is a number or a label with no comma, quote or line break, so
    no cell needs quoting and the bytes are those ``csv.writer`` writes:
    cells joined by commas, each row ended by a carriage return and a newline.
    """
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(line % tuple(header))
        fh.writelines(line % tuple(row) for row in rows)


def _repr_each(values: np.ndarray) -> Iterator[str]:
    """``repr`` of each float, computed once per distinct bit pattern, so
    0.0 and -0.0 stay apart. Autonomy fractions, latencies and headways
    repeat a few values across links and steps."""
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(float).tolist()))
    return map(text.__getitem__, at.tolist())


def trace_to_csv_rows(trace: EpisodeTrace, scenario: Scenario) -> Iterator[tuple]:
    """Flatten a trace of ``scenario`` to one row per (t, link), schema-stable.

    ``t_s`` and ``density`` are derived as the step derives them: the step
    index times ``dt_s``, and each count over its link's length. Rows come as
    tuples of cell text, ``_CSV_BLOCK_STEPS`` time steps at a time, so memory
    stays bounded. Each column of a block is formatted in one pass: floats
    with ``repr`` and the integer ``congested`` column with ``str``, the text
    ``csv.writer`` gives the same values. A time is formatted once per step,
    the link ids once, and each repeating column once per distinct value.
    """
    T, L = trace.count.shape
    dt, length = scenario.sim.dt_s, scenario.network.length_m
    link_ids = list(map(str, range(L))) * _CSV_BLOCK_STEPS
    for start in range(0, T, _CSV_BLOCK_STEPS):
        stop = min(start + _CSV_BLOCK_STEPS, T)
        block = slice(start, stop)
        times = [t for t in map(repr, (np.arange(start, stop) * dt).tolist()) for _ in range(L)]
        density = (trace.count[block] / length).ravel()
        count, autonomy, congested, flow, latency, beta = (
            a[block].ravel() for a in (trace.count, trace.autonomy, trace.congested,
                                       trace.flow_vps, trace.latency_s, trace.beta_a_m))
        yield from zip(times, link_ids, map(repr, count.tolist()), map(repr, density.tolist()),
                       _repr_each(autonomy), map(str, congested.tolist()),
                       map(repr, flow.tolist()), _repr_each(latency), _repr_each(beta))


TRACE_CSV_HEADER = [
    "t_s", "link_id", "count", "density", "autonomy_fraction",
    "s_l", "flow_vps", "latency_s", "beta_a_m",
]


def _read_trace(path: str, scenario: Scenario) -> np.ndarray:
    """The (step, link, column) cells of the trace CSV ``simulate`` writes for
    ``scenario``: ``TRACE_CSV_HEADER``, then for each step k the links in id
    order at ``t_s`` = the engine's ``k * dt_s`` (``repr`` round-trips it),
    every cell finite. Any other file raises ``ConfigError``."""
    sim, n_links = scenario.sim, scenario.network.n_links
    try:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        cells = np.array(rows, dtype=float).reshape(sim.n_steps, n_links, len(header))
    except (OSError, UnicodeDecodeError, csv.Error, ValueError) as exc:
        raise ConfigError(f"cannot read trace {path} as {sim.n_steps} steps of "
                          f"{n_links} links: {exc}") from None
    # Columns 0 and 1 are t_s and link_id once the header is the trace's.
    if not (header == TRACE_CSV_HEADER and np.isfinite(cells).all()
            and (cells[:, :, 1] == np.arange(n_links)).all()
            and (cells[:, :, 0] == np.arange(sim.n_steps)[:, None] * sim.dt_s).all()):
        raise ConfigError(f"trace {path} is not simulate's for this scenario: its header, links "
                          f"0..{n_links - 1} in order at t_s = step * {sim.dt_s}, cells finite")
    return cells


def _scenario_sha256(scenario: Scenario) -> str:
    canon = json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


def _argv(options: dict) -> list[str]:
    """The canonical command line of parsed options: the command, then every
    option but ``--out`` as ``--flag=value``, in parser order."""
    argv = [options["command"]]
    for dest, value in options.items():
        if dest not in ("command", "out"):
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flag = "seed" if dest == "seeds" else dest.replace("_", "-")
            argv.append(f"--{flag}={text}")
    return argv


def _input_sha256(options: dict) -> dict[str, str]:
    """sha256 of each file other than the scenario that the options name: a
    ``policy:<path>`` controller and heatmap's ``--trace``."""
    controller, trace = options.get("controller", ""), options.get("trace")
    paths = [controller.split(":", 1)[1]] if controller.startswith("policy:") else []
    paths += [trace] if trace is not None else []
    digests = {}
    for path in paths:
        try:
            digests[path] = hashlib.sha256(FsPath(path).read_bytes()).hexdigest()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
    return digests


def _write_manifest(options: dict, scenario: Scenario) -> None:
    """Replay reads ``argv``, ``scenario_sha256`` and ``input_sha256``;
    ``provenance`` only records what wrote the manifest, numpy's kernel choice too."""
    kernel = opt_func_info(func_name="exp", signature="float64")["exp"]["dd"]["current"]
    doc = {
        "format": MANIFEST_FORMAT,
        "argv": _argv(options),
        "scenario_sha256": _scenario_sha256(scenario),
        "input_sha256": _input_sha256(options),
        "provenance": {
            "headwayctl": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "numpy_exp_float64": kernel, "platform": platform.platform(),
            "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **{name: os.environ[name] for name in ("NPY_DISABLE_CPU_FEATURES",
                                                   "OPENBLAS_CORETYPE") if name in os.environ},
        },
    }
    path = FsPath(options["out"]) / MANIFEST_NAME
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _out_dir(options: dict) -> FsPath:
    out = FsPath(options["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def _train_config(options: dict) -> TrainConfig:
    return TrainConfig(total_steps=options["budget"], seed=options["seeds"][0],
                       n_steps=options["n_steps"], n_envs=options["n_envs"])


def _controller_ttts(scenario: Scenario, controller, seeds) -> list[float]:
    return [run_episode(scenario, controller, s).ttt for s in seeds]


def _policy_column(scenario: Scenario, options: dict):
    """Per-seed TTTs of a sweep's policy column, as a function of the swept
    scenario: a policy trained for ``--budget`` decision steps if the budget is
    positive, else ``--controller``. The training options and the controller
    are checked here, before any run."""
    config = _train_config(options)
    controller = make_controller(options["controller"], scenario.network)
    seeds = options["seeds"]
    if options["budget"] > 0:
        return lambda sc: evaluate_policy(sc, train(sc, config)[0], seeds)
    return lambda sc: _controller_ttts(sc, controller, seeds)


# ----------------------------------------------------------------------
# commands

def cmd_simulate(options: dict, scenario: Scenario) -> None:
    """simulate and evaluate: one episode per seed; only simulate writes traces."""
    controller = make_controller(options["controller"], scenario.network)
    seeds = options["seeds"]
    out = _out_dir(options)

    rows = []
    for seed in seeds:
        trace = run_episode(scenario, controller, seed)
        if options["command"] == "simulate":
            write_csv(out / f"trace_seed{seed}.csv", TRACE_CSV_HEADER,
                      trace_to_csv_rows(trace, scenario))
        rows.append([seed, trace.ttt, trace.total_exited])
        del trace  # before the next episode allocates its own
    _, ttts, exits = zip(*rows)
    rows += [["mean", float(np.mean(ttts)), float(np.mean(exits))],
             ["std", float(np.std(ttts)), float(np.std(exits))]]
    write_csv(out / "summary.csv", ["seed", "ttt", "total_exited"], rows)
    print(f"{options['controller']}: mean TTT {np.mean(ttts):.1f} over {len(seeds)} seed(s)")


def cmd_train(options: dict, scenario: Scenario) -> None:
    config = _train_config(options)
    out = _out_dir(options)
    if options["budget"] == 0:
        print("warning: --budget 0, writing an untrained checkpoint", file=sys.stderr)
    params, curve = train(scenario, config)
    save_checkpoint(params, out / "checkpoint.json")
    write_csv(out / "learning_curve.csv", LEARNING_CURVE_HEADER,
              [[row[k] for k in LEARNING_CURVE_HEADER] for row in curve])
    if curve:
        print(f"trained {options['budget']} decision steps; "
              f"best eval TTT {curve[-1]['best_eval_ttt']:.1f}")


def cmd_sweep_mu(options: dict, scenario: Scenario) -> None:
    mus = options["mu"]
    swept = [replace(scenario, sim=replace(scenario.sim, mu_h=mu, mu_a=mu)) for mu in mus]
    policy_ttts = _policy_column(scenario, options)
    out = _out_dir(options)

    rows = []
    for mu, sc in zip(mus, swept):
        ttts = policy_ttts(sc)
        rows.append([mu, float(np.mean(ttts)), float(np.std(ttts)), len(ttts)])
    write_csv(out / "sweep_mu.csv", ["mu", "mean_ttt", "std_ttt", "n_seeds"], rows)


def cmd_sweep_alpha(options: dict, scenario: Scenario) -> None:
    alphas = options["alpha"]
    swept = [replace(scenario, demand=replace(scenario.demand, autonomy_fraction=alpha))
             for alpha in alphas]
    policy_ttts = _policy_column(scenario, options)
    uniform, minimum = (make_controller(name, scenario.network) for name in ("uniform", "min"))
    seeds = options["seeds"]
    out = _out_dir(options)

    rows = []
    for alpha, sc in zip(alphas, swept):
        row = [alpha]
        for ttts in (policy_ttts(sc), _controller_ttts(sc, uniform, seeds),
                     _controller_ttts(sc, minimum, seeds)):
            row.extend([float(np.mean(ttts)), float(np.std(ttts))])
        rows.append(row)
    write_csv(out / "sweep_alpha.csv",
              ["alpha", "policy_mean_ttt", "policy_std_ttt",
               "uniform_mean_ttt", "uniform_std_ttt", "min_mean_ttt", "min_std_ttt"],
              rows)


def cmd_heatmap(options: dict, scenario: Scenario) -> None:
    density = _read_trace(options["trace"], scenario)[:, :, TRACE_CSV_HEADER.index("density")]
    svg = heatmap_svg((density / scenario.network.jam_density).T, scenario.sim.dt_s)
    (_out_dir(options) / "heatmap.svg").write_text(svg)


# ----------------------------------------------------------------------
# argument plumbing

def _int_list(text: str) -> list[int]:
    """Comma-separated seeds for ``--seed``: at least one, none negative or repeated."""
    seeds = [int(x) for x in text.split(",") if x.strip()]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct non-negative seeds, got {text!r}")
    return seeds


def _float_list(text: str) -> list[float]:
    """Comma-separated values for ``--mu`` and ``--alpha``: at least one."""
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


_DISPATCH = {
    "simulate": cmd_simulate,
    "evaluate": cmd_simulate,
    "train": cmd_train,
    "sweep-mu": cmd_sweep_mu,
    "sweep-alpha": cmd_sweep_alpha,
    "heatmap": cmd_heatmap,
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each taking only the flags its command
    reads, and ``replay``, which takes only a manifest and ``--out``."""
    parser = argparse.ArgumentParser(
        prog="headwayctl",
        description="Mixed-autonomy traffic simulation with dynamic headway control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, allow_abbrev=False) for name in [*_DISPATCH, "replay"]}

    def add(names, *flags, **kwargs):
        for name in names.split():
            commands[name].add_argument(*flags, **kwargs)

    runs = " ".join(_DISPATCH)
    add(runs, "--scenario", default="braess5",
        help="built-in name (braess5, braess8) or scenario JSON path")
    add(f"{runs} replay", "--out", required=True, help="output directory")
    add("replay", "manifest", help="manifest.json of the run to re-run")
    add("simulate evaluate train sweep-mu sweep-alpha", "--seed", type=_int_list, default=[0],
        dest="seeds", help="comma-separated seed list (train and sweeps train on the first)")
    add("simulate evaluate sweep-mu sweep-alpha", "--controller", default="uniform",
        help="uniform | min | policy:<checkpoint.json>")
    add("train sweep-mu sweep-alpha", "--budget", type=int, default=0,
        help="training decision-step budget")
    add("train sweep-mu sweep-alpha", "--n-steps", type=int, default=2048, dest="n_steps",
        help="decision steps per PPO update")
    add("train sweep-mu sweep-alpha", "--n-envs", type=int, default=8, dest="n_envs",
        help="environments stepped per rollout")
    add("sweep-mu", "--mu", type=_float_list, required=True, help="comma-separated mu values")
    add("sweep-alpha", "--alpha", type=_float_list, required=True,
        help="comma-separated alphas")
    add("heatmap", "--trace", required=True, help="trace CSV written by simulate")
    return parser


def _replay(parser: argparse.ArgumentParser, manifest: str, out: str) -> tuple[dict, Scenario]:
    """The options and the scenario of a manifest's stored command line, run
    into ``out``. The line must be a run command's (not ``replay``'s) that
    parses back to itself, so a replay meets every check the command line
    makes and no option takes a default the run did not; and the scenario and
    every other file the line names must still hash as recorded."""
    doc = read_document(manifest, "run manifest", ConfigError, MANIFEST_FORMAT)
    stored = doc.get("argv")
    if not (isinstance(stored, list) and stored and all(isinstance(a, str) for a in stored)
            and stored[0] in _DISPATCH):
        raise ConfigError(f"manifest {manifest} has no argv, a list of strings that starts "
                          f"with a command of {', '.join(_DISPATCH)}; manifests written "
                          f"before argv was stored cannot replay")
    try:
        options = vars(parser.parse_args([*stored, f"--out={out}"]))
    except SystemExit:  # argparse has printed why
        raise ConfigError(f"manifest argv is not a valid {stored[0]} command line") from None
    if _argv(options) != stored:
        raise ConfigError(f"manifest argv is not canonical; it would run "
                          f"{' '.join(_argv(options))}")
    scenario = load_scenario(options["scenario"])
    sha256 = _scenario_sha256(scenario)
    if sha256 != doc.get("scenario_sha256"):
        raise ConfigError(f"scenario {options['scenario']} has changed since the manifest was "
                          f"written (sha256 {sha256} != {doc.get('scenario_sha256')}); "
                          f"replay would not reproduce the run")
    recorded = doc.get("input_sha256")
    if not isinstance(recorded, dict):
        raise ConfigError(f"manifest {manifest} has no input_sha256 record; manifests written "
                          f"before the files a run reads were hashed cannot replay")
    digests = _input_sha256(options)
    changed = sorted(p for p in digests.keys() | recorded.keys()
                     if digests.get(p) != recorded.get(p))
    if changed:
        raise ConfigError(f"{', '.join(changed)} changed since the manifest was "
                          f"written; replay would not reproduce the run")
    return options, scenario


def main(argv=None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    try:
        if options["command"] == "replay":
            options, scenario = _replay(parser, options["manifest"], options["out"])
        else:
            scenario = load_scenario(options["scenario"])
        _DISPATCH[options["command"]](options, scenario)
        _write_manifest(options, scenario)
        return EXIT_OK
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
