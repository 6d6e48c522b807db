"""Command-line harness: simulate, train, evaluate, sweeps, heat maps.

Every command writes a ``manifest.json`` capturing its resolved options and
a content hash of the scenario; re-running with ``--from-manifest`` (plus a
fresh ``--out``) reproduces the CSV outputs byte for byte.

Outputs are plain CSV and SVG only. Episodes run one after another, in
seed order.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np

from .engine import TRACE_CSV_HEADER, run_episode, trace_to_csv_rows
from .heatmap import write_heatmap
from .network import ConfigError
from .policies import CheckpointError, make_controller, save_checkpoint
from .ppo import LEARNING_CURVE_HEADER, TrainConfig, evaluate_policy, train
from .scenario import Scenario, load_scenario, scenario_to_dict

MANIFEST_NAME = "manifest.json"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3


def write_csv(path: FsPath, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _scenario_sha256(scenario: Scenario) -> str:
    canon = json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


def _write_manifest(out_dir: FsPath, command: str, options: dict, scenario: Scenario) -> None:
    doc = {
        "format": "headwayctl-manifest",
        "command": command,
        "options": options,
        "scenario_sha256": _scenario_sha256(scenario),
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_manifest(path: str) -> tuple[str, dict, str | None]:
    try:
        doc = json.loads(FsPath(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read manifest {path}: {exc}") from None
    if not (isinstance(doc, dict) and doc.get("format") == "headwayctl-manifest"
            and isinstance(doc.get("command"), str) and isinstance(doc.get("options"), dict)):
        raise ConfigError(f"not a run manifest: {path}")
    return doc["command"], doc["options"], doc.get("scenario_sha256")


def _check_replay_scenario(options: dict, stored_sha256: str | None) -> None:
    """Refuse to replay when the scenario no longer hashes as recorded."""
    if stored_sha256 is None:
        raise ConfigError("manifest has no scenario_sha256; cannot verify the replay")
    current = _scenario_sha256(load_scenario(options["scenario"]))
    if current != stored_sha256:
        raise ConfigError(
            f"scenario {options['scenario']} has changed since the manifest was written "
            f"(sha256 {current} != {stored_sha256}); replay would not reproduce the run"
        )


def _summary_rows(seeds, ttts, exits):
    rows = [[s, t, e] for s, t, e in zip(seeds, ttts, exits)]
    rows.append(["mean", float(np.mean(ttts)), float(np.mean(exits))])
    rows.append(["std", float(np.std(ttts)), float(np.std(exits))])
    return rows


def _with_mu(scenario: Scenario, mu: float) -> Scenario:
    return replace(scenario, sim=replace(scenario.sim, mu_h=mu, mu_a=mu))


def _with_alpha(scenario: Scenario, alpha: float) -> Scenario:
    return replace(scenario, demand=replace(scenario.demand, autonomy_fraction=alpha))


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

def cmd_simulate(options: dict) -> int:
    """simulate and evaluate: one episode per seed; only simulate writes traces."""
    scenario = load_scenario(options["scenario"])
    controller = make_controller(options["controller"], scenario.network)
    seeds = options["seeds"]
    out = _out_dir(options)

    traces = [run_episode(scenario, controller, s) for s in seeds]
    if options["command"] == "simulate":
        for seed, trace in zip(seeds, traces):
            write_csv(out / f"trace_seed{seed}.csv", TRACE_CSV_HEADER, trace_to_csv_rows(trace))
    ttts = [t.ttt for t in traces]
    exits = [t.total_exited for t in traces]
    write_csv(out / "summary.csv", ["seed", "ttt", "total_exited"],
              _summary_rows(seeds, ttts, exits))
    _write_manifest(out, options["command"], options, scenario)
    print(f"{options['controller']}: mean TTT {np.mean(ttts):.1f} over {len(seeds)} seed(s)")
    return EXIT_OK


def cmd_train(options: dict) -> int:
    scenario = load_scenario(options["scenario"])
    config = _train_config(options)
    out = _out_dir(options)
    if options["budget"] == 0:
        print("warning: --budget 0, writing an untrained checkpoint", file=sys.stderr)
    params, curve = train(scenario, config)
    save_checkpoint(params, out / "checkpoint.json")
    write_csv(out / "learning_curve.csv", LEARNING_CURVE_HEADER,
              [[row[k] for k in LEARNING_CURVE_HEADER] for row in curve])
    _write_manifest(out, "train", options, scenario)
    if curve:
        print(f"trained {options['budget']} decision steps; "
              f"best eval TTT {curve[-1]['best_eval_ttt']:.1f}")
    return EXIT_OK


def cmd_sweep_mu(options: dict) -> int:
    mus = options["mu"]
    if not mus:
        raise ConfigError("empty mu list")
    scenario = load_scenario(options["scenario"])
    swept = [_with_mu(scenario, mu) for mu in mus]
    policy_ttts = _policy_column(scenario, options)
    out = _out_dir(options)

    rows = []
    for mu, sc in zip(mus, swept):
        ttts = policy_ttts(sc)
        rows.append([mu, float(np.mean(ttts)), float(np.std(ttts)), len(ttts)])
    write_csv(out / "sweep_mu.csv", ["mu", "mean_ttt", "std_ttt", "n_seeds"], rows)
    _write_manifest(out, "sweep-mu", options, scenario)
    return EXIT_OK


def cmd_sweep_alpha(options: dict) -> int:
    alphas = options["alpha"]
    if not alphas:
        raise ConfigError("empty alpha list")
    scenario = load_scenario(options["scenario"])
    swept = [_with_alpha(scenario, alpha) for alpha in alphas]
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
    _write_manifest(out, "sweep-alpha", options, scenario)
    return EXIT_OK


def cmd_heatmap(options: dict) -> int:
    scenario = load_scenario(options["scenario"])
    if options["trace"] is None:
        raise ConfigError("heatmap needs --trace")
    trace_path = FsPath(options["trace"])
    try:
        with open(trace_path, newline="") as fh:
            records = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read trace {trace_path}: {exc}") from None
    if not records:
        raise ConfigError("empty trace")
    try:
        t_s = np.array([float(r["t_s"]) for r in records])
        links = np.array([int(r["link_id"]) for r in records])
        density = np.array([float(r["density"]) for r in records])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"trace {trace_path}: missing or non-numeric column ({exc})") from None
    if not (np.isfinite(t_s).all() and np.isfinite(density).all()):
        raise ConfigError(f"trace {trace_path}: non-finite time or density")
    n_links = scenario.network.n_links
    if links.min() < 0 or links.max() >= n_links:
        raise ConfigError(f"trace {trace_path} has link ids outside the scenario's "
                          f"{n_links} links")
    times, column = np.unique(t_s, return_inverse=True)
    grid = np.zeros((n_links, len(times)))
    grid[links, column] = density / scenario.network.jam_density[links]
    out = _out_dir(options)
    write_heatmap(grid, scenario.sim.dt_s, out / "heatmap.svg")
    _write_manifest(out, "heatmap", options, scenario)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument plumbing

def _int_list(text: str) -> list[int]:
    """Comma-separated seeds for ``--seed``: at least one, none negative or repeated."""
    seeds = [int(x) for x in text.split(",") if x.strip()]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct non-negative seeds, got {text!r}")
    return seeds


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


_DISPATCH = {
    "simulate": cmd_simulate,
    "evaluate": cmd_simulate,
    "train": cmd_train,
    "sweep-mu": cmd_sweep_mu,
    "sweep-alpha": cmd_sweep_alpha,
    "heatmap": cmd_heatmap,
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each taking only the flags its command reads."""
    parser = argparse.ArgumentParser(
        prog="headwayctl",
        description="Mixed-autonomy traffic simulation with dynamic headway control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, allow_abbrev=False) for name in _DISPATCH}

    def add(names, *flags, **kwargs):
        for name in names.split():
            commands[name].add_argument(*flags, **kwargs)

    every = " ".join(commands)
    add(every, "--scenario", default="braess5",
        help="built-in name (braess5, braess8) or scenario JSON path")
    add(every, "--out", required=True, help="output directory")
    add(every, "--from-manifest", default=None, dest="from_manifest",
        help="re-run with the options stored in a manifest")
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
    add("sweep-mu", "--mu", type=_float_list, default=[], help="comma-separated mu values")
    add("sweep-alpha", "--alpha", type=_float_list, default=[], help="comma-separated alphas")
    add("heatmap", "--trace", default=None, help="trace CSV written by simulate")
    return parser


def _replay_options(parser: argparse.ArgumentParser, command: str, stored: dict,
                    out: str) -> dict:
    """Pass a manifest's stored options back through the command's own flags,
    so that a replay meets every check the command line makes. Each option the
    command takes must be stored, as the value its flag would parse to."""
    stored = {**stored, "out": out}
    argv = [command]
    try:
        for dest in vars(parser.parse_args([command, f"--out={out}"])):
            if dest in ("command", "from_manifest"):
                continue
            if dest not in stored:
                raise ConfigError(f"manifest stores no {dest!r} option")
            value = stored[dest]
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flag = "seed" if dest == "seeds" else dest.replace("_", "-")
            argv.append(f"--{flag}={text}")
        options = vars(parser.parse_args(argv))
    except SystemExit:  # argparse has printed why
        raise ConfigError(f"manifest options are not valid {command} flags") from None
    del options["from_manifest"]
    for dest, value in options.items():
        if dest != "command" and value != stored[dest]:
            raise ConfigError(f"manifest option {dest} = {stored[dest]!r} is not a "
                              f"value its flag gives")
    return options


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    manifest = options.pop("from_manifest")
    try:
        if manifest:
            # A replay runs the stored options; refuse what it would drop.
            # Subcommands take no abbreviated flags, so each given flag
            # appears in argv under its full name.
            stray = [arg for arg in argv if arg.startswith("--")
                     and arg.split("=")[0] not in ("--out", "--from-manifest")]
            if stray:
                raise ConfigError(f"--from-manifest runs the stored options; "
                                  f"drop {' '.join(stray)}")
            command, stored, stored_sha256 = _load_manifest(manifest)
            if command != options["command"]:
                raise ConfigError(f"manifest records a {command!r} run, "
                                  f"not {options['command']!r}")
            options = _replay_options(parser, command, stored, options["out"])
            _check_replay_scenario(options, stored_sha256)
        return _DISPATCH[options["command"]](options)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
