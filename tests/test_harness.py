"""CLI commands, manifests, byte-identical replay, heatmap SVG output."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from headwayctl.harness import EXIT_CHECKPOINT, EXIT_OK, EXIT_USAGE, main
from headwayctl.policies import (
    OBS_SPEC_VERSION,
    CheckpointError,
    PolicyParams,
    load_checkpoint,
    make_controller,
    save_checkpoint,
)
from headwayctl.scenario import braess5_scenario, load_scenario, save_scenario


@pytest.fixture
def short_scenario(tmp_path):
    """Braess-5 geometry with a 30-minute horizon: fast CLI episodes."""
    sc = braess5_scenario()
    sc = replace(sc, sim=replace(sc.sim, horizon_s=1800.0))
    path = tmp_path / "short.json"
    save_scenario(sc, path)
    return str(path)


def read_bytes_of_csvs(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))}


class TestSimulate:
    def test_writes_traces_summary_manifest(self, short_scenario, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", short_scenario, "--out", str(out),
                     "--seed", "0,1"])
        assert code == EXIT_OK
        assert (out / "trace_seed0.csv").exists()
        assert (out / "trace_seed1.csv").exists()
        assert (out / "manifest.json").exists()
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,ttt,total_exited"
        assert len(lines) == 1 + 2 + 2  # header, two seeds, mean, std
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")
        for row in lines[1:3]:
            ttt = float(row.split(",")[1])
            assert np.isfinite(ttt) and ttt > 0.0

    def test_trace_row_count(self, short_scenario, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", short_scenario, "--out", str(out)])
        rows = (out / "trace_seed0.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 30 * 5  # header + steps*links

    def test_min_controller(self, short_scenario, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", short_scenario, "--out", str(out),
                     "--controller", "min"])
        assert code == EXIT_OK

    def test_unreadable_scenario_exit_2(self, tmp_path):
        code = main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_invalid_checkpoint_exit_3(self, short_scenario, tmp_path):
        code = main(["simulate", "--scenario", short_scenario,
                     "--out", str(tmp_path / "x"),
                     "--controller", f"policy:{tmp_path / 'ghost.json'}"])
        assert code == EXIT_CHECKPOINT

    def test_missing_out_exit_2(self, short_scenario):
        with pytest.raises(SystemExit) as exc:  # argparse: --out is required
            main(["simulate", "--scenario", short_scenario])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command, extra", [
        ("simulate", []), ("evaluate", []), ("sweep-mu", ["--mu", "0.1"]),
        ("sweep-alpha", ["--alpha", "0.5"]),
    ])
    def test_unknown_controller_exit_2(self, short_scenario, tmp_path, command, extra):
        out = tmp_path / "out"
        assert main([command, "--scenario", short_scenario, "--controller", "foo", *extra,
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_tenth_second_steps(self, tmp_path):
        # 0.1-s steps and actions: a float clock would reject the action at
        # t = 0.30000000000000004 as off the 0.1-s grid.
        def edit(doc):
            doc["sim"].update(dt_s=0.1, horizon_s=2.0)
            doc["control"]["action_period_s"] = 0.1
        path = edited_scenario(tmp_path, edit)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        rows = (out / "trace_seed0.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 20 * 5  # header + steps*links


class TestUnreadablePaths:
    """A path that is a directory, is not UTF-8, or (for --out) names a file
    exits with its documented code instead of a traceback."""

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--out", "{file}"], EXIT_USAGE),
        (["simulate", "--scenario", "{dir}"], EXIT_USAGE),
        (["simulate", "--scenario", "{binary}"], EXIT_USAGE),
        (["heatmap", "--trace", "{dir}"], EXIT_USAGE),
        (["heatmap", "--trace", "{binary}"], EXIT_USAGE),
        (["simulate", "--controller", "policy:{dir}"], EXIT_CHECKPOINT),
        (["simulate", "--controller", "policy:{binary}"], EXIT_CHECKPOINT),
        (["simulate", "--from-manifest", "{dir}"], EXIT_USAGE),
        (["simulate", "--from-manifest", "{binary}"], EXIT_USAGE),
    ], ids=["out-file", "scenario-dir", "scenario-binary", "trace-dir", "trace-binary",
            "checkpoint-dir", "checkpoint-binary", "manifest-dir", "manifest-binary"])
    def test_exit_code(self, argv, code, tmp_path):
        paths = {"file": tmp_path / "file", "dir": tmp_path / "dir",
                 "binary": tmp_path / "binary.json"}
        paths["file"].write_text("")
        paths["dir"].mkdir()
        paths["binary"].write_bytes(b"\xff\xfe{}")
        argv = [arg.format(**paths) for arg in argv]
        out = tmp_path / "out"
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert main(argv) == code
        assert not out.exists()


class TestManifestReplay:
    def test_simulate_replay_is_byte_identical(self, short_scenario, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first),
                     "--seed", "3,4"]) == EXIT_OK
        assert main(["simulate", "--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == EXIT_OK
        a = read_bytes_of_csvs(first)
        b = read_bytes_of_csvs(again)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between runs"

    def test_train_rerun_is_byte_identical(self, short_scenario, tmp_path):
        args = ["train", "--scenario", short_scenario, "--budget", "128",
                "--n-steps", "64", "--n-envs", "4"]
        a, b = tmp_path / "t1", tmp_path / "t2"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "learning_curve.csv").read_bytes() == (b / "learning_curve.csv").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_manifest_contents(self, short_scenario, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", short_scenario, "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["format"] == "headwayctl-manifest"
        assert doc["command"] == "simulate"
        assert doc["options"]["scenario"] == short_scenario
        assert len(doc["scenario_sha256"]) == 64

    @pytest.mark.parametrize("extra", [
        ["--seed", "3"], ["--controller", "min"], ["--seed", "0"], ["--seed=0"],
        ["--scenario", "braess5"],
    ], ids=["seed", "controller", "default-seed", "default-seed-equals", "scenario"])
    def test_flag_next_to_from_manifest_exit_2(self, short_scenario, tmp_path, extra):
        # A replay runs the stored options, so any other flag would be
        # dropped; it is refused, even at its default value.
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        again = tmp_path / "again"
        assert main(["simulate", "--from-manifest", str(first / "manifest.json"), *extra,
                     "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()

    @pytest.mark.parametrize("recorded, replayed", [
        (["simulate"], "evaluate"), (["evaluate"], "simulate"),
        (["train", "--budget", "0"], "evaluate"),
    ])
    def test_other_subcommand_exit_2(self, short_scenario, tmp_path, recorded, replayed):
        first = tmp_path / "first"
        assert main([*recorded, "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        again = tmp_path / "again"
        assert main([replayed, "--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()


class TestTrain:
    def test_zero_budget_warns_and_writes_checkpoint(self, short_scenario, tmp_path, capsys):
        out = tmp_path / "train0"
        code = main(["train", "--scenario", short_scenario, "--out", str(out),
                     "--budget", "0"])
        assert code == EXIT_OK
        assert (out / "checkpoint.json").exists()
        assert "warning" in capsys.readouterr().err
        curve = (out / "learning_curve.csv").read_text().strip().splitlines()
        assert curve[0] == ("update_index,env_steps,mean_eval_ttt,"
                            "policy_loss,value_loss,clip_fraction,best_eval_ttt")
        assert len(curve) == 1

    def test_small_budget_trains_and_curve_rows(self, short_scenario, tmp_path):
        out = tmp_path / "train1"
        code = main(["train", "--scenario", short_scenario, "--out", str(out),
                     "--budget", "128", "--n-steps", "64", "--n-envs", "4"])
        assert code == EXIT_OK
        curve = (out / "learning_curve.csv").read_text().strip().splitlines()
        assert len(curve) == 3  # header + 2 updates
        ckpt = out / "checkpoint.json"
        run2 = tmp_path / "eval"
        code = main(["evaluate", "--scenario", short_scenario, "--out", str(run2),
                     "--controller", f"policy:{ckpt}", "--seed", "0,1"])
        assert code == EXIT_OK
        assert (run2 / "summary.csv").exists()
        assert not list(run2.glob("trace_*.csv"))


class TestSweeps:
    def test_sweep_mu_rows(self, short_scenario, tmp_path):
        out = tmp_path / "mu"
        code = main(["sweep-mu", "--scenario", short_scenario, "--out", str(out),
                     "--mu", "0.01,0.1,1", "--seed", "0"])
        assert code == EXIT_OK
        rows = (out / "sweep_mu.csv").read_text().strip().splitlines()
        assert rows[0] == "mu,mean_ttt,std_ttt,n_seeds"
        assert len(rows) == 4
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "sweep-mu"

    def test_sweep_mu_empty_list_exit_2(self, short_scenario, tmp_path):
        code = main(["sweep-mu", "--scenario", short_scenario,
                     "--out", str(tmp_path / "mu")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, code", [
        (["sweep-mu", "--mu", "0.1,-1", "--seed", "0,1,2,3"], EXIT_USAGE),
        (["sweep-mu", "--mu", "0.1", "--budget", "128", "--n-steps", "100"], EXIT_USAGE),
        (["sweep-mu", "--mu", "0.1", "--controller", "policy:{missing}"], EXIT_CHECKPOINT),
        (["sweep-alpha", "--alpha", "0.5", "--controller", "policy:{missing}"],
         EXIT_CHECKPOINT),
    ], ids=["bad-mu", "bad-train-config", "mu-missing-checkpoint",
            "alpha-missing-checkpoint"])
    def test_bad_input_fails_before_any_run(self, short_scenario, tmp_path, argv, code,
                                            monkeypatch):
        # Every swept value, the training options and the controller are
        # checked before --out is created or any episode runs.
        from headwayctl import harness

        def no_run(*args):
            raise AssertionError("ran before checking every input")

        for name in ("run_episode", "train", "evaluate_policy"):
            monkeypatch.setattr(harness, name, no_run)
        argv = [arg.format(missing=tmp_path / "missing.json") for arg in argv]
        out = tmp_path / "out"
        assert main([*argv, "--scenario", short_scenario, "--out", str(out)]) == code
        assert not out.exists()

    def test_mu_zero_freezes_route_shares(self):
        from headwayctl.engine import TrafficEnv

        sc = braess5_scenario()
        sc = replace(sc, sim=replace(sc.sim, horizon_s=1800.0, mu_h=0.0, mu_a=0.0))
        env = TrafficEnv(sc)
        env.reset(0)
        before = env.shares.copy()
        while not env.done:
            env.decision_step(np.full(5, 6.0))
        assert np.array_equal(env.shares, before)

    def test_sweep_alpha_table(self, short_scenario, tmp_path):
        out = tmp_path / "alpha"
        code = main(["sweep-alpha", "--scenario", short_scenario, "--out", str(out),
                     "--alpha", "0,0.5,0.8", "--seed", "0"])
        assert code == EXIT_OK
        rows = (out / "sweep_alpha.csv").read_text().strip().splitlines()
        assert rows[0] == ("alpha,policy_mean_ttt,policy_std_ttt,"
                           "uniform_mean_ttt,uniform_std_ttt,min_mean_ttt,min_std_ttt")
        assert len(rows) == 4

    def test_sweep_alpha_zero_is_controller_neutral(self, short_scenario, tmp_path):
        out = tmp_path / "alpha0"
        main(["sweep-alpha", "--scenario", short_scenario, "--out", str(out),
              "--alpha", "0", "--seed", "0,1"])
        row = (out / "sweep_alpha.csv").read_text().strip().splitlines()[1].split(",")
        policy_ttt, uniform_ttt, min_ttt = float(row[1]), float(row[3]), float(row[5])
        assert policy_ttt == pytest.approx(uniform_ttt, rel=1e-9)
        assert min_ttt == pytest.approx(uniform_ttt, rel=1e-9)

    def test_sweep_alpha_budget_zero_policy_is_the_controller(self, short_scenario, tmp_path):
        # The untrained policy column: train --budget 0 writes the initial
        # weights, and sweep-alpha runs that checkpoint like evaluate does.
        ckpt = tmp_path / "train0" / "checkpoint.json"
        assert main(["train", "--scenario", short_scenario, "--budget", "0", "--seed", "3",
                     "--out", str(ckpt.parent)]) == EXIT_OK
        controller = f"policy:{ckpt}"
        seeds = ["--seed", "0,1"]
        assert main(["evaluate", "--scenario", short_scenario, "--controller", controller,
                     *seeds, "--out", str(tmp_path / "eval")]) == EXIT_OK
        assert main(["sweep-alpha", "--scenario", short_scenario, "--controller", controller,
                     "--alpha", "0.8", *seeds, "--out", str(tmp_path / "alpha")]) == EXIT_OK
        summary = (tmp_path / "eval" / "summary.csv").read_text().splitlines()
        mean = next(r for r in summary if r.startswith("mean,")).split(",")[1]
        row = (tmp_path / "alpha" / "sweep_alpha.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == float(mean)

    def test_sweep_alpha_out_of_range_exit_2(self, short_scenario, tmp_path):
        code = main(["sweep-alpha", "--scenario", short_scenario,
                     "--out", str(tmp_path / "bad"), "--alpha", "1.5"])
        assert code == EXIT_USAGE
        assert not (tmp_path / "bad").exists()

    def test_headway_control_authority_grows_with_alpha(self):
        # The spread between the two constant baselines is a lower bound on
        # what any controller can move; it must widen with the share of
        # controllable vehicles.
        from headwayctl import braess5_scenario, make_controller, run_episode

        base = braess5_scenario()
        gaps = []
        for alpha in (0.0, 0.4, 0.8):
            sc = replace(base, demand=replace(base.demand, autonomy_fraction=alpha))
            ttt = {}
            for name in ("uniform", "min"):
                ctrl = make_controller(name, sc.network)
                ttt[name] = run_episode(sc, ctrl, seed=0).ttt
            gaps.append(ttt["uniform"] - ttt["min"])
        assert gaps[0] == pytest.approx(0.0, abs=1e-6)
        assert gaps[0] <= gaps[1] <= gaps[2]


FLAGS = {
    "simulate": {"--scenario", "--out", "--from-manifest", "--seed", "--controller"},
    "evaluate": {"--scenario", "--out", "--from-manifest", "--seed", "--controller"},
    "train": {"--scenario", "--out", "--from-manifest", "--seed", "--budget", "--n-steps",
              "--n-envs"},
    "sweep-mu": {"--scenario", "--out", "--from-manifest", "--seed", "--controller",
                 "--budget", "--n-steps", "--n-envs", "--mu"},
    "sweep-alpha": {"--scenario", "--out", "--from-manifest", "--seed", "--controller",
                    "--budget", "--n-steps", "--n-envs", "--alpha"},
    "heatmap": {"--scenario", "--out", "--from-manifest", "--trace"},
}


class TestCommandFlags:
    def test_each_command_declares_only_its_own_flags(self):
        import argparse

        from headwayctl.harness import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {name: {opt for action in p._actions for opt in action.option_strings}
                    - {"-h", "--help"} for name, p in sub.choices.items()}
        assert declared == FLAGS
        assert sum(map(len, declared.values())) == 39

    @pytest.mark.parametrize("argv", [
        ["train", "--controller", "min"],
        ["heatmap", "--seed", "1"],
        ["simulate", "--mu", "0.1"],
        ["evaluate", "--budget", "64"],
        ["sweep-mu", "--alpha", "0.5"],
        ["sweep-alpha", "--trace", "t.csv"],
    ])
    def test_foreign_flag_is_a_usage_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "x").exists()


class TestBadNumbers:
    """Bad numbers on the command line are usage errors, caught before any run."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", ","],
        ["train", "--seed", ","],
        ["simulate", "--seed", "-1"],
        ["train", "--n-envs", "0"],
        ["train", "--n-steps", "0"],
        ["train", "--n-steps", "100", "--budget", "100"],
        ["train", "--budget", "-5"],
        ["evaluate", "--seed", "0,0"],
    ])
    def test_exit_2(self, argv, tmp_path):
        out = tmp_path / "out"
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag's value
            code = exc.code
        assert code == EXIT_USAGE
        assert not (out / "checkpoint.json").exists()


class TestHeatmap:
    def test_svg_from_trace(self, short_scenario, tmp_path):
        run = tmp_path / "run"
        main(["simulate", "--scenario", short_scenario, "--out", str(run)])
        out = tmp_path / "hm"
        code = main(["heatmap", "--scenario", short_scenario,
                     "--trace", str(run / "trace_seed0.csv"), "--out", str(out)])
        assert code == EXIT_OK
        svg = (out / "heatmap.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 1 + 30 * 5  # background + cells
        assert "time (min)" in svg

    def test_missing_trace_flag_exit_2(self, short_scenario, tmp_path):
        assert main(["heatmap", "--scenario", short_scenario,
                     "--out", str(tmp_path / "hm")]) == EXIT_USAGE

    def test_empty_trace_exit_2(self, short_scenario, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t_s,link_id,count,density,autonomy_fraction,"
                         "s_l,flow_vps,latency_s,beta_a_m\n")
        code = main(["heatmap", "--scenario", short_scenario,
                     "--trace", str(empty), "--out", str(tmp_path / "hm")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("edit", ["braess8 trace", "no density", "non-numeric", "nan"])
    def test_bad_trace_exit_2(self, edit, tmp_path):
        run = tmp_path / "run"
        scenario = "braess8" if edit == "braess8 trace" else "braess5"
        assert main(["simulate", "--scenario", scenario, "--out", str(run)]) == EXIT_OK
        trace = run / "trace_seed0.csv"
        lines = trace.read_text().splitlines()
        if edit == "no density":
            lines = [",".join(c for i, c in enumerate(line.split(",")) if i != 3)
                     for line in lines]
        elif edit == "non-numeric":
            lines[5] = lines[5].replace(",", ",x", 1)
        elif edit == "nan":
            cells = lines[5].split(",")
            lines[5] = ",".join(cells[:3] + ["nan"] + cells[4:])
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "hm"
        assert main(["heatmap", "--scenario", "braess5", "--trace", str(trace),
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_all_green_when_empty_network(self, tmp_path):
        from headwayctl.heatmap import heatmap_svg

        svg = heatmap_svg(np.zeros((2, 10)), dt_s=60.0)
        assert "rgb(0,170,0)" in svg
        assert "rgb(220,0,0)" not in svg

    def test_jammed_row_is_red(self):
        from headwayctl.heatmap import heatmap_svg

        grid = np.zeros((2, 4))
        grid[1, :] = 1.0
        svg = heatmap_svg(grid, dt_s=60.0)
        assert svg.count("rgb(220,0,0)") == 4


def edited_scenario(tmp_path, edit, name="edited.json"):
    """A short braess5 scenario JSON with ``edit(doc)`` applied."""
    sc = braess5_scenario()
    path = tmp_path / name
    save_scenario(replace(sc, sim=replace(sc.sim, horizon_s=1800.0)), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


class TestFailFastScenario:
    """Bad scenario values exit with code 2 at load time, before any step."""

    def assert_rejected(self, tmp_path, edit, match):
        from headwayctl.network import ConfigError

        path = edited_scenario(tmp_path, edit)
        with pytest.raises(ConfigError, match=match):
            load_scenario(path)
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert not (tmp_path / "run").exists()

    def test_nan_length(self, tmp_path):
        def edit(doc):
            doc["network"]["links"][1]["length_m"] = float("nan")
        self.assert_rejected(tmp_path, edit, "length")

    @pytest.mark.parametrize("length", [0.0, -240_000.0])
    def test_non_positive_length(self, tmp_path, length):
        def edit(doc):
            doc["network"]["links"][1]["length_m"] = length
        self.assert_rejected(tmp_path, edit, "length")

    def test_nan_demand_rate(self, tmp_path):
        def edit(doc):
            doc["demand"]["breakpoints"][1][1] = float("nan")
        self.assert_rejected(tmp_path, edit, "demand")

    @pytest.mark.parametrize("key", ["mu_h", "mu_a"])
    def test_negative_rationality(self, tmp_path, key):
        def edit(doc):
            doc["sim"][key] = -0.1
        self.assert_rejected(tmp_path, edit, key)

    @pytest.mark.parametrize("beta_min", [0.0, -1.0, float("nan")])
    def test_bad_minimum_headway(self, tmp_path, beta_min):
        def edit(doc):
            doc["control"]["beta_min_m"] = beta_min
        self.assert_rejected(tmp_path, edit, "headways must be finite and positive")

    @pytest.mark.parametrize("alpha", [-0.5, 1.5, float("nan")])
    def test_autonomy_fraction_outside_unit_interval(self, tmp_path, alpha):
        def edit(doc):
            doc["od"]["autonomy_fraction"] = alpha
        self.assert_rejected(tmp_path, edit, "autonomy fraction")

    def test_horizon_not_a_whole_number_of_steps(self, tmp_path):
        def edit(doc):
            doc["sim"]["horizon_s"] = 1830.0  # 30.5 one-minute steps
        self.assert_rejected(tmp_path, edit, "whole number of steps")

    def test_absurd_horizon(self, tmp_path):
        def edit(doc):
            doc["sim"]["horizon_s"] = 1e300
        self.assert_rejected(tmp_path, edit, "steps")

    def test_initial_count_on_a_link_no_path_uses(self, tmp_path):
        def edit(doc):
            link = dict(doc["network"]["links"][0], id=5, **{"from": "D", "to": "E"})
            doc["network"]["links"].append(link)
            doc["sim"]["initial_counts"]["5"] = 10.0
        self.assert_rejected(tmp_path, edit, "no path uses")

    def test_non_numeric_field(self, tmp_path):
        def edit(doc):
            doc["sim"]["dt_s"] = "one minute"
        self.assert_rejected(tmp_path, edit, "malformed")

    @pytest.mark.parametrize("where, value", [
        ("lanes", 2.7), ("lanes", True), ("id", 0.5), ("id", False),
    ])
    def test_non_integral_integer_field(self, tmp_path, where, value):
        # int() would truncate these: 2.7 lanes to 2, id 0.5 to link 0.
        def edit(doc):
            doc["network"]["links"][0][where] = value
        self.assert_rejected(tmp_path, edit, "must be an integer")

    def test_initial_count_that_jitter_can_push_above_jam(self, tmp_path):
        # Link 0 holds 4 lanes / 0.5 m * 240 km = 1.92e6 vehicles at jam; the
        # default 5% jitter can draw up to 1.05 * 0.99 of that.
        def edit(doc):
            doc["sim"]["initial_counts"]["0"] = 0.99 * 1.92e6
        self.assert_rejected(tmp_path, edit, "exceeds jam density")


class TestCheckpointValidation:
    """Structurally bad checkpoints exit with code 3 before any episode."""

    def checkpoint(self, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        params = PolicyParams.new(12, 5, np.random.default_rng(0), 1.0, 10.0)
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def assert_exit_3(self, short_scenario, tmp_path, path):
        assert main(["evaluate", "--scenario", short_scenario, "--out", str(tmp_path / "ev"),
                     "--controller", f"policy:{path}"]) == EXIT_CHECKPOINT

    def test_layers_that_do_not_chain(self, short_scenario, tmp_path):
        def edit(doc):
            # One input row fewer on the last layer: it takes 63 inputs from
            # a 64-wide hidden layer.
            doc["layers"][2]["w"] = doc["layers"][2]["w"][:-1]
            doc["layer_shapes"][2][0] -= 1
        path = self.checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match="layer 2 takes 63 inputs"):
            load_checkpoint(path)
        self.assert_exit_3(short_scenario, tmp_path, path)

    def test_log_std_length(self, short_scenario, tmp_path):
        def edit(doc):
            doc["log_std"] = doc["log_std"][:-1]
        path = self.checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match="log_std"):
            load_checkpoint(path)
        self.assert_exit_3(short_scenario, tmp_path, path)

    def test_obs_version(self, short_scenario, tmp_path):
        def edit(doc):
            doc["obs_version"] = OBS_SPEC_VERSION + 1
        path = self.checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
        self.assert_exit_3(short_scenario, tmp_path, path)

    def test_obs_dim_against_network(self, short_scenario, tmp_path):
        path = tmp_path / "wide.json"
        save_checkpoint(PolicyParams.new(14, 5, np.random.default_rng(0), 1.0, 10.0), path)
        load_checkpoint(path)  # well formed on its own
        with pytest.raises(CheckpointError, match="14 observations"):
            make_controller(f"policy:{path}", braess5_scenario().network)
        self.assert_exit_3(short_scenario, tmp_path, path)

    def test_headway_bounds_against_network(self, tmp_path):
        # A [1, 10] checkpoint on a [4, 7] scenario would have every action
        # clamped to the scenario's bounds.
        narrow = edited_scenario(tmp_path, lambda doc: doc["control"].update(
            beta_min_m=4.0, beta_max_m=7.0), name="narrow.json")
        path = tmp_path / "ckpt.json"
        save_checkpoint(PolicyParams.new(12, 5, np.random.default_rng(0), 1.0, 10.0), path)
        with pytest.raises(CheckpointError, match="headway bounds"):
            make_controller(f"policy:{path}", load_scenario(narrow).network)
        self.assert_exit_3(str(narrow), tmp_path, path)
        assert not (tmp_path / "ev").exists()

    def test_non_finite_headway_bound(self, short_scenario, tmp_path):
        def edit(doc):
            doc["beta_min_m"] = float("nan")
        path = self.checkpoint(tmp_path, edit)
        self.assert_exit_3(short_scenario, tmp_path, path)
        assert not (tmp_path / "ev").exists()


class TestHonestReplay:
    def test_edited_scenario_refuses_replay(self, tmp_path):
        path = edited_scenario(tmp_path, lambda doc: None, name="sc.json")
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", str(path), "--out", str(first)]) == EXIT_OK
        doc = json.loads(path.read_text())
        doc["sim"]["mu_h"] = 0.2
        path.write_text(json.dumps(doc))
        again = tmp_path / "again"
        assert main(["simulate", "--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()

    def test_unchanged_scenario_replays(self, tmp_path):
        path = edited_scenario(tmp_path, lambda doc: None, name="sc.json")
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", str(path), "--out", str(first)]) == EXIT_OK
        # Reformatting the file does not change the scenario it describes.
        path.write_text(json.dumps(json.loads(path.read_text()), indent=4))
        again = tmp_path / "again"
        assert main(["simulate", "--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == EXIT_OK
        assert read_bytes_of_csvs(first) == read_bytes_of_csvs(again)

    def assert_replay_refused(self, tmp_path, command, edit):
        """Replaying a ``command`` run whose manifest ``edit`` changed exits 2
        and writes nothing."""
        path = edited_scenario(tmp_path, lambda doc: None, name="sc.json")
        first = tmp_path / "first"
        assert main([command, "--scenario", str(path), "--out", str(first)]) == EXIT_OK
        manifest = first / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        assert main([command, "--from-manifest", str(manifest),
                     "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()

    def test_replay_without_out_leaves_the_run_alone(self, short_scenario, tmp_path):
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        files = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in first.iterdir()}
        with pytest.raises(SystemExit) as exc:  # argparse: --out is required
            main(["simulate", "--from-manifest", str(first / "manifest.json")])
        assert exc.value.code == EXIT_USAGE
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in first.iterdir()} == files

    @pytest.mark.parametrize("command, seeds", [
        ("simulate", []), ("simulate", [-1]), ("train", []), ("train", [-1]),
        ("simulate", [0, 0]),
    ])
    def test_bad_replayed_seeds_exit_2(self, tmp_path, command, seeds):
        # The checks --seed makes on the command line hold for a hand-edited
        # manifest too.
        edit = lambda doc: doc["options"].update(seeds=seeds)
        self.assert_replay_refused(tmp_path, command, edit)

    @pytest.mark.parametrize("command, key, value", [
        ("train", "budget", "x"),
        ("train", "budget", None),
        ("train", "n_envs", "8"),
        ("train", "n_steps", KeyError),
    ])
    def test_bad_replayed_option_exit_2(self, tmp_path, command, key, value):
        # Replay passes the stored options through the command's own flags:
        # each must be stored, as the value its flag would parse to.
        def edit(doc):
            if value is KeyError:
                del doc["options"][key]
            else:
                doc["options"][key] = value

        self.assert_replay_refused(tmp_path, command, edit)

    @pytest.mark.parametrize("command", ["bogus", 5])
    def test_unknown_replayed_command_exit_2(self, tmp_path, command):
        edit = lambda doc: doc.update(command=command)
        self.assert_replay_refused(tmp_path, "simulate", edit)
