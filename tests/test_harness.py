"""CLI commands, manifests, byte-identical replay, heatmap SVG output."""

import argparse
import csv
import json
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headwayctl.engine import run_episode
from headwayctl.harness import EXIT_CHECKPOINT, EXIT_OK, EXIT_USAGE, build_parser, main, write_csv
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


# A CSV cell as the commands write them: an int, a float (repr switches to
# exponent notation below 1e-4 and from 1e16 on) or a summary label; a table
# is a header and rows of its width.
CSV_CELLS = st.one_of(st.integers(-10**20, 10**20), st.floats(), st.sampled_from(["mean", "std"]))
CSV_TABLES = st.integers(1, 9).flatmap(lambda width: st.tuples(
    st.lists(st.sampled_from(["seed", "ttt", "mean_ttt"]), min_size=width, max_size=width),
    st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width), max_size=6)))


@pytest.fixture(scope="module")
def csv_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("write_csv")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(table=CSV_TABLES)
@example(table=(["seed", "ttt", "ttt", "ttt"],
                [[-0.0, 5e-324, 1e-5, 1e16], [0, 1e-4, 9999999999999998.0, "mean"]]))
def test_write_csv_gives_the_bytes_of_csv_writer(csv_folder, table):
    """``write_csv`` writes ``str`` of each cell, comma-separated, each row
    ended by CRLF: for numbers and labels that is what ``csv.writer`` writes,
    byte for byte."""
    header, rows = table
    write_csv(csv_folder / "fast.csv", header, rows)
    with open(csv_folder / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (csv_folder / "fast.csv").read_bytes() == (csv_folder / "reference.csv").read_bytes()


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
    """A path that is a directory, is not UTF-8, holds a JSON document that is
    not an object or holds no JSON, or (for --out) names a file, exits with its
    documented code instead of a traceback."""

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--out", "{file}"], EXIT_USAGE),
        (["simulate", "--scenario", "{dir}"], EXIT_USAGE),
        (["simulate", "--scenario", "{binary}"], EXIT_USAGE),
        (["heatmap", "--trace", "{dir}"], EXIT_USAGE),
        (["heatmap", "--trace", "{binary}"], EXIT_USAGE),
        (["simulate", "--controller", "policy:{dir}"], EXIT_CHECKPOINT),
        (["simulate", "--controller", "policy:{binary}"], EXIT_CHECKPOINT),
        (["replay", "{dir}"], EXIT_USAGE),
        (["replay", "{binary}"], EXIT_USAGE),
        (["simulate", "--scenario", "{list}"], EXIT_USAGE),
        (["simulate", "--scenario", "{brace}"], EXIT_USAGE),
        (["simulate", "--controller", "policy:{list}"], EXIT_CHECKPOINT),
        (["simulate", "--controller", "policy:{brace}"], EXIT_CHECKPOINT),
        (["replay", "{list}"], EXIT_USAGE),
        (["replay", "{brace}"], EXIT_USAGE),
    ], ids=["out-file", "scenario-dir", "scenario-binary", "trace-dir", "trace-binary",
            "checkpoint-dir", "checkpoint-binary", "manifest-dir", "manifest-binary",
            "scenario-list", "scenario-not-json", "checkpoint-list", "checkpoint-not-json",
            "manifest-list", "manifest-not-json"])
    def test_exit_code(self, argv, code, tmp_path):
        paths = {"file": tmp_path / "file", "dir": tmp_path / "dir",
                 "binary": tmp_path / "binary.json", "list": tmp_path / "list.json",
                 "brace": tmp_path / "brace.json"}
        paths["file"].write_text("")
        paths["dir"].mkdir()
        paths["binary"].write_bytes(b"\xff\xfe{}")
        paths["list"].write_text("[1, 2]")
        paths["brace"].write_text("{")
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
        assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == EXIT_OK
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

    def test_manifest_contents(self, short_scenario, tmp_path, monkeypatch):
        for name in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
            monkeypatch.delenv(name, raising=False)  # each would add a provenance key
        out = tmp_path / "run"
        main(["simulate", "--scenario", short_scenario, "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["format"] == "headwayctl-manifest"
        assert doc["argv"] == ["simulate", f"--scenario={short_scenario}", "--seed=0",
                               "--controller=uniform"]
        assert len(doc["scenario_sha256"]) == 64
        assert doc["input_sha256"] == {}  # uniform reads no file besides the scenario
        assert set(doc["provenance"]) == {"headwayctl", "python", "numpy", "platform",
                                          "numpy_exp_float64", "written_utc"}

    def test_provenance_records_the_exp_kernel(self, short_scenario, tmp_path, monkeypatch):
        # Which kernel numpy picks for float64 exp, and the variables that
        # change the choice, are what byte-identical replay assumes unchanged.
        from numpy.lib.introspect import opt_func_info

        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
        monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(out)]) == EXIT_OK
        provenance = json.loads((out / "manifest.json").read_text())["provenance"]
        kernel = opt_func_info(func_name="exp", signature="float64")["exp"]["dd"]["current"]
        assert provenance["numpy_exp_float64"] == kernel
        assert provenance["OPENBLAS_CORETYPE"] == "Haswell"
        assert "NPY_DISABLE_CPU_FEATURES" not in provenance

    def test_edited_provenance_replays(self, short_scenario, tmp_path):
        # Replay reads only the command line and the scenario hash.
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        manifest = first / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["provenance"] = {"headwayctl": "9.9", "written_utc": "edited"}
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        assert main(["replay", str(manifest), "--out", str(again)]) == EXIT_OK
        assert read_bytes_of_csvs(first) == read_bytes_of_csvs(again)

    def test_replay_loads_the_scenario_once(self, short_scenario, tmp_path, monkeypatch):
        from headwayctl import harness

        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        loads = []
        monkeypatch.setattr(harness, "load_scenario",
                            lambda name: loads.append(name) or load_scenario(name))
        assert main(["replay", str(first / "manifest.json"),
                     "--out", str(tmp_path / "again")]) == EXIT_OK
        assert loads == [short_scenario]

    @pytest.mark.parametrize("extra", [
        ["--seed", "3"], ["--controller", "min"], ["--seed", "0"], ["--seed=0"],
        ["--scenario", "braess5"],
    ], ids=["seed", "controller", "default-seed", "default-seed-equals", "scenario"])
    def test_flag_next_to_replay_exit_2(self, short_scenario, tmp_path, extra):
        # A replay runs the stored options, so it takes no other flag, even
        # at its default value; argparse refuses one.
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        again = tmp_path / "again"
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(first / "manifest.json"), *extra, "--out", str(again)])
        assert exc.value.code == EXIT_USAGE
        assert not again.exists()


def test_one_trace_is_alive_per_call(short_scenario, tmp_path, monkeypatch):
    """simulate and evaluate let go of each episode's trace before the next
    episode starts, so a call's memory does not grow with its seed list."""
    from headwayctl import harness

    traces, alive_at_start = [], []

    def tracked_run_episode(*args):
        alive_at_start.append(sum(ref() is not None for ref in traces))
        trace = run_episode(*args)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(harness, "run_episode", tracked_run_episode)
    for command, n_seeds in (("evaluate", 16), ("simulate", 4)):
        traces.clear()
        alive_at_start.clear()
        assert main([command, "--scenario", short_scenario, "--out", str(tmp_path / command),
                     "--seed", ",".join(map(str, range(n_seeds)))]) == EXIT_OK
        assert len(alive_at_start) == n_seeds and max(alive_at_start) <= 1, alive_at_start


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
        assert doc["argv"][0] == "sweep-mu"

    def test_sweep_mu_empty_list_exit_2(self, short_scenario, tmp_path):
        out = tmp_path / "mu"
        with pytest.raises(SystemExit) as exc:  # argparse: --mu is required
            main(["sweep-mu", "--scenario", short_scenario, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["sweep-mu", "--mu", "0.1,-1", "--seed", "0,1,2,3"], EXIT_USAGE),
        (["sweep-mu", "--mu", "0.1", "--budget", "128", "--n-steps", "100"], EXIT_USAGE),
        (["sweep-mu", "--mu", "0.1", "--budget", "1000"], EXIT_USAGE),
        (["sweep-mu", "--mu", "0.1", "--controller", "policy:{missing}"], EXIT_CHECKPOINT),
        (["sweep-alpha", "--alpha", "0.5", "--controller", "policy:{missing}"],
         EXIT_CHECKPOINT),
    ], ids=["bad-mu", "bad-train-config", "budget-not-whole-updates", "mu-missing-checkpoint",
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
    "simulate": {"--scenario", "--out", "--seed", "--controller"},
    "evaluate": {"--scenario", "--out", "--seed", "--controller"},
    "train": {"--scenario", "--out", "--seed", "--budget", "--n-steps", "--n-envs"},
    "sweep-mu": {"--scenario", "--out", "--seed", "--controller", "--budget", "--n-steps",
                 "--n-envs", "--mu"},
    "sweep-alpha": {"--scenario", "--out", "--seed", "--controller", "--budget", "--n-steps",
                    "--n-envs", "--alpha"},
    "heatmap": {"--scenario", "--out", "--trace"},
    "replay": {"--out"},
}


def declared_flags() -> dict[str, set[str]]:
    """Each command's flags as ``build_parser`` declares them, help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"} for name, p in sub.choices.items()}


class TestCommandFlags:
    def test_each_command_declares_only_its_own_flags(self):
        declared = declared_flags()
        assert declared == FLAGS
        assert sum(map(len, declared.values())) == 34

    def test_readme_flag_table_lists_each_commands_flags(self):
        # One row per command but replay, whose flags a sentence gives; the
        # table leaves out --scenario and --out, which it says every row takes.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme[readme.index("| Command | Flags |"):].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines()[2:]:
            commands, flags = row.strip("|").split("|")
            for name in re.findall(r"`([a-z-]+)`", commands):
                listed[name] = set(re.findall(r"`(--[a-z-]+)`", flags))
        assert listed == {name: flags - {"--scenario", "--out"}
                          for name, flags in declared_flags().items() if name != "replay"}

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
        ["train", "--budget", "1000"],  # not a whole number of 2048-step updates
        ["train", "--budget", "100", "--n-steps", "64"],
        ["sweep-mu", "--mu", ""],
        ["sweep-alpha", "--alpha", ","],
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
        with pytest.raises(SystemExit) as exc:  # argparse: --trace is required
            main(["heatmap", "--scenario", short_scenario, "--out", str(tmp_path / "hm")])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "hm").exists()

    def test_empty_trace_exit_2(self, short_scenario, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t_s,link_id,count,density,autonomy_fraction,"
                         "s_l,flow_vps,latency_s,beta_a_m\n")
        code = main(["heatmap", "--scenario", short_scenario,
                     "--trace", str(empty), "--out", str(tmp_path / "hm")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("edit", ["braess8 trace", "no density", "non-numeric", "nan",
                                      "missing last row", "repeated cell", "one row",
                                      "missing last step", "link-major rows", "extra column"])
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
        elif edit == "missing last row":
            lines = lines[:-1]
        elif edit == "repeated cell":
            # Row 6 becomes row 5's (t_s, link_id) at another density, so
            # the row count still fits the scenario.
            cells = lines[5].split(",")
            lines[6] = ",".join(cells[:3] + ["0.5"] + cells[4:])
        elif edit == "one row":
            lines = lines[:2]
        elif edit == "missing last step":
            lines = lines[:-5]
        elif edit == "link-major rows":
            # The same rows, each link's steps together: braess5 has 5 links.
            lines = lines[:1] + [lines[1 + row] for link in range(5)
                                 for row in range(link, len(lines) - 1, 5)]
        elif edit == "extra column":
            lines = [line + (",extra" if i == 0 else ",0") for i, line in enumerate(lines)]
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "hm"
        assert main(["heatmap", "--scenario", "braess5", "--trace", str(trace),
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_trace_of_another_time_step_exit_2(self, tmp_path):
        """A copy of braess5 stepped every 30 s for 100 minutes has braess5's
        200 steps, but not its times, so its trace is not one of braess5's."""
        sc = braess5_scenario()
        half_step = tmp_path / "half_step.json"
        save_scenario(replace(sc, sim=replace(sc.sim, dt_s=30.0, horizon_s=6000.0)), half_step)
        run, out = tmp_path / "run", tmp_path / "hm"
        assert main(["simulate", "--scenario", str(half_step), "--out", str(run)]) == EXIT_OK
        trace = str(run / "trace_seed0.csv")
        assert main(["heatmap", "--scenario", "braess5", "--trace", trace,
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert main(["heatmap", "--scenario", str(half_step), "--trace", trace,
                     "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("dt_s", [0.1, 0.7, 1 / 3, 1e-3, 60.0, 123.456])
    def test_reads_the_trace_simulate_writes(self, dt_s, tmp_path):
        """Every time simulate writes, ``k * dt_s`` as ``repr`` gives it, reads
        back as the same float."""
        sc = braess5_scenario()
        path = tmp_path / "sc.json"
        save_scenario(replace(sc, sim=replace(sc.sim, dt_s=dt_s, horizon_s=7 * dt_s,
                                              action_period_s=dt_s)), path)
        run = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(run)]) == EXIT_OK
        assert main(["heatmap", "--scenario", str(path), "--trace", str(run / "trace_seed0.csv"),
                     "--out", str(tmp_path / "hm")]) == EXIT_OK

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

    @pytest.mark.parametrize("key", ["00", " 2", "+2", "-0", "1_0"])
    def test_initial_count_key_that_is_not_a_plain_link_id(self, tmp_path, key):
        # int() reads each of these: "00" next to "0" used to drop the first
        # entry, " 2" and "+2" named link 2, "-0" link 0 and "1_0" link 10.
        def edit(doc):
            doc["sim"]["initial_counts"][key] = 7.0
        self.assert_rejected(tmp_path, edit, "not a link id")

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

    @pytest.mark.parametrize("edit, match", [
        # float() and str() read each of these: true as 1.0, "60" as 60.0.
        (lambda doc: doc["sim"].update(mu_h=True), "sim.mu_h must be a number"),
        (lambda doc: doc["sim"].update(dt_s="60"), "sim.dt_s must be a number"),
        (lambda doc: doc["control"].update(beta_h_m="6"), "control.beta_h_m must be a number"),
        (lambda doc: doc["od"].update(autonomy_fraction=False),
         "od.autonomy_fraction must be a number"),
        (lambda doc: doc["od"].update(origin=0), "od.origin must be a string"),
        (lambda doc: doc["network"]["links"][2].update({"from": None}),
         "link 2 from must be a string"),
        (lambda doc: doc["demand"]["breakpoints"][1].__setitem__(1, "120"),
         "demand.breakpoints must be a number"),
    ], ids=["bool-mu_h", "string-dt_s", "string-beta_h_m", "bool-autonomy", "number-origin",
            "null-node", "string-rate"])
    def test_value_of_the_wrong_json_type(self, tmp_path, edit, match):
        self.assert_rejected(tmp_path, edit, match)

    def test_initial_count_that_jitter_can_push_above_jam(self, tmp_path):
        # Link 0 holds 4 lanes / 0.5 m * 240 km = 1.92e6 vehicles at jam; the
        # default 5% jitter can draw up to 1.05 * 0.99 of that.
        def edit(doc):
            doc["sim"]["initial_counts"]["0"] = 0.99 * 1.92e6
        self.assert_rejected(tmp_path, edit, "exceeds jam density")


    @pytest.mark.parametrize("edit, match", [
        # Each of these ran until the step overflowed: a non-finite state at
        # step 17, a route choice refusing an infinite latency, and an
        # infinite TTT with exit code 0.
        (lambda doc: [doc["demand"]["breakpoints"][k].__setitem__(1, 1e306) for k in (1, 2)],
         "total demand volume"),
        (lambda doc: doc["network"]["links"][4].update(length_m=240_000.0, vff_mps=1e-303),
         "latency"),
        (lambda doc: doc["sim"].update(reward_scale=1e308), "TTT bound"),
    ], ids=["demand-rates", "slow-link", "reward-scale"])
    def test_finite_values_whose_step_overflows(self, tmp_path, edit, match):
        def full_horizon(doc):
            doc["sim"]["horizon_s"] = 12_000.0
            edit(doc)
        self.assert_rejected(tmp_path, full_horizon, match)


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

    @pytest.mark.parametrize("where", ["nan-bias", "inf-weight", "nan-log_std"])
    def test_non_finite_parameter(self, short_scenario, tmp_path, where):
        # A NaN bias would otherwise pass every shape check and fail only
        # mid-episode, after --out exists.
        def edit(doc):
            if where == "nan-bias":
                doc["layers"][0]["b"][0] = float("nan")
            elif where == "inf-weight":
                doc["layers"][1]["w"][0][0] = float("inf")
            else:
                doc["log_std"][0] = float("nan")
        path = self.checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)
        self.assert_exit_3(short_scenario, tmp_path, path)
        assert not (tmp_path / "ev").exists()

    def test_output_that_can_overflow(self, short_scenario, tmp_path):
        # Every value is finite, but the second hidden layer saturates and
        # the output layer sums 64 ones times 1e308: evaluate used to raise
        # FloatingPointError mid-episode, after --out existed.
        def edit(doc):
            doc["layers"][1]["b"] = [100.0] * 64
            doc["layers"][2]["w"] = [[1e308] * 5 for _ in range(64)]
        path = self.checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match="layer 2 can output inf"):
            load_checkpoint(path)
        self.assert_exit_3(short_scenario, tmp_path, path)
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(beta_max_m="10"),
        lambda doc: doc["layers"][0]["w"][0].__setitem__(0, "0.5"),
        lambda doc: doc["layers"][1]["b"].__setitem__(0, True),
        lambda doc: doc["log_std"].__setitem__(0, "0"),
    ], ids=["string-bound", "string-weight", "bool-bias", "string-log_std"])
    def test_value_of_the_wrong_json_type(self, short_scenario, tmp_path, edit):
        # float() and np.array(..., dtype=float) read each of these as a number.
        path = self.checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match="must be a"):
            load_checkpoint(path)
        self.assert_exit_3(short_scenario, tmp_path, path)
        assert not (tmp_path / "ev").exists()


@pytest.fixture(scope="module")
def corruption_case(tmp_path_factory):
    """A directory, a short braess5 scenario file in it and the document of a
    fresh checkpoint for that scenario."""
    root = tmp_path_factory.mktemp("corrupt")
    sc = braess5_scenario()
    save_scenario(replace(sc, sim=replace(sc.sim, horizon_s=1800.0)), root / "short.json")
    save_checkpoint(PolicyParams.new(12, 5, np.random.default_rng(0), 1.0, 10.0),
                    root / "fresh.json")
    return root, str(root / "short.json"), json.loads((root / "fresh.json").read_text())


# Shape corruptions of a 2-D weight list and of a 1-D bias or log_std list.
# Each breaks the chain of layers, a layer's own shapes, the depth of a list
# or the observation and action sizes.
MATRIX_EDITS = [
    lambda w: w[:-1], lambda w: w + [w[0]],
    lambda w: [r[:-1] for r in w], lambda w: [r + [0.0] for r in w],
    lambda w: [w[0][:-1]] + w[1:], lambda w: [x for r in w for x in r], lambda w: [w],
]
VECTOR_EDITS = [lambda v: v[:-1], lambda v: v + [0.0], lambda v: [v], lambda v: v[0]]
WRONG_TYPES = st.sampled_from(["x", True, False, None, [], {}])


def parameter_lists(doc):
    """(owner, key) of each layer's "w" and "b", then of "log_std"."""
    return [(layer, key) for layer in doc["layers"] for key in ("w", "b")] + [(doc, "log_std")]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_corrupted_checkpoint_exits_3(corruption_case, data):
    """A fresh checkpoint with a reshaped weight, bias or log_std list, a
    dropped first or last layer, a non-finite value or a value of the wrong
    JSON type exits 3 before --out exists."""
    root, scenario, fresh = corruption_case
    doc = json.loads(json.dumps(fresh))
    kind = data.draw(st.sampled_from(["shape", "layer", "non-finite", "type"]), "kind")
    if kind == "shape":
        owner, key = data.draw(st.sampled_from(parameter_lists(doc)), "list")
        edits = MATRIX_EDITS if key == "w" else VECTOR_EDITS
        owner[key] = data.draw(st.sampled_from(edits), "edit")(owner[key])
    elif kind == "layer":
        del doc["layers"][data.draw(st.sampled_from([0, -1]), "dropped")]
    elif kind == "non-finite":
        value = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]), "value")
        owner, key = data.draw(st.sampled_from(
            parameter_lists(doc) + [(doc, "beta_min_m"), (doc, "beta_max_m")]), "where")
        while isinstance(owner[key], list):
            owner, key = owner[key], data.draw(st.integers(0, len(owner[key]) - 1), "index")
        owner[key] = value
    else:
        owner, key = data.draw(st.sampled_from(
            [(doc, key) for key in doc] + parameter_lists(doc)), "where")
        while isinstance(owner[key], list) and data.draw(st.booleans(), "deeper"):
            owner, key = owner[key], data.draw(st.integers(0, len(owner[key]) - 1), "index")
        owner[key] = data.draw(WRONG_TYPES | st.just(json.dumps(owner[key])), "value")
    if kind in ("shape", "layer") and data.draw(st.booleans(), "restate layer_shapes"):
        doc["layer_shapes"] = [list(np.array(layer["w"], dtype=object).shape)
                               for layer in doc["layers"]]
    path, out = root / "ckpt.json", root / "ev"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--scenario", scenario, "--out", str(out),
                 "--controller", f"policy:{path}"]) == EXIT_CHECKPOINT
    assert not out.exists()


class TestHonestReplay:
    def test_edited_scenario_refuses_replay(self, tmp_path):
        path = edited_scenario(tmp_path, lambda doc: None, name="sc.json")
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", str(path), "--out", str(first)]) == EXIT_OK
        doc = json.loads(path.read_text())
        doc["sim"]["mu_h"] = 0.2
        path.write_text(json.dumps(doc))
        again = tmp_path / "again"
        assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()

    def test_unchanged_scenario_replays(self, tmp_path):
        path = edited_scenario(tmp_path, lambda doc: None, name="sc.json")
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", str(path), "--out", str(first)]) == EXIT_OK
        # Reformatting the file does not change the scenario it describes.
        path.write_text(json.dumps(json.loads(path.read_text()), indent=4))
        again = tmp_path / "again"
        assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == EXIT_OK
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
        assert main(["replay", str(manifest), "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()

    @staticmethod
    def set_flag(doc, flag, text):
        """Give ``flag`` the value ``text`` in the stored argv, or drop it if
        ``text`` is None."""
        argv = doc["argv"]
        i = next(i for i, arg in enumerate(argv) if arg.startswith(f"{flag}="))
        argv[i:i + 1] = [] if text is None else [f"{flag}={text}"]

    def test_replay_without_out_leaves_the_run_alone(self, short_scenario, tmp_path):
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        files = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in first.iterdir()}
        with pytest.raises(SystemExit) as exc:  # argparse: --out is required
            main(["replay", str(first / "manifest.json")])
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
        edit = lambda doc: self.set_flag(doc, "--seed", ",".join(map(str, seeds)))
        self.assert_replay_refused(tmp_path, command, edit)

    @pytest.mark.parametrize("command, key, value", [
        ("train", "budget", "x"),
        ("train", "budget", None),
        ("train", "n_envs", "08"),
        ("train", "n_steps", KeyError),
    ])
    def test_bad_replayed_option_exit_2(self, tmp_path, command, key, value):
        # Replay parses the stored argv with the command's own parser, and
        # the argv must be the canonical line of what it parses to: no bad
        # value, no non-canonical spelling (08 for 8), no missing flag.
        flag = "--" + key.replace("_", "-")
        edit = lambda doc: self.set_flag(doc, flag, None if value is KeyError else str(value))
        self.assert_replay_refused(tmp_path, command, edit)

    @pytest.mark.parametrize("command", ["bogus", 5, "replay", "foo"])
    def test_unknown_replayed_command_exit_2(self, tmp_path, command):
        # Only a run command replays; a stored replay line would be a loop.
        edit = lambda doc: doc["argv"].__setitem__(0, command)
        self.assert_replay_refused(tmp_path, "simulate", edit)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("argv"),
        lambda doc: doc.update(argv=[]),
        lambda doc: doc.update(argv="simulate --seed=0"),
    ], ids=["missing", "empty", "string"])
    def test_manifest_without_argv_exit_2(self, tmp_path, edit):
        # Manifests written before the command line was stored have no argv.
        self.assert_replay_refused(tmp_path, "simulate", edit)


class TestReplayedInputFiles:
    """A manifest records the sha256 of each file its command line names, and
    replay refuses, before ``--out`` exists, a run whose files changed."""

    def test_overwritten_checkpoint_refuses_replay(self, short_scenario, tmp_path):
        ck, ev1 = tmp_path / "ck", tmp_path / "ev1"
        train = ["train", "--scenario", short_scenario, "--budget", "0", "--out", str(ck)]
        assert main([*train, "--seed", "0"]) == EXIT_OK
        assert main(["evaluate", "--scenario", short_scenario, "--out", str(ev1),
                     "--controller", f"policy:{ck / 'checkpoint.json'}"]) == EXIT_OK
        doc = json.loads((ev1 / "manifest.json").read_text())
        assert list(doc["input_sha256"]) == [str(ck / "checkpoint.json")]
        replay = ["replay", str(ev1 / "manifest.json")]
        assert main([*replay, "--out", str(tmp_path / "same")]) == EXIT_OK
        assert read_bytes_of_csvs(tmp_path / "same") == read_bytes_of_csvs(ev1)

        assert main([*train, "--seed", "1"]) == EXIT_OK  # a different checkpoint, same path
        assert main([*replay, "--out", str(tmp_path / "ev2")]) == EXIT_USAGE
        assert not (tmp_path / "ev2").exists()
        (ck / "checkpoint.json").unlink()
        assert main([*replay, "--out", str(tmp_path / "ev3")]) == EXIT_USAGE
        assert not (tmp_path / "ev3").exists()

    def test_changed_trace_refuses_replay(self, short_scenario, tmp_path):
        run, hm = tmp_path / "run", tmp_path / "hm"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(run)]) == EXIT_OK
        trace = run / "trace_seed0.csv"
        assert main(["heatmap", "--scenario", short_scenario, "--trace", str(trace),
                     "--out", str(hm)]) == EXIT_OK
        replay = ["replay", str(hm / "manifest.json")]
        assert main([*replay, "--out", str(tmp_path / "same")]) == EXIT_OK
        assert ((tmp_path / "same" / "heatmap.svg").read_bytes()
                == (hm / "heatmap.svg").read_bytes())

        assert main(["simulate", "--scenario", short_scenario, "--controller", "min",
                     "--out", str(run)]) == EXIT_OK  # a different trace, same path
        assert main([*replay, "--out", str(tmp_path / "again")]) == EXIT_USAGE
        assert not (tmp_path / "again").exists()
        trace.unlink()
        assert main([*replay, "--out", str(tmp_path / "gone")]) == EXIT_USAGE
        assert not (tmp_path / "gone").exists()

    @pytest.mark.parametrize("record", [KeyError, None, [], "0" * 64],
                             ids=["missing", "null", "list", "string"])
    def test_manifest_without_the_record_exit_2(self, short_scenario, tmp_path, record):
        # Manifests written before the files a run reads were hashed have none.
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", short_scenario, "--out", str(first)]) == EXIT_OK
        manifest = first / "manifest.json"
        doc = json.loads(manifest.read_text())
        if record is KeyError:
            del doc["input_sha256"]
        else:
            doc["input_sha256"] = record
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        assert main(["replay", str(manifest), "--out", str(again)]) == EXIT_USAGE
        assert not again.exists()
