"""A manifest replays exactly its stored command line.

For random valid options of simulate, evaluate, train (budget 0) and sweep-mu
on a short scenario, a run replayed from its manifest writes byte-identical
CSVs. An edit to the stored argv either exits 2 before ``--out`` exists or
writes exactly the CSVs of running the edited command line directly: a
dropped, repeated or moved flag, an invalid value and a controller that
reads another checkpoint (or none) exit 2, and any other valid value in
canonical form runs.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwayctl.harness import EXIT_OK, EXIT_USAGE, main
from headwayctl.scenario import braess5_scenario, save_scenario

FLAGS = {
    "simulate": ["--scenario", "--seed", "--controller"],
    "evaluate": ["--scenario", "--seed", "--controller"],
    "train": ["--scenario", "--seed", "--budget", "--n-steps", "--n-envs"],
    "sweep-mu": ["--scenario", "--seed", "--controller", "--budget", "--n-steps", "--n-envs",
                 "--mu"],
}
# Given on every run: the short scenario, and the sweep's mu values.
ALWAYS = {"--scenario", "--mu"}

EDITS = ["drop", "duplicate", "swap", "valid", "invalid"]


@pytest.fixture(scope="module")
def values(tmp_path_factory):
    """For each flag, a strategy for valid values in canonical form and one
    for values that a replay must refuse with exit 2."""
    root = tmp_path_factory.mktemp("replay")
    scenario = root / "short.json"
    sc = braess5_scenario()
    save_scenario(replace(sc, sim=replace(sc.sim, horizon_s=1800.0)), scenario)
    assert main(["train", "--scenario", str(scenario), "--budget", "0",
                 "--out", str(root / "untrained")]) == EXIT_OK
    policy = f"policy:{root / 'untrained' / 'checkpoint.json'}"
    joined = lambda items: ",".join(map(str, items))
    return {
        "--scenario": (st.just(str(scenario)), st.just(str(root / "missing.json"))),
        "--seed": (st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True).map(joined),
                   st.sampled_from(["", "-1", "0,0", "01", "1,", "x"])),
        "--controller": (st.sampled_from(["uniform", "min", policy]), st.just("foo")),
        "--budget": (st.just("0"), st.sampled_from(["x", "None", "-5", "00"])),
        "--n-steps": (st.sampled_from(["64", "128", "256"]),
                      st.sampled_from(["0", "100", "064", "x"])),
        "--n-envs": (st.sampled_from(["1", "2", "4", "8"]), st.sampled_from(["0", "3", "08"])),
        "--mu": (st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2).map(joined),
                 st.sampled_from(["", "-1", "0.10", "x"])),
    }


def csvs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def files_named(argv: list[str]) -> list[str]:
    """The arguments of a command line that name a file other than the scenario."""
    return [arg for arg in argv if arg.startswith("--controller=policy:")]


def replay(manifest: Path, argv: list[str], out: Path) -> int:
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(dict(doc, argv=argv)))
    return main(["replay", str(manifest), "--out", str(out)])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_replay_runs_the_stored_command_line(values, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    argv = [command]
    for flag in data.draw(st.permutations(FLAGS[command]), label="flag order"):
        if flag in ALWAYS or data.draw(st.booleans(), label=f"give {flag}"):
            argv.append(f"{flag}={data.draw(values[flag][0], label=flag)}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        assert main([*argv, "--out", str(root / "first")]) == EXIT_OK
        manifest = root / "first" / "manifest.json"
        stored = json.loads(manifest.read_text())["argv"]
        assert stored[0] == command and set(argv) <= set(stored)
        assert replay(manifest, stored, root / "again") == EXIT_OK
        assert csvs(root / "again") == csvs(root / "first")

        edit = data.draw(st.sampled_from(EDITS), label="edit")
        i = data.draw(st.integers(1, len(stored) - 1), label="index")
        edited = list(stored)
        if edit == "drop":
            del edited[i]
        elif edit == "duplicate":
            edited.insert(i, stored[i])
        elif edit == "swap":
            j = data.draw(st.integers(1, len(stored) - 1).filter(lambda j: j != i), label="with")
            edited[i], edited[j] = stored[j], stored[i]
        else:
            flag = stored[i].split("=")[0]
            text = data.draw(values[flag][edit == "invalid"], label=f"new {flag}")
            edited[i] = f"{flag}={text}"

        code = replay(manifest, edited, root / "edited")
        # The manifest holds the sha256 of the files its own command line
        # names; a line that names other files cannot be checked against it.
        if edit != "valid" or files_named(edited) != files_named(stored):
            assert code == EXIT_USAGE
            assert not (root / "edited").exists()
            return
        assert code == EXIT_OK
        assert main([*edited, "--out", str(root / "direct")]) == EXIT_OK
        assert csvs(root / "edited") == csvs(root / "direct")
