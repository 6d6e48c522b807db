"""The benchmark still finds every name it reads from the program.

``perfbench/tracer.py`` wraps the program's layer functions by name. Entering
and leaving a ``Tracer`` patches and restores them without running anything,
so a refactor that renames or deletes one of those names fails here, not
only in a traced benchmark run. ``perfbench/workloads.py`` reads training
values off ``TrainConfig()`` and network and env values in its exact-count
checks; tests evaluate those checks against an empty report. Another test
pins every value the program lets a caller set, so that a new knob fails by
name. The last one checks that the repo's pytest settings report a failing
Hypothesis test as a failure and go on to the next test.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
import textwrap
from numbers import Integral
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module(TRACER)


def owner_and_attr(site):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_patches_and_restores_every_layer():
    tracer = load_tracer()
    sites = [owner_and_attr(site) for _, _, layer_sites in tracer.LAYERS
             for site in layer_sites]
    originals = [vars(owner)[attr] for owner, attr in sites]
    with tracer.Tracer():
        for (owner, attr), original in zip(sites, originals):
            assert vars(owner)[attr].__wrapped__ is original, f"{owner.__name__}.{attr}"
    for (owner, attr), original in zip(sites, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_train_config_holds_only_the_cli_values():
    """The four values the CLI sets are fields; every other training value is a
    constant, and ``TrainConfig()`` still answers each name the benchmark reads."""
    from dataclasses import fields

    from headwayctl.ppo import TrainConfig

    assert [f.name for f in fields(TrainConfig)] == ["total_steps", "seed", "n_steps", "n_envs"]
    config = TrainConfig()
    for name in ("n_steps", "n_envs", "n_epochs", "batch_size", "eval_seeds"):
        assert getattr(config, name) is not None, name


class EmptyReport:
    """The report of a traced run that recorded no spans."""

    def calls(self, prefix):
        return 0

    def calls_under(self, prefix, parent_prefix):
        return 0

    def calls_per_episode(self, prefix):
        return np.zeros(0, dtype=int)


def test_workload_count_checks_find_every_name(tmp_path):
    """Each workload sets up and states its exact counts for one call: every
    env, network and config name those checks read still exists."""
    workloads = load_module(WORKLOADS)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 0, tmp_path / name)
        workload.setup()
        counts = workload.expected_counts(EmptyReport(), [workload.op(0)])
        assert counts, name
        for metric, measured, expected in counts:
            assert measured == 0, (name, metric)
            assert isinstance(expected, Integral) and expected >= 0, (name, metric, expected)


# Every parameter and dataclass field in src/headwayctl that has a default.
SETTABLE_VALUES = [
    "harness.main.argv",
    "nn.init_layers.out_scale",
    "policies.PolicyParams.obs_version",
    "ppo.TrainConfig.total_steps",
    "ppo.TrainConfig.seed",
    "ppo.TrainConfig.n_steps",
    "ppo.TrainConfig.n_envs",
    "ppo.train.config",
    "scenario.SimConfig.dt_s",
    "scenario.SimConfig.horizon_s",
    "scenario.SimConfig.action_period_s",
    "scenario.SimConfig.initial_counts",
    "scenario.SimConfig.mu_h",
    "scenario.SimConfig.mu_a",
    "scenario.SimConfig.initial_jitter",
    "scenario.SimConfig.latency_unit_s",
    "scenario.SimConfig.reward_scale",
]


def settable_values(tree: ast.AST, prefix: str) -> list[str]:
    """Names of the parameters with a default and the dataclass fields with a
    default under ``tree``; ``ClassVar`` and ``init=False`` fields are constants
    or derived, not settable."""
    names = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            names += [f"{prefix}{node.name}.{a.arg}" for a in defaulted]
            names += settable_values(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for item in node.body:
                    if not (isinstance(item, ast.AnnAssign) and item.value is not None):
                        continue
                    init_false = isinstance(item.value, ast.Call) and any(
                        k.arg == "init" and ast.literal_eval(k.value) is False
                        for k in item.value.keywords)
                    if "ClassVar" not in ast.unparse(item.annotation) and not init_false:
                        names.append(f"{prefix}{node.name}.{item.target.id}")
            names += settable_values(node, f"{prefix}{node.name}.")
    return names


def test_settable_values():
    """Only the values a caller needs to vary are settable: a new parameter or
    dataclass field with a default must be added here by name."""
    found = []
    for path in sorted((ROOT / "src" / "headwayctl").glob("*.py")):
        found += settable_values(ast.parse(path.read_text()), f"{path.stem}.")
    assert found == SETTABLE_VALUES


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """Reporting a failing example imports libcst, which warns; under the repo's
    warnings-as-errors filter that warning must not end the run."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_runs_after():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
