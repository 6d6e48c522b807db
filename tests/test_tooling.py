"""The benchmark still finds every name it reads from the program.

``perfbench/tracer.py`` wraps the program's layer functions by name. Entering
and leaving a ``Tracer`` patches and restores them without running anything,
so a refactor that renames or deletes one of those names fails here, not
only in a traced benchmark run. ``perfbench/workloads.py`` reads training
values off ``TrainConfig()`` and network and env values in its exact-count
checks; tests evaluate those checks against an empty report and against one
traced call of each workload, whose counts must match. Another test
pins every value the program lets a caller set, so that a new knob fails by
name, one pins the scenario format's keys the same way, one pins the names
the package exports, one finds JSON decoded in a single function, and one
finds the scenario loaded and the manifest written only by the CLI's run
sequence. The last one
checks that the repo's pytest settings report a failing Hypothesis test as a
failure and go on to the next test.
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


def test_one_traced_call_meets_the_exact_counts(tmp_path):
    """One traced call of each workload gives its reference outputs (the train
    workload's learning curve among them) and every exact span count the
    benchmark checks."""
    tracer, workloads = load_tracer(), load_module(WORKLOADS)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 0, tmp_path / name)
        workload.setup()
        with tracer.Tracer() as traced:
            result = workload.run(0)
        assert result.failed == 0, name
        counts = workload.expected_counts(traced.report(), [result.op])
        assert [(m, got) for m, got, _ in counts] == [(m, want) for m, _, want in counts], name


# Every parameter and dataclass field in src/headwayctl that has a default.
SETTABLE_VALUES = [
    "harness.main.argv",
    "nn.init_layers.out_scale",
    "ppo.TrainConfig.total_steps",
    "ppo.TrainConfig.seed",
    "ppo.TrainConfig.n_steps",
    "ppo.TrainConfig.n_envs",
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


# Every key of the scenario file format, as ``section.key``; a link's keys
# are ``network.links.<key>``.
SCENARIO_KEYS = [
    "network.links.id",
    "network.links.from",
    "network.links.to",
    "network.links.length_m",
    "network.links.lanes",
    "network.links.vff_mps",
    "network.links.jam_spacing_m",
    "od.origin",
    "od.destination",
    "od.autonomy_fraction",
    "demand.breakpoints",
    "control.beta_min_m",
    "control.beta_max_m",
    "control.beta_h_m",
    "control.action_period_s",
    "sim.dt_s",
    "sim.horizon_s",
    "sim.initial_counts",
    "sim.mu_h",
    "sim.mu_a",
    "sim.initial_jitter",
    "sim.latency_unit_s",
    "sim.reward_scale",
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


def test_scenario_keys():
    """The scenario format names only these keys, in this order: a new key
    must be added here by name, as a new settable value must."""
    from headwayctl.scenario import braess8_scenario, scenario_to_dict

    doc = scenario_to_dict(braess8_scenario())
    keys = [f"network.links.{key}" for key in doc["network"]["links"][0]]
    keys += [f"{section}.{key}" for section in doc for key in doc[section] if key != "links"]
    assert keys == SCENARIO_KEYS
    assert all(list(link) == list(doc["network"]["links"][0]) for link in doc["network"]["links"])


# The public names ``headwayctl`` exports, in the order its ``__init__`` binds them.
EXPORTED_NAMES = [
    "EpisodeTrace", "TrafficEnv", "run_episode",
    "capacity", "congestion_state", "critical_density", "link_latency", "path_latency",
    "sending_flow",
    "ConfigError", "DemandProfile", "Link", "Network", "ODPair", "demand_at",
    "PolicyParams", "load_checkpoint", "make_controller", "policy_act", "save_checkpoint",
    "TrainConfig", "compute_gae", "evaluate_policy", "train",
    "logit_update", "step_shares",
    "Scenario", "SimConfig", "braess5_scenario", "braess8_scenario", "load_scenario",
    "save_scenario",
]


def test_exported_names():
    """The package exports only these names: one added to or removed from
    ``__init__`` fails here by name, as a new settable value does."""
    tree = ast.parse((ROOT / "src" / "headwayctl" / "__init__.py").read_text())
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
    assert [name for name in found if not name.startswith("_")] == EXPORTED_NAMES


def json_decoders(tree: ast.AST, function: str = "") -> list[str]:
    """The functions under ``tree``, by name, that call ``json.load`` or
    ``json.loads``; a call outside any function counts as ``""``."""
    names = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names += json_decoders(node, node.name)
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            names.append(function)
        names += json_decoders(node, function)
    return names


def test_json_is_decoded_in_one_function():
    """The scenario, the checkpoint and the manifest are read by one function,
    so a new hand-rolled reader fails here by name."""
    found = []
    for path in sorted((ROOT / "src" / "headwayctl").glob("*.py")):
        found += [f"{path.stem}.{name}" for name in json_decoders(ast.parse(path.read_text()))]
    assert found == ["scenario.read_document"]


def callers(tree: ast.AST, callee: str, function: str = "") -> list[str]:
    """The functions under ``tree``, by name, that call ``callee`` by its bare
    name, once per call; a call outside any function counts as ``""``."""
    names = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names += callers(node, callee, node.name)
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == callee):
            names.append(function)
        names += callers(node, callee, function)
    return names


def test_main_runs_every_command_in_one_sequence():
    """``harness.main`` loads the scenario and writes the manifest for every
    command, so no command does either; ``_replay`` loads the replayed run's
    scenario, checks its hash and hands it to ``main``."""
    tree = ast.parse((ROOT / "src" / "headwayctl" / "harness.py").read_text())
    assert callers(tree, "load_scenario") == ["_replay", "main"]
    assert callers(tree, "_write_manifest") == ["main"]


def test_main_reads_argv_only_to_parse_it():
    """``harness.main`` reads its ``argv`` only as the argument of
    ``parser.parse_args``, so argparse makes every refusal of a command line."""
    tree = ast.parse((ROOT / "src" / "headwayctl" / "harness.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    parsed = [arg for node in ast.walk(main) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr == "parse_args"
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "parser"
              for arg in node.args]
    reads = [node for node in ast.walk(main) if isinstance(node, ast.Name) and node.id == "argv"]
    assert parsed and reads == parsed


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
