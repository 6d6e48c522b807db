"""Headway controllers: the two constant baselines and the learned policy head.

A controller maps an observation to a per-link autonomous headway vector;
``make_controller`` builds one by name. The learned policy is a Gaussian
over pre-squash MLP outputs; it acts with the mean, squashed through a
sigmoid so its actions always respect the headway bounds. Training samples
around the mean itself (``ppo.train``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .engine import observation_size
from .network import ConfigError, Network
from .nn import init_layers, mlp_forward
from .scenario import numbers, read_document

CHECKPOINT_FORMAT = "headwayctl-policy"
OBS_SPEC_VERSION = 1

# A fresh policy: two 64-wide tanh hidden layers and unit action noise.
HIDDEN = (64, 64)
LOG_STD_INIT = 0.0


class CheckpointError(ValueError):
    """Checkpoint file missing, unreadable, or structurally invalid."""


def squash_to_bounds(u, beta_min: float, beta_max: float):
    """Map pre-squash outputs into [beta_min, beta_max] through a sigmoid."""
    return beta_min + (beta_max - beta_min) * (0.5 * (1.0 + np.tanh(0.5 * u)))


@dataclass
class PolicyParams:
    """Gaussian policy over pre-squash outputs of a tanh MLP."""

    layers: list  # [(W, b), ...]
    log_std: np.ndarray
    beta_min_m: float
    beta_max_m: float

    @classmethod
    def new(cls, obs_dim: int, n_links: int, rng, beta_min_m: float,
            beta_max_m: float) -> "PolicyParams":
        return cls(
            layers=init_layers([obs_dim, *HIDDEN, n_links], rng),
            log_std=np.full(n_links, LOG_STD_INIT),
            beta_min_m=beta_min_m,
            beta_max_m=beta_max_m,
        )

    @property
    def obs_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def n_actions(self) -> int:
        return self.layers[-1][0].shape[1]


def policy_act(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Map an observation to a bounded headway action: the squashed mean."""
    u, _ = mlp_forward(params.layers, np.asarray(obs, dtype=float)[None, :])
    return squash_to_bounds(u[0], params.beta_min_m, params.beta_max_m)


def save_checkpoint(params: PolicyParams, path: str | FsPath) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "obs_version": OBS_SPEC_VERSION,
        "beta_min_m": params.beta_min_m,
        "beta_max_m": params.beta_max_m,
        "layer_shapes": [list(W.shape) for W, _ in params.layers],
        "layers": [{"w": W.tolist(), "b": b.tolist()} for W, b in params.layers],
        "log_std": params.log_std.tolist(),
    }
    FsPath(path).write_text(json.dumps(doc) + "\n")


def load_checkpoint(path: str | FsPath) -> PolicyParams:
    doc = read_document(path, "policy checkpoint", CheckpointError, CHECKPOINT_FORMAT)
    version = doc.get("obs_version", OBS_SPEC_VERSION)
    if type(version) is not int or version != OBS_SPEC_VERSION:
        raise CheckpointError(f"checkpoint observation spec version {version!r} "
                              f"!= {OBS_SPEC_VERSION}: {path}")
    try:
        params = PolicyParams(
            layers=[(numbers(l["w"], 2, f"layer {i} weights"),
                     numbers(l["b"], 1, f"layer {i} bias")) for i, l in enumerate(doc["layers"])],
            log_std=numbers(doc["log_std"], 1, "log_std"),
            beta_min_m=numbers(doc["beta_min_m"], 0, "beta_min_m"),
            beta_max_m=numbers(doc["beta_max_m"], 0, "beta_max_m"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint: {path}: {exc}") from exc
    shapes = [list(W.shape) for W, _ in params.layers]
    if shapes != doc.get("layer_shapes", shapes):
        raise CheckpointError(f"checkpoint layer shape mismatch in {path}")
    _check_structure(params, path)
    return params


def _check_structure(params: PolicyParams, path) -> None:
    """Layers chain, every parameter is finite, no layer's output can
    overflow, log_std matches the actions."""
    if not params.layers:
        raise CheckpointError(f"checkpoint has no layers: {path}")
    for i, (W, b) in enumerate(params.layers):
        if b.shape != (W.shape[1],):
            raise CheckpointError(
                f"checkpoint layer {i}: weights {W.shape} and bias {b.shape} do not match: {path}")
        if i and W.shape[0] != params.layers[i - 1][0].shape[1]:
            raise CheckpointError(
                f"checkpoint layer {i} takes {W.shape[0]} inputs, layer {i - 1} gives "
                f"{params.layers[i - 1][0].shape[1]}: {path}")
    if params.log_std.shape != (params.n_actions,):
        raise CheckpointError(f"checkpoint log_std has shape {params.log_std.shape}, "
                              f"expected ({params.n_actions},): {path}")
    arrays = [a for layer in params.layers for a in layer] + [params.log_std]
    if not all(np.isfinite(a).all() for a in arrays):
        raise CheckpointError(f"checkpoint has a non-finite weight, bias or log_std: {path}")
    # Observations lie in [0, 1] and tanh outputs in [-1, 1], so each layer's
    # outputs are bounded by |W| summed over its inputs plus |b|. Half the
    # largest float leaves room for the rounding of the matmul.
    for i, (W, b) in enumerate(params.layers):
        with np.errstate(over="ignore"):
            bound = np.abs(W).sum(axis=0) + np.abs(b)
        if not (bound <= np.finfo(float).max / 2).all():
            raise CheckpointError(f"checkpoint layer {i} can output {bound.max():.3g}, "
                                  f"which overflows: {path}")


def make_controller(name: str, network: Network):
    """Resolve a controller spec: 'uniform', 'min', or 'policy:<checkpoint>'.
    A baseline sets one network headway on every link: 'uniform' the human
    one, 'min' the tightest admissible platooning."""
    baselines = {"uniform": network.beta_h_m, "min": network.beta_min_m}
    if name in baselines:
        action = np.full(network.n_links, baselines[name])
        return lambda obs: action
    if name.startswith("policy:"):
        params = load_checkpoint(name.split(":", 1)[1])
        if params.n_actions != network.n_links:
            raise CheckpointError(
                f"checkpoint controls {params.n_actions} links, network has {network.n_links}"
            )
        if params.obs_dim != observation_size(network.n_links):
            raise CheckpointError(
                f"checkpoint reads {params.obs_dim} observations, the scenario gives "
                f"{observation_size(network.n_links)}"
            )
        bounds = (params.beta_min_m, params.beta_max_m)
        if bounds != (network.beta_min_m, network.beta_max_m):
            raise CheckpointError(
                f"checkpoint headway bounds {list(bounds)} differ from the scenario's "
                f"{[network.beta_min_m, network.beta_max_m]}"
            )
        return lambda obs: policy_act(params, obs)
    raise ConfigError(f"unknown controller {name!r} (want uniform, min, or policy:<path>)")
