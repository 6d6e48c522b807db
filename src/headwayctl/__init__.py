"""Dynamic headway control for mixed-autonomy traffic networks.

A discrete-time macroscopic simulator in which a controller sets the
per-link headway of autonomous vehicles, reshaping link capacities and --
through selfish route-choice dynamics -- the distribution of traffic. Ships
with two Braess-geometry scenarios, two constant-headway baselines, and a
from-scratch clipped policy-gradient trainer.
"""

from .engine import EpisodeTrace, TrafficEnv, run_episode, total_travel_time
from .fundamental import (
    capacity,
    congestion_state,
    critical_density,
    link_latency,
    path_latency,
    sending_flow,
)
from .network import (
    ConfigError,
    DemandProfile,
    Link,
    Network,
    ODPair,
    Path,
    ScenarioError,
    ScenarioOverrides,
    build_braess_5,
    build_braess_8,
    demand_at,
    enumerate_paths,
)
from .policies import (
    PolicyParams,
    load_checkpoint,
    make_controller,
    min_headway_policy,
    policy_act,
    save_checkpoint,
    uniform_headway_policy,
)
from .ppo import TrainConfig, compute_gae, evaluate_policy, train
from .routing import logit_update, step_shares
from .scenario import (
    Scenario,
    SimConfig,
    braess5_scenario,
    braess8_scenario,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"
