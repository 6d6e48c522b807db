#!/usr/bin/env python3
"""Train the headway policy on Braess-5 (scaled-down budget) and compare.

A real run uses the defaults (2048-step buffer, tens of updates; see the
acceptance suite). This demo shrinks the buffer so a few updates finish in
under a minute and still shows the learning direction. Pass a decision-step
budget as the first argument to train longer.
"""

import sys
import time

import numpy as np

from headwayctl import braess5_scenario, make_controller, run_episode
from headwayctl.ppo import TrainConfig, evaluate_policy, train

budget = int(sys.argv[1]) if len(sys.argv) > 1 else 2048
scenario = braess5_scenario()
config = TrainConfig(total_steps=budget, n_steps=512, n_envs=8, seed=0)

print(f"training for {budget} decision steps (buffer {config.n_steps})...")
start = time.time()
params, curve = train(scenario, config)
print(f"{len(curve)} updates in {time.time() - start:.0f}s")
for row in curve:
    print(f"  update {row['update_index']:>3}: eval TTT {row['mean_eval_ttt']:.4e}  "
          f"(best {row['best_eval_ttt']:.4e}, clip {row['clip_fraction']:.2f})")

seeds = [0, 1, 2, 3, 4]
policy_ttt = evaluate_policy(scenario, params, seeds)
uniform = make_controller("uniform", scenario.network)
uniform_ttt = [run_episode(scenario, uniform, s).ttt for s in seeds]

print()
print(f"{'seed':>4} | {'policy':>12} | {'uniform':>12} | better?")
for s, p, u in zip(seeds, policy_ttt, uniform_ttt):
    print(f"{s:>4} | {p:>12.4e} | {u:>12.4e} | {'yes' if p < u else 'no'}")
gain = 100.0 * (np.mean(uniform_ttt) - np.mean(policy_ttt)) / np.mean(uniform_ttt)
print(f"mean improvement vs uniform: {gain:+.2f}%")
