"""Network construction, derived paths, demand profiles, scenario IO."""

import copy
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headwayctl import network as network_module
from headwayctl.engine import run_episode
from headwayctl.harness import _scenario_sha256
from headwayctl.network import ConfigError, DemandProfile, Link, Network, ODPair, demand_at
from headwayctl.scenario import (
    Scenario,
    SimConfig,
    braess5_scenario,
    braess8_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def brute_force_paths(links, origin, destination):
    """Independent oracle: plain recursive enumeration over node sequences."""
    adj = {}
    for l in links:
        adj.setdefault(l.from_node, []).append(l)
    results = []

    def go(node, node_trail, link_trail):
        if node == destination:
            results.append(tuple(link_trail))
            return
        for l in adj.get(node, []):
            if l.to_node not in node_trail:
                go(l.to_node, node_trail + [l.to_node], link_trail + [l.id])

    go(origin, [origin], [])
    return sorted(results)


def edge_links(edges):
    """Links of (from, to) edges, link i being edge i."""
    return tuple(Link(i, frm, to, 100.0, 1, 10.0, 0.5) for i, (frm, to) in enumerate(edges))


def network(edges, origin, destination):
    return Network(links=edge_links(edges), od_pairs=(ODPair(origin, destination),),
                   beta_min_m=1.0, beta_max_m=10.0, beta_h_m=6.0)


class TestBraess5:
    def test_geometry(self):
        net = braess5_scenario().network
        assert net.n_links == 5
        assert net.links[4].length_m == 60_000.0
        for i in range(4):
            assert net.links[i].length_m == 240_000.0
        assert all(l.free_flow_speed_mps == 30.0 for l in net.links)

    def test_three_paths_match_brute_force(self):
        net = braess5_scenario().network
        assert list(net.paths) == brute_force_paths(net.links, "O", "D")
        assert net.paths == ((0, 1), (0, 4, 3), (2, 3))

    def test_lane_ratios(self):
        net = braess5_scenario().network
        assert net.links[0].lanes == 2 * net.links[1].lanes
        assert net.links[3].lanes == 2 * net.links[2].lanes
        assert net.links[4].lanes == max(l.lanes for l in net.links)

    def test_defaults(self):
        net = braess5_scenario().network
        assert net.beta_h_m == 6.0
        assert (net.beta_min_m, net.beta_max_m) == (1.0, 10.0)
        assert all(l.jam_spacing_m == 0.5 for l in net.links)

    def test_invalid_override_rejected(self):
        net = braess5_scenario().network
        wide = tuple(replace(l, jam_spacing_m=1.5) for l in net.links)
        with pytest.raises(ConfigError, match="jam spacing"):
            replace(net, links=wide)  # >= beta_min
        with pytest.raises(ConfigError, match="within the action bounds"):
            replace(net, beta_h_m=99.0)

    def test_link_arrays_are_read_only(self):
        net = braess5_scenario().network
        assert np.array_equal(net.length_m, [l.length_m for l in net.links])
        assert np.array_equal(net.jam_density, [l.jam_density for l in net.links])
        with pytest.raises(ValueError, match="read-only"):
            net.length_m[0] = 1.0


class TestBraess8:
    def test_link_count(self):
        assert braess8_scenario().network.n_links == 8

    def test_copied_attributes(self):
        net = braess8_scenario().network
        for new, old in ((5, 2), (6, 1), (7, 4)):
            assert net.links[new].length_m == net.links[old].length_m
            assert net.links[new].lanes == net.links[old].lanes
            assert net.links[new].free_flow_speed_mps == net.links[old].free_flow_speed_mps

    def test_paths_exist_and_match_brute_force(self):
        net = braess8_scenario().network
        assert len(net.paths) == 5
        assert list(net.paths) == brute_force_paths(net.links, "O", "D")


class TestEnumeratePaths:
    """A network derives its paths from its links and its O/D pair."""

    def test_single_edge(self):
        assert network([("a", "b")], "a", "b").paths == ((0,),)

    def test_disconnected_raises(self):
        with pytest.raises(ConfigError, match="no path from b to a"):
            network([("a", "b")], "b", "a")

    def test_hand_built_network_matches_brute_force(self):
        # A cycle (links 1, 2), parallel links (3, 4), a dead end (5), a link
        # back into the origin (6) and a link out of the destination (7).
        edges = [("o", "x"), ("x", "y"), ("y", "x"), ("y", "d"), ("y", "d"),
                 ("x", "z"), ("y", "o"), ("d", "x")]
        net = network(edges, "o", "d")
        assert net.paths == ((0, 1, 3), (0, 1, 4))
        assert list(net.paths) == brute_force_paths(net.links, "o", "d")

    @given(st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"))
                    .filter(lambda e: e[0] != e[1]), max_size=9))
    @settings(max_examples=60, derandomize=True)
    def test_random_graphs_match_brute_force(self, edges):
        want = brute_force_paths(edge_links(edges), "a", "b")
        if want:
            assert list(network(edges, "a", "b").paths) == want
        else:
            with pytest.raises(ConfigError, match="no path from a to b"):
                network(edges, "a", "b")

    def test_paths_are_derived_not_given(self):
        # No constructor takes a path list, so a path that runs backwards,
        # stops short of the destination or names an unknown link cannot be
        # built; replacing the O/D pair derives its own paths.
        net = braess5_scenario().network
        with pytest.raises(TypeError):
            Network(links=net.links, od_pairs=net.od_pairs, beta_min_m=1.0, beta_max_m=10.0,
                    beta_h_m=6.0, paths=((1, 0), (2,)))
        with pytest.raises(TypeError):
            ODPair("O", "D", ((9,),))
        assert replace(net, od_pairs=(ODPair("O", "B"),)).paths == ((0, 4), (2,))

    def test_paths_are_node_consistent(self):
        net = braess8_scenario().network
        by_id = {l.id: l for l in net.links}
        for path in net.paths:
            for a, b in zip(path, path[1:]):
                assert by_id[a].to_node == by_id[b].from_node
            nodes = [by_id[path[0]].from_node] + [by_id[l].to_node for l in path]
            assert len(set(nodes)) == len(nodes)  # simple path

    def test_deterministic_lexicographic_order(self):
        net = braess5_scenario().network
        assert list(net.paths) == sorted(net.paths)


def complete_digraph(n_nodes):
    """Edges of the complete digraph on nodes 0..n-1; origin 0 and destination
    n-1 are joined by sum((n-2)!/k! for k in 0..n-2) simple paths."""
    return [(str(a), str(b)) for a in range(n_nodes) for b in range(n_nodes) if a != b]


class TestPathLimit:
    """A network of more than MAX_PATHS simple paths is refused at load."""

    @pytest.mark.parametrize("n_nodes, n_paths", [(8, 1_957), (12, 9_864_101)])
    def test_too_many_paths_refused_quickly(self, n_nodes, n_paths):
        # Checked first: the 12-node search would exhaust memory unbounded.
        assert network_module.MAX_PATHS < n_paths
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"more than {network_module.MAX_PATHS} paths "
                                              f"from 0 to {n_nodes - 1}"):
            network(complete_digraph(n_nodes), "0", str(n_nodes - 1))
        assert time.perf_counter() - start < 1.0

    def test_a_network_under_the_limit_loads(self):
        # 7 nodes: 326 paths.
        assert len(network(complete_digraph(7), "0", "6").paths) == 326


class TestDemand:
    PROFILE = DemandProfile(
        breakpoints=((0.0, 0.0), (100.0, 8.0), (200.0, 8.0), (300.0, 0.0), (400.0, 0.0)),
        autonomy_fraction=0.5,
    )

    def test_zero_at_start(self):
        assert demand_at(self.PROFILE, 0.0) == 0.0

    def test_peak_value(self):
        assert demand_at(self.PROFILE, 150.0) == 8.0

    def test_zero_after_cooldown(self):
        assert demand_at(self.PROFILE, 350.0) == 0.0
        assert demand_at(self.PROFILE, 1e9) == 0.0

    def test_linear_interpolation(self):
        assert demand_at(self.PROFILE, 50.0) == pytest.approx(4.0, rel=1e-12)
        assert demand_at(self.PROFILE, 250.0) == pytest.approx(4.0, rel=1e-12)

    def test_continuity_and_nonnegativity(self):
        ts = np.linspace(-10.0, 500.0, 2000)
        vals = np.array([demand_at(self.PROFILE, t) for t in ts])
        assert np.all(vals >= 0.0)
        assert np.max(np.abs(np.diff(vals))) < 0.05  # no jumps on a fine grid

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ConfigError):
            DemandProfile(breakpoints=((10.0, 1.0), (0.0, 1.0)), autonomy_fraction=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_breakpoints_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            DemandProfile(breakpoints=((0.0, 1.0), (10.0, bad)), autonomy_fraction=0.5)
        with pytest.raises(ConfigError, match="finite"):
            DemandProfile(breakpoints=((0.0, 1.0), (bad, 1.0)), autonomy_fraction=0.5)

    def test_cached_knots_match_list_interpolation(self):
        # The knot arrays are built once per profile; the rate must equal
        # np.interp over freshly built lists, bit for bit, at every time.
        pts = self.PROFILE.breakpoints
        times = [t for t, _ in pts]
        rates = [r for _, r in pts]
        ts = np.concatenate([np.linspace(-50.0, 450.0, 1001), times, [-1e9, 1e9]])
        for t in ts:
            inside = times[0] <= t <= times[-1]
            want = float(np.interp(t, times, rates)) if inside else 0.0
            assert demand_at(self.PROFILE, float(t)) == want


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        sc = braess5_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(sc)

    def test_older_sim_seed_key_is_ignored(self, tmp_path):
        # Every random draw comes from the episode seed; files written while
        # scenarios still carried a seed load as the same scenario.
        doc = scenario_to_dict(braess5_scenario())
        older = json.loads(json.dumps(doc))
        older["sim"]["seed"] = 7
        assert scenario_to_dict(scenario_from_dict(older)) == doc

    def test_missing_optional_sim_keys_take_simconfig_defaults(self):
        doc = scenario_to_dict(braess5_scenario())
        for key in ("initial_jitter", "latency_unit_s", "reward_scale"):
            del doc["sim"][key]
        assert scenario_from_dict(doc).sim == braess5_scenario().sim

    def test_builtin_names(self):
        assert load_scenario("braess5").network.n_links == 5
        assert load_scenario("braess8").network.n_links == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read scenario"):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"network": {}})

    def test_schema_sections(self, tmp_path):
        sc = braess5_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"network", "od", "demand", "control", "sim"}
        link0 = doc["network"]["links"][0]
        assert set(link0) >= {"id", "from", "to", "length_m", "lanes", "vff_mps", "jam_spacing_m"}
        assert set(doc["control"]) == {"beta_min_m", "beta_max_m", "beta_h_m", "action_period_s"}

    @pytest.mark.parametrize("n_pairs", [0, 2])
    def test_network_holds_exactly_one_od_pair(self, n_pairs):
        # The engine, the scenario format and the builders all hold one
        # O/D pair, so a network with any other number is refused when built.
        net = braess8_scenario().network
        pairs = (net.od_pairs[0], ODPair(origin="A", destination="D"))
        with pytest.raises(ConfigError, match="one O/D pair"):
            Network(links=net.links, od_pairs=pairs[:n_pairs], beta_min_m=net.beta_min_m,
                    beta_max_m=net.beta_max_m, beta_h_m=net.beta_h_m)


def test_critical_below_jam_for_all_actions():
    from headwayctl.fundamental import critical_density

    net = braess5_scenario().network
    rng = np.random.default_rng(0)
    for _ in range(200):
        beta_a = rng.uniform(net.beta_min_m, net.beta_max_m)
        alpha = rng.uniform(0.0, 1.0)
        nc = critical_density(net.lanes, alpha, beta_a, net.beta_h_m)
        assert np.all(nc < net.jam_density)


def document_paths(node, at=()):
    """Every key and list index path in a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    paths = []
    for key, child in items:
        paths.append((*at, key))
        if isinstance(child, (dict, list)):
            paths += document_paths(child, (*at, key))
    return paths


DELETE = object()
# Finite floats far from the built-in scenarios' magnitudes, either sign.
EXTREME_FLOATS = st.one_of(
    st.sampled_from([1.7976931348623157e308, 1e308, 1e306, 1e300, 1e154, 2.2250738585072014e-308,
                     5e-324, 1e-300, 1e-303]),
    st.floats(1e100, 1.7976931348623157e308), st.floats(5e-324, 1e-100),
)
REPLACEMENTS = st.one_of(
    EXTREME_FLOATS, EXTREME_FLOATS.map(lambda x: -x),
    st.sampled_from([0.0, 0, float("nan"), DELETE]),
    st.sampled_from(["x", None, True, [], {}, [1.0, 2.0]]).map(copy.deepcopy),
)


def short_braess5_document(horizon_s):
    sc = braess5_scenario()
    return scenario_to_dict(replace(sc, sim=replace(sc.sim, horizon_s=horizon_s)))


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_scenario_fails_at_load_or_runs_a_finite_episode(data):
    """One or two values of a short braess5 document replaced by an extreme,
    zero, NaN or wrongly typed value, or deleted: the document either raises
    ConfigError when it loads, or runs an episode to a finite TTT under each
    constant action at the human, the minimum and the maximum headway, with
    no exception and no overflow warning (the test run makes warnings errors)."""
    doc = short_braess5_document(data.draw(st.sampled_from([60.0, 600.0, 1800.0]), "horizon"))
    for _ in range(data.draw(st.integers(1, 2), "edits")):
        *parents, key = data.draw(st.sampled_from(document_paths(doc)), "path")
        owner = doc
        for part in parents:
            owner = owner[part]
        value = data.draw(REPLACEMENTS, "value")
        if value is DELETE:
            del owner[key]
        else:
            owner[key] = value
    try:
        scenario = scenario_from_dict(doc)
    except ConfigError:
        return
    net = scenario.network
    for headway in (net.beta_h_m, net.beta_min_m, net.beta_max_m):
        action = np.full(net.n_links, headway)
        trace = run_episode(scenario, lambda obs: action, 0)
        assert np.isfinite(trace.ttt) and np.isfinite(trace.total_exited)


@st.composite
def valid_scenarios(draw):
    """A built-in network with its nodes renamed, and every value of the
    format redrawn inside its valid range."""
    builtin = draw(st.sampled_from([braess5_scenario, braess8_scenario]))()
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=5, max_size=5, unique=True))
    rename = dict(zip("OABCD", names))
    links = tuple(
        Link(l.id, rename[l.from_node], rename[l.to_node], draw(st.floats(1.0, 1e6)),
             draw(st.integers(1, 8)), draw(st.floats(0.5, 40.0)), draw(st.floats(0.1, 0.99)))
        for l in builtin.network.links)
    beta_min = draw(st.floats(1.0, 3.0))
    beta_max = beta_min + draw(st.floats(0.1, 20.0))
    network = Network(links, (ODPair(rename["O"], rename["D"]),), beta_min, beta_max,
                      beta_h_m=beta_min + draw(st.floats(0.0, 0.99)) * (beta_max - beta_min))
    times = sorted(draw(st.lists(st.floats(0.0, 1e5), max_size=5)))
    demand = DemandProfile(tuple((t, draw(st.floats(0.0, 100.0))) for t in times),
                           autonomy_fraction=draw(st.floats(0.0, 1.0)))
    dt_s = draw(st.sampled_from([0.1, 1.0, 7.0, 60.0]))
    jitter = draw(st.floats(0.0, 0.9))
    counted = draw(st.lists(st.integers(0, network.n_links - 1), unique=True))
    initial_counts = {i: draw(st.floats(0.0, 0.99)) * links[i].jam_density * links[i].length_m
                      / (1.0 + jitter) for i in counted}
    sim = SimConfig(dt_s=dt_s, horizon_s=dt_s * draw(st.integers(1, 300)),
                    action_period_s=dt_s * draw(st.integers(1, 50)), initial_counts=initial_counts,
                    mu_h=draw(st.floats(0.0, 10.0)), mu_a=draw(st.floats(0.0, 10.0)),
                    initial_jitter=jitter, latency_unit_s=draw(st.floats(1e-2, 1e3)),
                    reward_scale=draw(st.floats(1e-6, 10.0)))
    return Scenario(network, demand, sim)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(valid_scenarios())
def test_every_valid_scenario_round_trips(scenario):
    """Written as JSON text and read back, a scenario is the same scenario
    with the same manifest hash."""
    loaded = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
    assert loaded == scenario
    assert _scenario_sha256(loaded) == _scenario_sha256(scenario)


def braess5_document():
    """A short braess5 document with no initial counts, so the origin can move."""
    doc = short_braess5_document(1800.0)
    doc["sim"]["initial_counts"] = {}
    return doc


def field(doc, name):
    """The container and key of a ``section.key`` name; link keys are link 4's."""
    section, *keys = name.split(".")
    if keys[0] == "links":
        return doc[section]["links"][4], keys[1]
    return doc[section], keys[0]


# The keys a document may leave out: each then takes SimConfig's default,
# which braess5 also uses.
OPTIONAL_KEYS = {"sim.initial_counts", "sim.initial_jitter", "sim.latency_unit_s",
                 "sim.reward_scale"}
# Another valid value of each key the writer emits. Link keys are set on
# link 4, the shortcut A->B: "from" makes it O->B, "to" makes it A->D.
OTHER_VALUES = {
    "network.links.from": "O",
    "network.links.to": "D",
    "network.links.length_m": 30_000.0,
    "network.links.lanes": 4,
    "network.links.vff_mps": 25.0,
    "network.links.jam_spacing_m": 0.25,
    "od.origin": "A",
    "od.destination": "B",
    "od.autonomy_fraction": 0.5,
    "demand.breakpoints": [[0.0, 0.0], [600.0, 1.0]],
    "control.beta_min_m": 2.0,
    "control.beta_max_m": 12.0,
    "control.beta_h_m": 5.0,
    "control.action_period_s": 300.0,
    "sim.dt_s": 30.0,
    "sim.horizon_s": 1200.0,
    "sim.initial_counts": {"0": 1000.0},
    "sim.mu_h": 0.2,
    "sim.mu_a": 0.3,
    "sim.initial_jitter": 0.1,
    "sim.latency_unit_s": 30.0,
    "sim.reward_scale": 0.01,
}


def test_every_written_key_is_read():
    """Deleting a key the writer emits raises ConfigError unless the key is
    optional, and another valid value loads another scenario: no key is
    written but ignored. A link id has no other valid value, so a changed id
    is refused."""
    doc = braess5_document()
    base = scenario_from_dict(doc)
    names = [f"network.links.{key}" for key in doc["network"]["links"][4]]
    names += [f"{section}.{key}" for section in doc for key in doc[section] if key != "links"]
    assert sorted(names) == sorted([*OTHER_VALUES, "network.links.id"])
    for name in names:
        doc = braess5_document()
        owner, key = field(doc, name)
        del owner[key]
        if name in OPTIONAL_KEYS:
            assert scenario_from_dict(doc) == base, name
        else:
            with pytest.raises(ConfigError):
                scenario_from_dict(doc)
        doc = braess5_document()
        owner, key = field(doc, name)
        if name == "network.links.id":
            owner[key] = 5
            with pytest.raises(ConfigError, match="link ids"):
                scenario_from_dict(doc)
        else:
            owner[key] = OTHER_VALUES[name]
            assert scenario_from_dict(doc) != base, name
