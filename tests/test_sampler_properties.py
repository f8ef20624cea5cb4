"""The opinion sampler against the one-draw-at-a-time rejection loop.

sample_initial_opinions draws standard normals in blocks and walks each
node to the next value center + sigma * z its component accepts; the
opinions and the generator's final state must equal those of a loop that
forms center + sigma * z on one standard normal at a time, on mixtures
from almost no rejection to about 99 draws in 100 rejected.  Equality
with one rng.normal(center, sigma) call per draw, the loop the sampler
replaced, further needs numpy to form loc + scale * z without a fused
multiply-add.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from opinet import (CommunityGraph, ConfigError, GraphConfig,  # noqa: E402
                    MixtureSpec, sample_initial_opinions)
from opinet import empirical  # noqa: E402
from oracles import sample_initial_opinions as oracle_sample  # noqa: E402


def _edgeless(sizes, rng=None):
    community = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    if rng is not None:
        community = rng.permutation(community)
    return CommunityGraph(community.size, np.empty((0, 2)), community)


def _assert_same_draws(graph, mixture, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    omega = sample_initial_opinions(graph, mixture, ours)
    assert np.array_equal(omega, oracle_sample(graph, mixture, theirs))
    # the same generator state: the next draw agrees
    assert ours.random() == theirs.random()


@st.composite
def mixtures(draw):
    component = st.tuples(st.floats(0.1, 1.0), st.floats(-1.0, 1.0),
                          st.floats(-3.0, math.log10(75.0)))
    communities = tuple(
        tuple((w, c, 10.0 ** s) for w, c, s in
              draw(st.lists(component, min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 3))))
    try:
        mixture = MixtureSpec(communities)
    except ConfigError:
        # a component keeps under 1% of its mass in [-1, 1]
        assume(False)
    sizes = draw(st.lists(st.integers(1, 500), min_size=mixture.n_groups,
                          max_size=mixture.n_groups))
    return mixture, sizes, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(mixtures(), st.sampled_from([1, 5, 2 ** 10]))
def test_sampler_draws_what_the_scalar_loop_draws(case, block):
    mixture, sizes, seed = case
    graph = _edgeless(sizes, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        # short draw blocks put block ends inside rejection runs
        mp.setattr(empirical, "_DRAW_BLOCK", block)
        _assert_same_draws(graph, mixture, seed)


def test_sampler_matches_the_scalar_loop_on_the_large_micro_mixture():
    sizes = GraphConfig(n_nodes=50000, n_groups=3).community_sizes()
    _assert_same_draws(_edgeless(sizes), MixtureSpec.three_communities(), 1)
