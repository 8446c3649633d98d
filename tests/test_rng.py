import numpy as np
from hypothesis import given, settings, strategies as st

from greedygraph import rng
from greedygraph.branching import SurvivalModel, simulate_tree
from greedygraph.numerics import RoundContext
from greedygraph.process import final_distribution_sample


def test_same_cell_reproduces():
    a = rng.stream(7, 3, round_=2, purpose=rng.ROUNDS).random(16)
    b = rng.stream(7, 3, round_=2, purpose=rng.ROUNDS).random(16)
    assert np.array_equal(a, b)


def test_cells_are_distinct():
    base = rng.stream(7, 3, round_=2, purpose=rng.ROUNDS).random(8)
    for other in (rng.stream(8, 3, 2, rng.ROUNDS), rng.stream(7, 4, 2, rng.ROUNDS),
                  rng.stream(7, 3, 3, rng.ROUNDS), rng.stream(7, 3, 2, rng.TREE)):
        assert not np.array_equal(base, other.random(8))


def test_frozen_reference_stream():
    # pins the Philox keying; any change here breaks every stored report
    vals = rng.stream(0, 0, 0, rng.EXACT).random(4)
    assert np.allclose(vals, [0.34218278474233466, 0.5765144536585864,
                              0.08665198221933101, 0.635531779794157],
                       rtol=0, atol=1e-15)


def _draws(gen):
    """A mixed run of the draws the package makes: doubles, binomials,
    buffered 32-bit integers and a sample without replacement."""
    return (gen.random(3).tolist(), gen.binomial(40, 0.3, size=3).tolist(),
            gen.integers(0, 1000, size=3, dtype=np.int32).tolist(),
            gen.choice(500, size=7, replace=False).tolist(), gen.random())


_words = st.integers(min_value=-2 ** 70, max_value=2 ** 70)


@given(cell=st.tuples(_words, _words, _words, _words),
       used=st.lists(st.sampled_from(["random", "binomial", "int32", "choice"]),
                     min_size=1, max_size=6),
       odd=st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_rekey_matches_fresh_stream(cell, used, odd):
    # a re-keyed generator draws what a fresh stream of the same cell draws,
    # whatever the generator drew before, including a buffered 32-bit half
    streams = rng.Streams()
    gen = streams.rekey(3, 1, 2, rng.SAMPLE)
    for kind in used:
        if kind == "random":
            gen.random(2 * odd + 1)
        elif kind == "binomial":
            gen.binomial(25, 0.4, size=2 * odd + 1)
        elif kind == "int32":
            gen.integers(0, 7, size=2 * odd + 1, dtype=np.int32)
        else:
            gen.choice(100, size=2 * odd + 1, replace=False)
    assert _draws(streams.rekey(*cell)) == _draws(rng.stream(*cell))


def test_loops_build_constant_generators(monkeypatch):
    # the per-cell loops re-key one generator: building one per tree or per
    # trial and round would show as constructions growing with the count
    real = np.random.Philox
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    c = RoundContext(10 ** 6, 0.1).with_round(4)
    model = SurvivalModel.make(c, scale=4, depth=4)
    small = RoundContext(8, 0.4)  # 4 rounds
    calls = {
        "simulate_tree": lambda t: simulate_tree(model, c.delta, trials=t, seed=2),
        "exact": lambda t: final_distribution_sample(small, t, seed=2, mode="exact"),
        "rounds": lambda t: final_distribution_sample(small, t, seed=2, mode="rounds"),
    }
    for name, call in calls.items():
        counts = []
        for trials in (10, 400):
            built.clear()
            call(trials)
            counts.append(len(built))
        assert counts == [1, 1], name
