"""The screened, batched exhaustive search against the scalar loop it replaces.

``fit_exhaustive`` bounds every permutation in one numpy pass and profiles
only the candidates that can win.  The loop that profiles every permutation
(``oracles.fit_exhaustive_loop``) is the reference: consensus, loglik,
qualities, concentration and clamp flag must agree bit for bit, not within a
tolerance, on model panels, arbitrary panels, tie-heavy panels, the
degenerate panels (one judge, unanimous judges, constant ratings, M = 1) and
panels where a coarse ranking-term table leaves the bound loose.
Past 6 objects the screen refuses, and ``fit`` (the best-first search there)
must agree with the loop bit for bit instead.
"""

import tracemalloc

import numpy as np
import pytest

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    Params,
    SufficientStats,
    estimation,
    fit,
    fit_exhaustive,
    sample_dataset,
)

from .oracles import fit_exhaustive_loop

# panels per object count for the seeded sweep: the loop costs J! profiles,
# so large J gets fewer panels
SWEEP = {2: 36, 3: 48, 4: 48, 5: 42, 6: 30, 7: 8}


def mismatch(data, search=fit_exhaustive) -> str | None:
    """Description of how ``search`` and the loop differ on ``data``, or None."""
    new = search(data)
    old, count = fit_exhaustive_loop(data)
    fields = {
        "consensus": np.array_equal(new.consensus, old.consensus),
        "loglik": new.loglik == old.loglik,
        "p": np.array_equal(new.p, old.p),
        "theta": new.theta == old.theta,
        "theta_clamped": new.theta_clamped == old.theta_clamped,
    }
    if new.method == "exhaustive":
        # the screen scores every candidate, as the loop does
        fields["candidates_profiled"] = new.candidates_profiled == count
        fields["nodes_expanded"] = new.nodes_expanded == 0
    wrong = [name for name, same in fields.items() if not same]
    if not wrong:
        return None
    return (
        f"J={data.n_objects} I={data.n_judges} M={data.max_rating}: {wrong} "
        f"(screened {new.consensus.tolist()} {new.loglik!r}, "
        f"loop {old.consensus.tolist()} {old.loglik!r})"
    )


def seeded_panel(rng, n_objects: int, kind: int) -> Dataset:
    n_judges = int(rng.integers(1, 60))
    max_rating = int(rng.integers(1, 8))
    if kind == 0:  # model panel, any signal strength
        truth = Params(
            p=np.sort(rng.uniform(0.05, 0.95, n_objects)), theta=float(rng.uniform(0.05, 3.0))
        )
        return sample_dataset(truth, n_judges, max_rating, seed=int(rng.integers(2**31)))
    if kind == 1:  # near-null model panel: many candidates score alike
        truth = Params(p=0.5 + rng.uniform(-0.03, 0.03, n_objects), theta=0.05)
        return sample_dataset(truth, n_judges, max_rating, seed=int(rng.integers(2**31)))
    rankings = np.array([rng.permutation(n_objects) for _ in range(n_judges)])
    if kind == 2:  # arbitrary panel, not drawn from the model
        ratings = rng.integers(0, max_rating + 1, size=(n_judges, n_objects))
    else:  # ratings from two levels only: pooled fits tie often
        ratings = rng.integers(0, 2, size=(n_judges, n_objects)) * max_rating
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)


def test_seeded_sweep_matches_loop():
    rng = np.random.default_rng(20261018)
    problems = []
    total = 0
    for n_objects, count in SWEEP.items():
        # fit_exhaustive refuses past 6 objects; fit runs best-first there
        search = fit_exhaustive if n_objects <= 6 else fit
        for case in range(count):
            problem = mismatch(seeded_panel(rng, n_objects, case % 4), search)
            total += 1
            if problem:
                problems.append(problem)
    assert total >= 200
    assert not problems, problems


def degenerate_panels():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6):
        # one judge
        yield Dataset(
            ratings=[rng.integers(0, 6, n)], rankings=[rng.permutation(n)], max_rating=5
        )
        # one judge with constant ratings: every candidate's rating term ties
        yield Dataset(ratings=[[2] * n], rankings=[rng.permutation(n)], max_rating=5)
        # unanimous judges
        yield Dataset(
            ratings=rng.integers(0, 6, (9, n)),
            rankings=np.tile(rng.permutation(n), (9, 1)),
            max_rating=5,
        )
        # unanimous judges, identical ratings
        yield Dataset(
            ratings=np.tile(rng.integers(0, 6, n), (7, 1)),
            rankings=np.tile(np.arange(n), (7, 1)),
            max_rating=5,
        )
        # constant ratings, arbitrary rankings
        yield Dataset(
            ratings=np.full((11, n), 3),
            rankings=[rng.permutation(n) for _ in range(11)],
            max_rating=4,
        )
        # constant ratings, each ranking paired with its reverse: every
        # candidate has the same disagreement count, so all J! tie exactly
        order = rng.permutation(n)
        yield Dataset(
            ratings=np.zeros((4, n), dtype=int),
            rankings=[order, order[::-1], order, order[::-1]],
            max_rating=3,
        )
        # all ratings at the top of the scale: qualities clip to the box
        yield Dataset(
            ratings=np.full((5, n), 6),
            rankings=[rng.permutation(n) for _ in range(5)],
            max_rating=6,
        )
        # M = 1
        yield Dataset(
            ratings=rng.integers(0, 2, (13, n)),
            rankings=[rng.permutation(n) for _ in range(13)],
            max_rating=1,
        )


def test_degenerate_panels_match_loop():
    problems = [problem for data in degenerate_panels() if (problem := mismatch(data))]
    assert not problems, problems


def test_eight_objects_match_loop():
    truth = Params(p=np.linspace(0.45, 0.55, 8), theta=0.2)
    assert mismatch(sample_dataset(truth, 60, 5, seed=11), fit) is None


def test_one_object_fails_like_the_loop():
    data = Dataset(ratings=[[1], [2]], rankings=[[0], [0]], max_rating=3)
    with pytest.raises(ValueError, match="at least 2 objects"):
        fit_exhaustive_loop(data)
    with pytest.raises(ValueError, match="at least 2 objects"):
        fit_exhaustive(data)


def test_six_objects_pass_memory_is_bounded():
    # one pass of the screen at its largest J: 7 statistics of 6! candidates
    truth = Params(p=np.linspace(0.1, 0.9, 6), theta=0.3)
    stack = [
        SufficientStats.from_dataset(sample_dataset(truth, 200, 5, seed=seed))
        for seed in range(7)
    ]
    assert estimation._stack_block(6) == len(stack)
    tracemalloc.start()
    try:
        results = estimation._fit_stack(stack, DEFAULT_BOUNDS, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [result.candidates_profiled for result in results] == [720] * 7
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.fixture
def coarse_table(monkeypatch):
    # one theta per chunk of the table: between its 32 points the chord lies
    # far above g.  A coarse table left in the cache would move the
    # best-first node counts, so the cache is emptied on both sides
    estimation._ranking_term_table.cache_clear()
    monkeypatch.setattr(estimation, "_THETA_GRID", 32)
    yield
    estimation._ranking_term_table.cache_clear()


def arbitrary_three_object_panel(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    n_judges, max_rating = int(rng.integers(4, 40)), int(rng.integers(1, 6))
    ratings = rng.integers(0, max_rating + 1, size=(n_judges, 3))
    rankings = [rng.permutation(3) for _ in range(n_judges)]
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)


@pytest.mark.parametrize("seed", [378, 409, 1071, 1298, 1790, 2808])
def test_screen_is_exact_where_the_chord_is_loose(coarse_table, seed):
    # on these panels the coarse table's highest bound belongs to a
    # candidate that profiles more than the slack below the winner
    stats = SufficientStats.from_dataset(arbitrary_three_object_panel(seed))
    perms = estimation._lex_permutations(3)
    rating = estimation._rating_terms(stats.xbar[perms], stats.max_rating, DEFAULT_BOUNDS)
    disagreements = estimation._disagreements(stats.pair_counts[None], perms)[0]
    ranking = estimation._concentration_terms(disagreements / stats.n_judges, 3, DEFAULT_BOUNDS)
    bound = stats.n_judges * (rating + ranking) + stats.log_binom_const
    highest = perms[np.argmax(bound)]
    winner, _ = fit_exhaustive_loop(stats)
    gap = winner.loglik - estimation.profile_loglik(stats, highest).loglik
    assert gap > estimation._PRUNE_SLACK * (1.0 + abs(winner.loglik))
    assert mismatch(stats) is None
