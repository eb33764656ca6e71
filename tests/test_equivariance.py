"""Rotation tests: a change of basis in either space must carry through.

Rotating the source space by an orthogonal P and the target space by Q leaves
every cosine between a W-mapped source and a target unchanged once W becomes
Q W P^T. So a stage that its data determine must return Q W P^T on the rotated
pair, and whatever is computed from those cosines must not move. S is
determined by its seeds only with at least d of them; below d pairs its free
directions are LAPACK's choice, and no test here covers that regime.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from apimap import refinement
from apimap.adversarial import selection_criterion
from apimap.query import batch_query
from apimap.refinement import RefineConfig, refine
from apimap.seeding import random_orthogonal, seed_matrices, solve_procrustes

from helpers import make_paired_task, rotate_pair

TOL = 1e-12
SEEDS = range(5)


def rotated_task(seed):
    """A decoy task with 60 seed pairs at d=50, random P and Q, and the
    rotated pair (source by P, target by Q)."""
    task = make_paired_task(n_seeds=60, decoy_frac=0.2, seed=seed)
    rng = default_rng(100 + seed)
    p, q = random_orthogonal(task.src.dim, rng), random_orthogonal(task.tgt.dim, rng)
    return task, p, q, *rotate_pair(task.src, task.tgt, p, q)


def seeded(task, src, tgt):
    return solve_procrustes(*seed_matrices(task.seeds, src, tgt))


@pytest.mark.parametrize("seed", SEEDS)
def test_selection_criterion_is_invariant(seed):
    task, p, q, src, tgt = rotated_task(seed)
    w = seeded(task, task.src, task.tgt).w
    before = selection_criterion(w, task.src, task.tgt, 500)
    assert abs(selection_criterion(q @ w @ p.T, src, tgt, 500) - before) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_w_is_equivariant_with_at_least_d_pairs(seed):
    task, p, q, src, tgt = rotated_task(seed)
    assert len(task.seeds) >= task.src.dim
    w = seeded(task, task.src, task.tgt).w
    assert np.abs(seeded(task, src, tgt).w - q @ w @ p.T).max() < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_query_lists_are_invariant(seed):
    task, p, q, src, tgt = rotated_task(seed)
    w = seeded(task, task.src, task.tgt).w
    tokens = task.truth.sources()
    before = batch_query(tokens, w, task.src, task.tgt, 10)
    after = batch_query(tokens, q @ w @ p.T, src, tgt, 10)
    assert [r.tokens for r in after] == [r.tokens for r in before]
    for a, b in zip(after, before):
        np.testing.assert_allclose([s for _, s in a.neighbors],
                                   [s for _, s in b.neighbors], rtol=0, atol=TOL)


@pytest.mark.parametrize("mode", ["intersection", "union"])
@pytest.mark.parametrize("seed", SEEDS)
def test_refined_w_is_equivariant_when_every_dictionary_has_d_pairs(monkeypatch, seed, mode):
    task, p, q, src, tgt = rotated_task(seed)
    cfg = RefineConfig(topk=200, threshold=0.6, mode=mode, selection_topk=500)
    sizes = []
    real_solve = refinement.solve_procrustes

    def recording_solve(x, y):
        sizes.append(len(x))
        return real_solve(x, y)

    monkeypatch.setattr(refinement, "solve_procrustes", recording_solve)
    w = refine(seeded(task, task.src, task.tgt), task.src, task.tgt, cfg)
    w_rot = refine(seeded(task, src, tgt), src, tgt, cfg)
    # the regime this holds in: every dictionary R solves determines its W
    assert sizes and min(sizes) >= task.src.dim
    assert np.abs(w_rot.w - q @ w.w @ p.T).max() < TOL
