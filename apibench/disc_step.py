"""Reference cost of one discriminator step at the ``apimap align`` default width.

    python3 apibench/disc_step.py

Times ``train_adversarial`` for STEPS mapping steps at d=300 with the
default ``AdvConfig`` (hidden 2048, batch 32, 5 discriminator steps per mapping
step) and reports milliseconds per discriminator step, counting the mapping
step's share with them. Too slow to run as a workload; the README records it.
"""

from __future__ import annotations

import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
STEPS = 20

import numpy as np  # noqa: E402

from apimap import adversarial, corpus, embedding, seeding  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(0)
    n, dim = 2000, 300
    vocab = corpus.Vocabulary([f"w{i}" for i in range(n)], range(n, 0, -1))
    src = embedding.EmbeddingSpace(rng.normal(size=(n, dim)), vocab)
    tgt = embedding.EmbeddingSpace(rng.normal(size=(n, dim)), vocab)
    w = seeding.MappingMatrix(np.eye(dim), seeding.STAGE_SEEDED, orthogonal=True)
    cfg = adversarial.AdvConfig(epochs=1, steps_per_epoch=STEPS, selection_topk=100)
    t0 = time.perf_counter()
    adversarial.train_adversarial(w, src, tgt, cfg)
    elapsed = time.perf_counter() - t0
    disc_steps = STEPS * cfg.disc_steps_per_map_step
    print(f"hidden {cfg.hidden_dim}, d={dim}, batch {cfg.batch_size}: "
          f"{1000 * elapsed / disc_steps:.1f} ms per discriminator step "
          f"({disc_steps} steps, {elapsed:.2f} s, BLAS threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
