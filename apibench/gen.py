"""Seeded input generators for the apimap benchmark.

Each workload's inputs are drawn from ``--seed`` alone and written in the
program's own file formats, together with the generator's own truth: the
counts normalization must reproduce, the seed pairs signature mining must
find, the held-out pairs retrieval is scored on, and the exact arrays behind
every vector file. Generation is a separate step from the measured run, so its
time and memory stay out of every metric.

    python3 apibench/gen.py --workload embed-corpus --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

# ---------------------------------------------------------------- corpora

# One shared latent API-usage model: APIs grouped in communities, each API
# with a few fixed successors, mostly inside its own community. A code line is
# a walk over that graph. Both languages walk the same graph with their own
# randomness and spell every API their own way.
N_COMMUNITIES = 20
APIS_PER_COMMUNITY = 30
CLASSES_PER_COMMUNITY = 5
SUCCESSORS_IN = 3
SUCCESSORS_OUT = 1
N_LINES = 3000
WALK_MIN, WALK_MAX = 6, 14
NOISE_RATE = 0.2
KEYWORD_RATE = 0.1
SEED_SHARE = 0.35
# pairs of APIs whose Java names share class and method, so mining must drop both
N_AMBIGUOUS = 6
# held-out pairs need enough occurrences on both sides to be embedded at all
HELD_OUT_MIN_COUNT = 5
PLANTED = ("plant_p", "plant_q", "plant_r")
PLANT_RATE = 0.5

KEYWORDS = {
    "java": ["if", "else", "for", "while", "return", "new", "try", "catch",
             "throw", "final", "static", "switch", "MethodInvocation", "Block"],
    "cs": ["if", "else", "foreach", "while", "return", "new", "try", "catch",
           "throw", "readonly", "static", "using", "InvocationExpression", "Block"],
}
_SYLLABLES = ["ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "vu", "ze",
              "bo", "da", "fe", "gi", "ho", "ju", "ke", "la", "mo", "ni"]


def _word(i: int, n_syllables: int = 3) -> str:
    parts = []
    for _ in range(n_syllables):
        parts.append(_SYLLABLES[i % len(_SYLLABLES)])
        i //= len(_SYLLABLES)
    return "".join(parts)


def _api_names():
    """Java and C# (raw token, signature) per latent API, plus suffix groups.

    A suffix group lists the latent APIs that share one case-folded
    ``Class.method`` key on a side. Seed candidates form cross-language groups
    of one API; ambiguous Java pairs form two-member groups.
    """
    n_api = N_COMMUNITIES * APIS_PER_COMMUNITY
    java, cs = [], []
    seed_like = np.zeros(n_api, dtype=bool)
    java_group = list(range(n_api))
    for a in range(n_api):
        comm = a // APIS_PER_COMMUNITY
        cls = _word(comm * CLASSES_PER_COMMUNITY + a % CLASSES_PER_COMMUNITY).capitalize()
        method = _word(a + 1000)
        jpkg, cpkg = f"java.{_word(comm, 2)}", f"System.{_word(comm, 2).capitalize()}"
        if (a * 7919) % 100 < SEED_SHARE * 100:
            seed_like[a] = True
            jm, cm = method, method.capitalize()
        else:
            jm, cm = "do" + method, "Run" + method.capitalize()
        java.append([f"{cls}.{jm}", f"{jpkg}.{cls}.{jm}"])
        cs.append([f"{cls}.{cm}", f"{cpkg}.{cls}.{cm}"])
    # ambiguous: a seed-like API a shares its Java class and method with an API
    # b of the next community; raw tokens carry the package to stay distinct
    for i in range(N_AMBIGUOUS):
        base = 2 * i * APIS_PER_COMMUNITY
        a = base + int(np.flatnonzero(seed_like[base:base + APIS_PER_COMMUNITY])[0])
        b = base + APIS_PER_COMMUNITY
        jpkg_a, cls, jm = java[a][1].rsplit(".", 2)
        jpkg_b = java[b][1].rsplit(".", 2)[0]
        java[a] = [f"{jpkg_a[5:]}.{cls}.{jm}", java[a][1]]
        java[b] = [f"{jpkg_b[5:]}.{cls}.{jm}", f"{jpkg_b}.{cls}.{jm}"]
        seed_like[b] = False
        java_group[b] = a
    return java, cs, seed_like, java_group


def _latent_graph(rng: np.random.Generator) -> np.ndarray:
    n_api = N_COMMUNITIES * APIS_PER_COMMUNITY
    succ = np.empty((n_api, SUCCESSORS_IN + SUCCESSORS_OUT), dtype=np.int64)
    for a in range(n_api):
        base = (a // APIS_PER_COMMUNITY) * APIS_PER_COMMUNITY
        inside = rng.choice(APIS_PER_COMMUNITY - 1, SUCCESSORS_IN, replace=False)
        inside = base + (a - base + 1 + inside) % APIS_PER_COMMUNITY
        succ[a] = np.concatenate([inside, rng.integers(0, n_api, SUCCESSORS_OUT)])
    return succ


def _write_corpus(lang, names, succ, rng, out):
    """Walk the graph into one raw corpus; returns per-API counts and totals."""
    n_api = len(names)
    keywords = KEYWORDS[lang]
    popularity = 1.0 / (np.arange(APIS_PER_COMMUNITY) + 3.0)
    popularity /= popularity.sum()
    counts = np.zeros(n_api, dtype=np.int64)
    total = dropped = 0
    noise_id = 0
    with open(os.path.join(out, f"{lang}.txt"), "w", encoding="utf-8") as fh:
        for _ in range(N_LINES):
            comm = int(rng.integers(N_COMMUNITIES))
            node = comm * APIS_PER_COMMUNITY + int(rng.choice(APIS_PER_COMMUNITY, p=popularity))
            line = [keywords[comm % len(keywords)]]
            for _ in range(int(rng.integers(WALK_MIN, WALK_MAX + 1))):
                line.append(names[node][0])
                counts[node] += 1
                roll = rng.random()
                if roll < NOISE_RATE:
                    line.append(f"v{noise_id % 997}")
                    noise_id += 1
                    dropped += 1
                elif roll < NOISE_RATE + KEYWORD_RATE:
                    line.append(keywords[int(rng.integers(len(keywords)))])
                node = int(succ[node, rng.integers(succ.shape[1])])
            if comm < 2 and rng.random() < PLANT_RATE:
                at = int(rng.integers(1, len(line) + 1))
                line[at:at] = ["plant_p", "plant_q"] if comm == 0 else ["plant_r"]
            total += len(line)
            fh.write(" ".join(line) + "\n")
    with open(os.path.join(out, f"{lang}.tsv"), "w", encoding="utf-8") as fh:
        for raw, sig in names:
            fh.write(f"{raw}\t{sig}\n")
    with open(os.path.join(out, f"{lang}.kw"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(keywords + list(PLANTED)) + "\n")
    return counts, {"tokens_in": total, "dropped": dropped, "kept": total - dropped}


def make_corpora(seed: int, out: str) -> None:
    """Two raw corpora (Java-like and C#-like) and the generator's truth."""
    java, cs, seed_like, java_group = _api_names()
    succ = _latent_graph(np.random.default_rng([seed, 0]))
    jcount, jstats = _write_corpus("java", java, succ, np.random.default_rng([seed, 1]), out)
    ccount, cstats = _write_corpus("cs", cs, succ, np.random.default_rng([seed, 2]), out)

    occurring_in_group = {}
    for a, g in enumerate(java_group):
        occurring_in_group[g] = occurring_in_group.get(g, 0) + int(jcount[a] > 0)
    seeds = [
        (java[a][1], cs[a][1])
        for a in range(len(java))
        if seed_like[a] and jcount[a] > 0 and ccount[a] > 0
        and occurring_in_group[java_group[a]] == 1
    ]
    seed_set = set(seeds)
    held_out = [
        (java[a][1], cs[a][1])
        for a in range(len(java))
        if (java[a][1], cs[a][1]) not in seed_set
        and min(jcount[a], ccount[a]) >= HELD_OUT_MIN_COUNT
    ]
    truth = {"java": jstats, "cs": cstats, "seeds": seeds, "held_out": held_out,
             "planted": list(PLANTED)}
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)


# ---------------------------------------------------------- paired spaces

# Planted pairs: target = rotation @ source + noise, with cluster structure.
# Noise grows with frequency rank, and over the rarest ``tail_frac`` of the
# paired tokens it ramps up to ``tail_noise``, far beyond recovery, so top-1 and
# top-10 are set by where along that ramp retrieval fails, not by whether
# refinement happens to converge. Frequency order follows the rank, as in real
# spaces where rare tokens are embedded worst. Decoys add tokens with no
# counterpart.
PAIRED = {
    "align-adv": dict(n=2000, dim=50, n_seeds=20, n_truth=1000, noise=0.05,
                      rank_noise=3.0, tail_frac=0.3, tail_noise=0.8, decoy_frac=0.2,
                      freq_jitter=0.05, n_clusters=20, spread=0.35),
    "retrieve-large": dict(n=9000, dim=300, n_seeds=200, n_truth=800, noise=0.03,
                           rank_noise=3.0, tail_frac=0.3, tail_noise=0.9, decoy_frac=0.1,
                           freq_jitter=0.05, n_clusters=50, spread=0.35),
}


def _write_space(path: str, tokens: list[str], vectors: np.ndarray, counts) -> None:
    """word2vec text at 6 significant digits plus the ``.freq`` sidecar."""
    fmt = " ".join(["%.6g"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {vectors.shape[1]}\n")
        for token, row in zip(tokens, vectors):
            fh.write(f"{token} {fmt % tuple(row)}\n")
    with open(path + ".freq", "w", encoding="utf-8") as fh:
        for token, count in zip(tokens, counts):
            fh.write(f"{token}\t{count}\n")


def make_paired(seed: int, out: str, n, dim, n_seeds, n_truth, noise, rank_noise,
                tail_frac, tail_noise, decoy_frac, freq_jitter, n_clusters, spread) -> None:
    """Two spaces, seed and truth TSVs, and the exact arrays behind the text files."""
    rng = np.random.default_rng([seed, 3])
    n_decoy = int(round(decoy_frac * n))
    centers = rng.normal(size=(n_clusters, dim))
    x = centers[rng.integers(0, n_clusters, n)] + spread * rng.normal(size=(n, dim))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    rotation = q * np.sign(np.diag(r))
    scale = noise * (1.0 + rank_noise * np.arange(n) / n)
    tail = int(round((1.0 - tail_frac) * n))
    scale[tail:] = np.linspace(scale[tail - 1], tail_noise, n - tail)
    y = x @ rotation.T + scale[:, None] * rng.normal(size=(n, dim))
    k = max(2, n_clusters // 4)
    dx = rng.normal(size=(k, dim))[rng.integers(0, k, n_decoy)]
    dy = rng.normal(size=(k, dim))[rng.integers(0, k, n_decoy)] @ rotation.T
    x = np.vstack([x, dx + spread * rng.normal(size=(n_decoy, dim))])
    y = np.vstack([y, dy + spread * rng.normal(size=(n_decoy, dim))])
    # rows are written in frequency order, which follows the noise rank up to
    # a jitter drawn apart for each side; decoys are spread through it
    total = n + n_decoy
    rank = np.concatenate([np.arange(n), rng.uniform(0, n, n_decoy)])
    perm_s, perm_t = (np.argsort(rank + rng.normal(0, freq_jitter * n, total), kind="stable")
                      for _ in range(2))
    inv_s, inv_t = np.argsort(perm_s), np.argsort(perm_t)
    x, y = x[perm_s], y[perm_t]
    counts = np.arange(2 * total, total, -1)
    src_tokens = [f"s{i:05d}" for i in range(total)]
    tgt_tokens = [f"t{i:05d}" for i in range(total)]
    _write_space(os.path.join(out, "src.vec"), src_tokens, x, counts)
    _write_space(os.path.join(out, "tgt.vec"), tgt_tokens, y, counts)
    chosen = rng.choice(n, size=n_seeds + n_truth, replace=False)
    pairs = np.stack([inv_s[chosen], inv_t[chosen]], axis=1)
    with open(os.path.join(out, "seeds.tsv"), "w", encoding="utf-8") as fh:
        for i, j in pairs[:n_seeds]:
            fh.write(f"{src_tokens[i]}\t{tgt_tokens[j]}\n")
    with open(os.path.join(out, "truth.tsv"), "w", encoding="utf-8") as fh:
        for i, j in pairs[n_seeds:]:
            fh.write(f"{src_tokens[i]}\t{tgt_tokens[j]}\n")
    np.savez(os.path.join(out, "arrays.npz"), src=x, tgt=y, truth_idx=pairs[n_seeds:])


def generate(workload: str, seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    if workload == "embed-corpus":
        make_corpora(seed, out)
    elif workload in PAIRED:
        make_paired(seed, out, **PAIRED[workload])
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)
