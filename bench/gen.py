"""Seeded generator of profile-P0 generator families, built directly.

Nodes are labelled by cyclic class first.  Nodes 0..gamma-1 form the
critical cycle 0 -> 1 -> ... -> gamma-1 -> 0 (a loop at node 0 when
gamma = 1), one node per class.  Every further node v gets a class and is
attached with one edge from an already attached node of class(v) - 1 and
one edge to an already attached node of class(v) + 1, so the attached set
stays strongly connected and the family is irreducible by construction:
no rejection sampling is needed.  Extra edges, each drawn with probability
``density``, only ever go from class c to class c + 1 (mod gamma), so the
ambient cyclicity is exactly gamma.

Critical cycle edges weigh 0 in every generator and all other edges draw an
integer from [-20, -1] per generator on one shared support, so each
generator has exactly the critical cycle as its critical digraph.  Each
generator is then shifted by its own integer offset and conjugated by one
common random diagonal similarity, so building the ensemble has to undo
both (cycle-mean normalisation and visualisation).

The module returns plain nested lists (``None`` for eps); the caller turns
them into ``MaxPlusMatrix`` objects, so the generator shares no code with
the program it feeds.
"""

from __future__ import annotations

import random

LOW_WEIGHT = -20


def p0_generators(
    rng: random.Random, n: int, gamma: int, density: float, count: int = 3
) -> list[list[list]]:
    """``count`` n-by-n generators of one P0 family as row lists."""
    if not 1 <= gamma <= n:
        raise ValueError(f"need 1 <= gamma <= n, got gamma={gamma}, n={n}")
    label = list(range(gamma)) + [rng.randrange(gamma) for _ in range(n - gamma)]
    critical = {(c, (c + 1) % gamma) for c in range(gamma)}
    support = set(critical)

    attached_by_class: list[list[int]] = [[c] for c in range(gamma)]
    late = list(range(gamma, n))
    rng.shuffle(late)
    for v in late:
        c = label[v]
        support.add((rng.choice(attached_by_class[(c - 1) % gamma]), v))
        support.add((v, rng.choice(attached_by_class[(c + 1) % gamma])))
        attached_by_class[c].append(v)

    for u in range(n):
        for v in range(n):
            if (label[v] - label[u]) % gamma == 1 % gamma and rng.random() < density:
                support.add((u, v))

    similarity = [rng.randint(-10, 10) for _ in range(n)]
    gens = []
    for _ in range(count):
        shift = rng.randint(-5, 5)
        rows: list[list] = [[None] * n for _ in range(n)]
        for u, v in sorted(support):
            w = 0 if (u, v) in critical else rng.randint(LOW_WEIGHT, -1)
            rows[u][v] = float(w + shift - similarity[u] + similarity[v])
        gens.append(rows)
    return gens


def random_word(rng: random.Random, letters: int, length: int) -> tuple[int, ...]:
    """Uniform word of the given length over 1-based generator indices."""
    return tuple(rng.randint(1, letters) for _ in range(length))
