"""Workload definitions: the CLI requests each workload serves, and the
seeded random-model generator behind ``random-batch``.

A request is the argv list passed to ``loopinv.cli.main``.  Paths in a
request are relative to the repository root, which is the working
directory of every child interpreter, so the JSON payloads (which echo the
model path) are byte-identical from one checkout to the next.

Why each workload exists:

* ``s2-deep`` -- the paper's basic example, S^2: few generators, deep
  degrees.  Elimination and the eigen split each take about half of the
  time, and ``pseudoisotopy`` builds three eigen tables per request, so
  both an elimination kernel and a cheaper split show here.
* ``multigen-betti`` -- S^2 x S^2 and S^3 x S^3 on the betti-only Borel
  path: many generators, wide degrees, and the involution is stripped, so
  elimination is nearly all of the time and the eigen split is bypassed.
  It is the memory-heavy workload.
* ``random-batch`` -- a seeded stream of small random minimal models: the
  same layers on many small blocks instead of a few large ones, plus
  parsing, the gates and model construction on every request.  A kernel
  that wins on large blocks but loses on small dense ones shows here.

Only random-batch depends on the seed; the other two serve the same
requests for every seed.
"""

from __future__ import annotations

import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUTS = f"{BENCH_DIR.name}/inputs"
WORK = f"{BENCH_DIR.name}/_work"

# The seed the recorded random-batch digests belong to, and the one the
# first timings of the workload used.  Any other seed is checked by the
# table identities alone.
DEFAULT_SEED = 1729

RANDOM_MODELS = 24
RANDOM_CAP = 24
RANDOM_MAX_COCHAIN_DIM = 140
# Which sizes a seed happens to draw would move the batch's wall time by
# tens of percent from seed to seed (one 1 s model among 23 of 15 ms).  So
# the batch keeps only models whose estimated cost (``model_cost``, in ms)
# lies in COST_RANGE and fills a fixed estimated budget: the last model is
# the first one in the stream that brings the total within BUDGET_SLACK of
# RANDOM_BUDGET.  125 ms is about the mean estimate of the stream's models
# in COST_RANGE, so the budget seldom forces a choice before the last model.
COST_RANGE = (20.0, 400.0)
RANDOM_BUDGET = RANDOM_MODELS * 125.0
BUDGET_SLACK = 0.02

WORKLOADS = ("s2-deep", "multigen-betti", "random-batch")

# Fixed requests: (argv, space).  The space names the model whose cochain
# dimensions the checker expects; pseudoisotopy requests have none.  The
# caps keep every request under about 2 s and a pass near 3 s on a 2-CPU
# machine, so that a 30 s run holds eight or more passes and the best of
# them is one that other tenants on the machine did not slow.
FIXED = {
    "s2-deep": [
        (["eigen", "models/s2.model", "--max-degree", "24", "--format", "json"], "borel"),
        (["pseudoisotopy", "models/s2.model", "--max-degree", "24", "--assume-compact"], None),
    ],
    "multigen-betti": [
        (["cohomology", f"{INPUTS}/s2xs2.model", "--space", "borel", "--max-degree", "10"], "borel"),
        (["cohomology", f"{INPUTS}/s3xs3.model", "--space", "borel", "--max-degree", "26"], "borel"),
    ],
}


def cochain_dims(degrees, cap: int) -> list[int]:
    """Number of monomials in each degree 0..cap-1 of the free graded
    commutative algebra on generators of the given degrees (polynomial on
    even degrees, exterior on odd ones)."""
    coeffs = [1] + [0] * (cap - 1)
    for d in degrees:
        if d % 2 == 0:
            for n in range(d, cap):
                coeffs[n] += coeffs[n - d]
        else:
            for n in range(cap - 1, d - 1, -1):
                coeffs[n] += coeffs[n - d]
    return coeffs


def space_degrees(degrees, space: str) -> list[int]:
    """Generator degrees of the base, free loop or Borel model built from
    a minimal model with generators of the given degrees."""
    degrees = list(degrees)
    if space == "base":
        return degrees
    bars = [d - 1 for d in degrees]
    if space == "loop":
        return degrees + bars
    if space == "borel":
        return [2] + degrees + bars
    raise ValueError(f"unknown space {space!r}")


def model_degrees(text: str) -> list[int]:
    """Generator degrees declared by a model file, in declaration order."""
    out = []
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if len(words) == 3 and words[0] == "gen":
            out.append(int(words[2]))
    return out


def model_cost(degrees, cap: int = RANDOM_CAP) -> float:
    """Estimated cost, in milliseconds on a 2-CPU x86 machine with CPython
    3.11, of ``eigen`` on the Borel model plus ``cohomology --space loop``
    at the cap.  It is a least-squares fit over 400 random models of a
    constant plus, per space, the summed cochain dimensions and the summed
    products of adjacent ones (the dense differential sizes).  It is only
    used to balance batches: its error per model is about 20%."""
    total = 6.5
    for space, per_dim, per_entry in (("borel", 0.13, 0.018), ("loop", 0.033, 0.0063)):
        dims = cochain_dims(space_degrees(degrees, space), cap + 1)
        total += sum(per_dim * dims[n] + per_entry * dims[n] * dims[n + 1] for n in range(cap))
    return total


# ---------------------------------------------------------------------
# random minimal models


def _closed_monomials(closed: list[tuple[str, int]], degree: int):
    """Exponent maps of word length >= 2 and the given degree in the
    closed generators (exterior on odd degrees)."""
    out = []

    def rec(i: int, remaining: int, expo: list[int]) -> None:
        if remaining == 0:
            if sum(expo) >= 2:
                out.append(tuple(expo))
            return
        if i == len(closed):
            return
        d = closed[i][1]
        top = min(1, remaining // d) if d % 2 else remaining // d
        for e in range(top + 1):
            rec(i + 1, remaining - e * d, expo + [e])

    rec(0, degree, [])
    return out


def random_model(rng: random.Random) -> tuple[str, list[int]]:
    """One random valid minimal model as model-file text, with its
    generator degrees.  Degrees are drawn from 2..9; a generator's
    differential, when it has one, is a combination of word-length >= 2
    monomials in generators with zero differential, which forces d^2 = 0."""
    degrees = sorted(rng.randint(2, 9) for _ in range(rng.randint(1, 4)))
    names = [f"g{k}" for k in range(len(degrees))]
    closed: list[tuple[str, int]] = []
    lines = [f"gen {name} {d}" for name, d in zip(names, degrees)]
    for name, d in zip(names, degrees):
        candidates = _closed_monomials(closed, d + 1) if closed and rng.random() < 0.7 else []
        if not candidates:
            closed.append((name, d))
            continue
        picked = rng.sample(candidates, k=rng.randint(1, min(3, len(candidates))))
        terms = []
        for expo in picked:
            coeff = rng.choice([-2, -1, 1, 2, 3])
            factors = [
                g if e == 1 else f"{g}^{e}" for (g, _), e in zip(closed, expo) if e
            ]
            body = "*".join(factors)
            if abs(coeff) != 1:
                body = f"{abs(coeff)}*{body}"
            terms.append(("-" if coeff < 0 else "+", body))
        poly = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        for sign, body in terms[1:]:
            poly += f" {sign} {body}"
        lines.append(f"d {name} = {poly}")
    return "\n".join(lines) + "\n", degrees


def random_batch(seed: int) -> list[tuple[str, list[int]]]:
    """The random-batch models for a seed, in stream order: RANDOM_MODELS
    random models whose Borel cochain spaces have at most
    RANDOM_MAX_COCHAIN_DIM monomials in every degree through the cap, whose
    estimated costs lie in COST_RANGE and add up to RANDOM_BUDGET within
    BUDGET_SLACK."""
    rng = random.Random(seed)
    lo, hi = COST_RANGE
    out: list[tuple[str, list[int]]] = []
    left = RANDOM_BUDGET
    while len(out) < RANDOM_MODELS:
        text, degrees = random_model(rng)
        dims = cochain_dims(space_degrees(degrees, "borel"), RANDOM_CAP + 1)
        if max(dims) > RANDOM_MAX_COCHAIN_DIM:
            continue
        cost = model_cost(degrees)
        rest = RANDOM_MODELS - len(out) - 1
        if rest:
            # Keep the budget left per model still to come between twice
            # the floor and half the ceiling, well inside the range of
            # costs the stream offers, so that the last model can close it.
            fits = 2 * lo <= (left - cost) / rest <= hi / 2
        else:
            fits = abs(cost - left) <= BUDGET_SLACK * RANDOM_BUDGET
        if lo <= cost <= hi and fits:
            out.append((text, degrees))
            left -= cost
    return out


def build_requests(workload: str, seed: int) -> list[dict]:
    """The workload's requests in serving order.  Each is a dict with the
    ``argv`` for ``loopinv.cli.main``, the ``space`` the output describes
    (None for pseudoisotopy), that space's generator ``degrees`` and the
    ``cap``.  random-batch writes its model files under WORK first."""
    if workload == "random-batch":
        (ROOT / WORK / "random").mkdir(parents=True, exist_ok=True)
        specs = []
        for i, (text, _) in enumerate(random_batch(seed)):
            path = f"{WORK}/random/m{i:02d}.model"
            (ROOT / path).write_text(text, encoding="utf-8")
            cap = str(RANDOM_CAP)
            specs.append((["eigen", path, "--max-degree", cap], "borel"))
            specs.append((["cohomology", path, "--space", "loop", "--max-degree", cap], "loop"))
    elif workload in FIXED:
        specs = FIXED[workload]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for argv, space in specs:
        degrees = model_degrees((ROOT / argv[1]).read_text(encoding="utf-8"))
        out.append(
            {
                "argv": list(argv),
                "space": space,
                "degrees": space_degrees(degrees, space) if space else degrees,
                "cap": int(argv[argv.index("--max-degree") + 1]),
            }
        )
    return out
