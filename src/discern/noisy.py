"""Monte-Carlo identification over a binary symmetric channel.

Every attribute answer flips independently with probability epsilon.  The
simulated observer walks the adaptive tree and repeats each node's query
an odd number of times, taking the majority; the repetition count is the
smallest odd r whose exact binomial majority-error is at most delta/depth,
so a union bound over the path keeps the end-to-end error within delta.
A nominal tag is modeled as a noise-free side channel: one query, no error.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .barrier import collisions
from .errors import BarrierError, ConfigError
from .scheme import Scheme
from .trees import adaptive_tree

RNG_NAME = "numpy-philox"
MAX_REPETITIONS = 10_000_001
BLOCK_TRIALS = 65_536


@dataclass(frozen=True)
class NoiseConfig:
    epsilon: float
    delta: float
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ConfigError(f"epsilon must be in [0, 0.5), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class NoiseResult:
    mean_queries: float
    empirical_error: float
    reference_bound: float
    tagged_queries: int
    repetitions: int
    tree_depth: int
    seed: int
    rng: str


def majority_error(r: int, epsilon: float) -> float:
    """P[majority of r independent BSC(epsilon) samples is wrong], r odd.

    Exact binomial tail, summed in log space so large r stays finite.  The
    sum stops at the first term that leaves a positive running total
    unchanged.  The terms rise to one peak and then fall, and a term
    before the peak is at least the mean of the terms already summed, so
    only a term past the peak can be absorbed; every later term is smaller
    and would be absorbed too.  The result is the full sum, bit for bit.
    """
    if epsilon == 0.0:
        return 0.0
    log_eps = math.log(epsilon)
    log_one = math.log(1.0 - epsilon)
    log_r = math.lgamma(r + 1)
    total = 0.0
    for i in range(r // 2 + 1, r + 1):
        term = math.exp(
            log_r
            - math.lgamma(i + 1)
            - math.lgamma(r - i + 1)
            + i * log_eps
            + (r - i) * log_one
        )
        if total and total + term == total:
            break
        total += term
    return min(total, 1.0)


def repetitions_for(epsilon: float, target: float) -> int:
    """Smallest odd r with majority_error(r, epsilon) <= target.

    Doubling probes r = 1, 3, 7, 15, ... find a passing r, then ``bisect``
    finds the smallest one past the last failing probe; a pair is refused
    as infeasible once the doubling passes ``MAX_REPETITIONS``.  Each
    probe's tail sum stops at its first absorbed term and is still exact
    (see ``majority_error``).
    """
    low, high = -1, 1
    while majority_error(high, epsilon) > target:
        low, high = high, high * 2 + 1
        if high > MAX_REPETITIONS:
            raise ConfigError(
                f"no feasible repetition count below {MAX_REPETITIONS} for "
                f"epsilon={epsilon}, per-node target={target}"
            )
    odd = range(low + 2, high + 1, 2)
    first = bisect.bisect_left(odd, True, key=lambda r: majority_error(r, epsilon) <= target)
    return odd[first]


def reference_bound(cfg: NoiseConfig) -> float:
    """ln(1/delta) / (1 - 2 epsilon)^2 — the conjectured scaling, shown as
    an envelope, not asserted."""
    return math.log(1.0 / cfg.delta) / (1.0 - 2.0 * cfg.epsilon) ** 2


def simulate_noisy_identification(scheme: Scheme, cfg: NoiseConfig) -> NoiseResult:
    """Repeat-and-majority identification over the adaptive tree.

    Deterministic for a fixed (scheme, cfg): the seed drives a Philox
    counter-based generator, and the draws come in a fixed order.  Trials
    run in blocks of at most ``BLOCK_TRIALS``.  Each block draws the true
    class of all its trials with one ``choice``; then, one level of the
    tree's node arrays at a time, one uniform per trial at an internal node,
    which moves to the child of the true bit, inverted when the uniform is
    below ``majority_error(reps, epsilon)``, the exact chance of a wrong majority.
    """
    if not collisions(scheme).injective:
        raise BarrierError("noisy identification needs profile-injective classes")
    tree = adaptive_tree(scheme)
    depth = tree.depth
    reps = repetitions_for(cfg.epsilon, cfg.delta / depth) if depth else 1
    p_wrong = majority_error(reps, cfg.epsilon)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    masses = np.asarray(scheme.masses)
    masses = masses / masses.sum()
    # The node tuples as arrays: ``leaf`` is -1 at an internal node.
    attribute, child, leaf = np.array([
        (q, first, -1) if node is None else (0, 0, node.candidates[0])
        for q, first, node in zip(tree.attribute, tree.first_child, tree.leaves)
    ], dtype=np.intp).T

    total_queries = 0
    errors = 0
    for start in range(0, cfg.trials, BLOCK_TRIALS):
        truth = rng.choice(scheme.k, size=min(BLOCK_TRIALS, cfg.trials - start), p=masses)
        node = np.zeros(truth.size, dtype=np.intp)
        active = np.flatnonzero(leaf[node] < 0)
        while active.size:
            at = node[active]
            wrong = rng.random(active.size) < p_wrong
            observed = scheme.bits[truth[active], attribute[at]] ^ wrong
            node[active] = child[at] + observed
            total_queries += reps * active.size
            active = active[leaf[node[active]] < 0]
        errors += int(np.count_nonzero(leaf[node] != truth))
    return NoiseResult(
        mean_queries=total_queries / cfg.trials,
        empirical_error=errors / cfg.trials,
        reference_bound=reference_bound(cfg),
        tagged_queries=1,
        repetitions=reps,
        tree_depth=depth,
        seed=cfg.seed,
        rng=RNG_NAME,
    )


def simulate_tagged(scheme: Scheme, cfg: NoiseConfig) -> NoiseResult:
    """Tag reads bypass the noisy channel entirely: one query, zero error,
    for any scheme and any epsilon."""
    return NoiseResult(
        mean_queries=1.0,
        empirical_error=0.0,
        reference_bound=reference_bound(cfg),
        tagged_queries=1,
        repetitions=0,
        tree_depth=0,
        seed=cfg.seed,
        rng=RNG_NAME,
    )
