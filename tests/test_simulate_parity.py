"""Parity of ``simulate_frequencies`` with the earlier per-run sampler.

``reference_simulate`` is the earlier sampler kept as a test oracle: one
uniform per run for pre-selection, one per survivor for the outcome
(inverse CDF over the cumulative Born weights, clipped onto the last
outcome) and one per survivor for post-selection.  The current sampler
draws the count of runs passing each stage instead.  Both must give every
outcome's accepted count the law Binomial(N, q_k), and the total accepted
count the law Binomial(N, sum q_k), where q_k is the chance that one run
passes pre-selection, gives outcome k and passes post-selection.

Each sampler runs REPEATS times on distinct fixed seeds; the sample mean
and variance of every count must sit within SIGMAS standard errors of the
exact ones.  Over R runs the sample variance s^2 of a law with variance
sigma^2 and excess kurtosis kappa has standard error
sigma^2 sqrt(kappa / R + 2 / (R - 1)); for Binomial(N, q),
kappa = (1 - 6 q (1 - q)) / (N q (1 - q)).
"""

import numpy as np
import pytest

from ppscontext.errors import DimensionMismatch, NoAcceptedRuns
from ppscontext.generate import random_scenario, rng_for
from ppscontext.linalg import Operator, identity_projector, projector_from_vectors
from ppscontext.measurement import (
    EPS_PROB,
    Pvm,
    Scenario,
    _outcome_weights,
    luders_update,
    simulate_frequencies,
)
from ppscontext.scenarios import three_box

SAMPLES = 2_000
REPEATS = 400
SIGMAS = 5.0


def reference_simulate(scenario, pvm, samples, seed):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if pvm.dim != scenario.dim:
        raise DimensionMismatch("PVM dimension does not match scenario")
    rng = np.random.Generator(np.random.Philox(seed))
    d = scenario.dim
    pre = scenario.pre.matrix
    post = scenario.post.matrix

    # State after a successful pre-selection is pre / Tr(pre), regardless
    # of the I/d starting point; only the acceptance probability depends
    # on it.
    p_accept_pre = float(np.trace(pre).real) / d
    rho_pre = Operator(pre / np.trace(pre).real)

    n_outcomes = len(pvm.elements)
    born = np.empty(n_outcomes)
    accept_post = np.zeros(n_outcomes)
    for k, e in enumerate(pvm.elements):
        born[k] = max(float(np.trace(e.matrix @ rho_pre.matrix).real), 0.0)
        if born[k] > EPS_PROB:
            rho_k = luders_update(rho_pre, e).matrix
            accept_post[k] = min(max(float(np.trace(post @ rho_k).real), 0.0), 1.0)
    cumulative = np.cumsum(born)

    u_pre = rng.random(samples)
    survivors = int(np.count_nonzero(u_pre < p_accept_pre))
    if survivors == 0:
        raise NoAcceptedRuns("pre-selection never succeeded")
    u_outcome = rng.random(survivors)
    outcomes = np.searchsorted(cumulative, u_outcome, side="right")
    np.clip(outcomes, 0, n_outcomes - 1, out=outcomes)
    u_post = rng.random(survivors)
    accepted_mask = u_post < accept_post[outcomes]
    counts = np.bincount(outcomes[accepted_mask], minlength=n_outcomes)
    total = int(counts.sum())
    if total == 0:
        raise NoAcceptedRuns("post-selection never succeeded")
    return {k: (float(counts[k] / total), int(counts[k])) for k in range(n_outcomes)}


def ray(*components):
    return projector_from_vectors([np.asarray(components, dtype=complex)])


def basis(dim):
    return tuple(ray(*np.eye(dim)[i]) for i in range(dim))


def _cases():
    box = three_box()
    cases = [(f"three-box-{m.name}", box, m) for m in box.measurements]
    # Outcome 2 has Born weight 5e-11 <= EPS_PROB: it never passes
    # post-selection, in either sampler.
    z = Pvm("Z", basis(3))
    tiny = Scenario(3, ray(1, 1, 1e-5), ray(1, 1j, 1), (z,))
    cases.append(("tiny-born-weight", tiny, z))
    # pre = I: every run passes pre-selection.  The rank-2 post accepts
    # every outcome often (q = 1/3, 1/6, 1/6), so the total's variance,
    # 2/9 N, tells one multinomial from independent outcome counts (1/2 N).
    post = projector_from_vectors([[1, 0, 0], [0, 1, 1]])
    full = Scenario(3, identity_projector(3), post, (z,))
    cases.append(("pre-identity", full, z))
    for seed in range(6):
        dim = 2 + seed % 3
        scenario = random_scenario(dim, rng_for(40 + seed), n_pvms=1)
        cases.append((f"random-d{dim}-{seed}", scenario, scenario.measurements[0]))
    return cases


CASES = _cases()


def exact_pass_chances(scenario, pvm):
    """q_k = Tr(post P_k pre P_k) / d, the chance that one run from I/d
    passes pre-selection, gives outcome k and passes post-selection; 0
    where the Born weight Tr(P_k pre) / Tr(pre) is at most EPS_PROB."""
    pre, post = scenario.pre.matrix, scenario.post.matrix
    q = []
    for e in pvm.elements:
        pk = e.matrix
        born = np.trace(pk @ pre).real / np.trace(pre).real
        joint = np.trace(post @ pk @ pre @ pk).real / scenario.dim
        q.append(max(joint, 0.0) if born > EPS_PROB else 0.0)
    return np.array(q)


def count_table(sampler, scenario, pvm, seeds):
    """Rows per seed: each outcome's accepted count, then their total."""
    rows = []
    for seed in seeds:
        result = sampler(scenario, pvm, SAMPLES, seed)
        counts = [result[k][1] for k in range(len(pvm.elements))]
        rows.append(counts + [sum(counts)])
    return np.array(rows, dtype=float)


def assert_binomial_counts(table, q):
    """Column j of ``table`` follows Binomial(SAMPLES, q[j]) within SIGMAS."""
    r = len(table)
    mean, var = SAMPLES * q, SAMPLES * q * (1 - q)
    for j in range(len(q)):
        column = table[:, j]
        if q[j] == 0.0:
            assert not column.any()
            continue
        kappa = (1 - 6 * q[j] * (1 - q[j])) / var[j]
        assert abs(column.mean() - mean[j]) <= SIGMAS * np.sqrt(var[j] / r)
        relative_error = np.sqrt(kappa / r + 2 / (r - 1))
        assert abs(column.var(ddof=1) / var[j] - 1) <= SIGMAS * relative_error


@pytest.mark.parametrize("name, scenario, pvm", CASES, ids=[c[0] for c in CASES])
def test_counts_follow_the_reference_law(name, scenario, pvm):
    q = exact_pass_chances(scenario, pvm)
    q = np.append(q, q.sum())
    reference = count_table(reference_simulate, scenario, pvm, range(REPEATS))
    staged = count_table(simulate_frequencies, scenario, pvm,
                         range(10**6, 10**6 + REPEATS))
    assert_binomial_counts(reference, q)
    assert_binomial_counts(staged, q)
    spread = SIGMAS * np.sqrt(2 * SAMPLES * q * (1 - q) / REPEATS)
    assert np.all(np.abs(reference.mean(axis=0) - staged.mean(axis=0)) <= spread)


def test_cases_cover_each_stage():
    chances = {name: exact_pass_chances(s, pvm) for name, s, pvm in CASES}
    assert chances["tiny-born-weight"][2] == 0.0
    assert chances["three-box-E1"] == pytest.approx([1 / 27, 0.0])
    assert chances["pre-identity"] == pytest.approx([1 / 3, 1 / 6, 1 / 6])


def reference_outcome(born, u):
    """The earlier sampler's outcome for the uniform ``u``."""
    k = np.searchsorted(np.cumsum(born), u, side="right")
    return int(np.clip(k, 0, len(born) - 1))


@pytest.mark.parametrize(
    "born, expected",
    [
        ([0.5, 0.25, 0.25 - 1e-12], [0.5, 0.25, 0.25]),  # total 1 - 1e-12
        ([0.5, 0.25, 0.25 + 1e-12], [0.5, 0.25, 0.25]),  # total 1 + 1e-12
        ([0.5, 0.5 + 1e-12, 0.0], [0.5, 0.5, 0.0]),  # 1 + 1e-12 before the last
        ([0.2, 0.3, 0.501], [0.2, 0.3, 0.5]),  # total 1 + 1e-3
        ([0.2, 0.801, 0.0], [0.2, 0.8, 0.0]),  # 1 + 1e-3 before the last
        ([0.25, 0.0, 0.75 + 1e-3, 0.0], [0.25, 0.0, 0.75, 0.0]),
    ],
)
def test_outcome_weights_are_the_inverse_cdf_law(born, expected):
    born = np.array(born)
    w = _outcome_weights(born)
    assert w.tolist() == expected
    assert w.sum() == 1.0
    # The reference maps u in [lower, upper) to k: check both edges and
    # the first u above.
    upper = np.append(np.minimum(np.cumsum(born), 1.0)[:-1], 1.0)
    lower = np.append(0.0, upper[:-1])
    for k in np.flatnonzero(w):
        assert reference_outcome(born, lower[k]) == k
        assert reference_outcome(born, np.nextafter(upper[k], 0.0)) == k
        if upper[k] < 1.0:
            assert reference_outcome(born, upper[k]) > k
