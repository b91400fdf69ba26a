"""The kernel engine: when stability decisions call it, and agreement with the reduction route.

`stability_check` checks witnesses and samples flags on `compute_Q(ar)`; these
tests pin that it equals the kernel matrix of the observable part on
non-observable systems, that exhaustive certification never calls the engine,
and that the generators read off the kernel's rref match the older route that
reduced every kernel vector against the span of lower generators
(`oracles.reduction_kernel_generators`).
"""

import random

import pytest

from fbinv import arsys
from fbinv.arsys import compute_Q, is_observable, observable_part
from fbinv.pencil import from_state_space, to_ar
from fbinv.realization import left_coprime_mfd
from fbinv.reference import reference_system
from fbinv.sampling import random_ar_system, random_state_space
from fbinv.stability import StabilityMode, StabilityStatus, stability_check
from oracles import reduction_kernel_generators

SIZES = ((1, 2, 3), (2, 2, 4), (2, 3, 4))  # (m, p, n)


def _non_observable_systems(seeds=40):
    for m, p, n in SIZES:
        rng = random.Random(1000 * m + 100 * p + n)
        for _ in range(seeds):
            ar = random_ar_system(rng, m, p, n, lo=-1, hi=1)
            if not is_observable(ar):
                yield ar


@pytest.fixture
def engine_calls(monkeypatch):
    """Route every kernel computation through a wrapper that checks it against the oracle."""
    calls = []
    engine = arsys.minimal_kernel_generators

    def checked(*args, **kwargs):
        gens = engine(*args, **kwargs)
        assert gens == reduction_kernel_generators(*args, **kwargs)
        calls.append(args[0].rows)
        return gens

    monkeypatch.setattr(arsys, "minimal_kernel_generators", checked)
    return calls


def test_non_observable_systems_decide_on_their_own_kernel():
    systems = list(_non_observable_systems())
    assert len(systems) >= 10
    for ar in systems:
        small = observable_part(ar)
        assert small.n < ar.n
        assert compute_Q(ar) == compute_Q(small)
        for mode in StabilityMode:
            assert stability_check(ar, mode, seed=5) == stability_check(small, mode, seed=5)


def test_echelon_generators_match_the_reduction_route(engine_calls):
    rng = random.Random(11)
    systems = [reference_system()] + list(_non_observable_systems(seeds=8))
    systems += [random_ar_system(rng, m, p, n) for m, p, n in SIZES]
    for ar in systems:
        observable_part(ar)  # compute_Q on P, then the kernel of Q
    for n, m, p in ((2, 1, 1), (3, 2, 1), (3, 1, 2), (4, 2, 2)):
        ss = random_state_space(rng, n, m, p)
        left_coprime_mfd(ss)
        to_ar(from_state_space(ss))
    assert len(engine_calls) == 2 * len(systems) + 8


@pytest.mark.parametrize("mode", list(StabilityMode))
def test_stability_check_runs_the_kernel_engine_once(monkeypatch, mode):
    """At most one kernel computation per check.

    GenericSubspace mode samples flags on Q, so it computes Q exactly once.
    Exhaustive mode reads ranks off [P; H] and computes Q only to check a
    witness, once however many witnesses it checks.
    """
    calls = []
    engine = arsys.minimal_kernel_generators

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(arsys, "minimal_kernel_generators", counted)
    systems = [reference_system()] + list(_non_observable_systems(seeds=6))[:3]
    assert any(not is_observable(ar) for ar in systems)
    for ar in systems:
        calls.clear()
        verdict = stability_check(ar, mode)
        if mode == StabilityMode.GENERIC_SUBSPACE:
            assert len(calls) == 1
        else:
            assert len(calls) == (0 if verdict.witness is None else 1)
    if mode == StabilityMode.GENERIC_SUBSPACE:
        return
    calls.clear()
    assert stability_check(reference_system(), mode).status == StabilityStatus.STABLE_CERTIFIED
    assert calls == []
    # fails at h = 1 and h = 2, so several witnesses are checked against one Q
    failing = random_ar_system(random.Random(0), 2, 2, 3, row_degrees=(0, 3))
    verdict = stability_check(failing, mode)
    assert verdict.status == StabilityStatus.CRITERION_FAILS and verdict.witness is not None
    assert len(calls) == 1
