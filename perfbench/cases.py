"""Seeded synthetic policy cases for the benchmark.

Draws from the same distribution, in the same random-number order, as
`make_cases` in tests/conftest.py: the outcome is driven by p90 and one
planted interest group (AARP, the first IG column), plus noise. The
benchmark keeps its own copy so that it depends on nothing under tests/.
"""

from __future__ import annotations

import numpy as np

from policyforest.dataset import IG_NAMES, PA_LABELS, PA_TO_PD, PolicyCase

N_CASES = 1800          # paper scale
MISSING_P90_EVERY = 20  # every 20th case has no p90: 90 of 1,800
DRIVER_IG = 0           # index of the planted interest group (AARP)


def make_cases(seed: int, n: int = N_CASES) -> list[PolicyCase]:
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        p90 = float(rng.uniform())
        align = np.zeros(len(IG_NAMES), dtype=int)
        n_active = int(rng.integers(2, 8))
        active = rng.choice(len(IG_NAMES), size=n_active, replace=False)
        align[active] = rng.choice([-2, -1, 1, 2], size=n_active)
        if align[DRIVER_IG] == 0:
            align[DRIVER_IG] = int(rng.choice([-2, 2]))
        pa = PA_LABELS[int(rng.integers(len(PA_LABELS)))]
        score = 2.0 * (p90 - 0.5) + 0.5 * align[DRIVER_IG] \
            + float(rng.normal(0, 0.8))
        cases.append(PolicyCase(
            case_id=f"case-{i}", year=int(rng.integers(1981, 2003)),
            outcome=int(score > 0),
            ig_alignments=tuple(int(v) for v in align),
            policy_area=pa, policy_domain=PA_TO_PD[pa],
            p90=None if i % MISSING_P90_EVERY == 0 else p90))
    return cases
