"""Shared fixtures: the classical field, its section, and cached chains.

Chain sampling is the expensive part of the suite, so anything longer
than a handful of transitions is session-scoped and shared.
"""

import pytest

from lorenzlab import (
    FieldSpec,
    NoiseLaw,
    SectionSpec,
    next_crossing,
    sample_chain,
    settle_on_attractor,
)


@pytest.fixture(scope="session")
def field():
    return FieldSpec()


@pytest.fixture(scope="session")
def section(field):
    return SectionSpec(field=field, eps_box=25.0)


@pytest.fixture(scope="session")
def y_start(field):
    return settle_on_attractor(field)


@pytest.fixture(scope="session")
def x_on_section(section, y_start):
    return next_crossing(section.forced(0.0), section, y_start).y


@pytest.fixture(scope="session")
def chain_med(section, y_start):
    """1150 transitions at eps 0.05 with stored segments (approx 8 s)."""
    law = NoiseLaw.uniform(0.05)
    return sample_chain(law, section, y_start, n=1150, seed=5,
                        keep_segments=True)


@pytest.fixture(scope="session")
def chain_short(section, x_on_section):
    law = NoiseLaw.uniform(0.05)
    return sample_chain(law, section, x_on_section, n=60, seed=9,
                        keep_segments=True)
