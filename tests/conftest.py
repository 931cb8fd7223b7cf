import time
from types import SimpleNamespace

import pytest

from einselect import STATE_1, STATE_2, make_x_state, sweep


@pytest.fixture
def state1():
    return make_x_state(STATE_1)


@pytest.fixture
def state2():
    return make_x_state(STATE_2)


@pytest.fixture(scope="session")
def pd_state1_run():
    """Full-resolution dephasing sweep of the strongly coherent reference state.

    Session-scoped because several acceptance checks read the same trajectory;
    the wall time of the single sweep call is part of what gets checked.
    """
    rho = make_x_state(STATE_1)
    start = time.perf_counter()
    report = sweep(rho, "pd")
    seconds = time.perf_counter() - start
    return SimpleNamespace(report=report, seconds=seconds)
