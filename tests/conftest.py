import pytest
from hypothesis import settings

from taylorpade.fields import PRIMES_62

from oracles import GF, QQ

# Each property test draws the same examples on every run, seeded from the
# test's own source, and replays no example saved by an earlier run: which
# lines of src/ a run reaches no longer changes between runs.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def gf():
    return GF(PRIMES_62[0])


@pytest.fixture
def qq():
    return QQ()
