"""Shared fixtures and pinned regression constants.

The complex constants below come from recorded pilot runs; tests treat them
as inputs and assert against them, they are never re-derived in-test.
"""
import pytest

from weierdyn import rng
from weierdyn.hyperbolic import build_sample
from weierdyn.lattice import LatticeKind, ToleranceConfig, make_lattice

# bounded-orbit candidate: the critical value lands on a repelling fixed
# point, so the postcritical set is finite and uniformly expanding
CANDIDATE = 1.9101297082387314 + 0.7624256939043886j
CANDIDATE_ABS_MULT = 3.4600799556074553  # |f'| at the target fixed point

# prepole parameters with residual < 1e-9 and certified isolation
PREPOLE_SQ = 0.5783308619020432 + 0.7360677656029049j  # square, n=1, j=1, k=0
PREPOLE_TRI = 0.5392909261501828 + 0.11091500820528369j  # triangular, n=1, j=1, k=0

ATTRACTING_SQ = 1.2 + 2.04j  # one attracting fixed point, |mult| ~ 0.36
SUPER_SQ = 2.395731512146699  # lambda**3 = 2*e1_norm: critical fixed point
TRI_THREE = 2.3 + 0j  # three attracting orbits sharing one multiplier
TRI_ONE = 1.8 + 1.44j  # a single attracting orbit of period 3

# critical values of the normalized (lambda = 1) lattices
E1_SQUARE_NORM = 6.8751858180203715
E1_TRI_NORM = 5.8983439694847695

DEMO_REGION = (0.5, 3.0, 0.5, 3.0)



def disc_samples(seed: int, ri: int, n: int) -> list:
    """rng.unit_disc_point(seed, ri, i) for i < n, drawn in one batch."""
    x, y = rng.unit_disc_points((seed, ri), range(n))
    return [complex(a, b) for a, b in zip(x.tolist(), y.tolist())]


# verdict lines recorded by the acceptance tests; echoed after the run so
# they survive output capture and reach piped logs
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg():
    return ToleranceConfig()


@pytest.fixture(scope="session")
def square2(cfg):
    return make_lattice(LatticeKind.SQUARE, 2.0 + 0j, cfg)


@pytest.fixture(scope="session")
def tri1(cfg):
    return make_lattice(LatticeKind.TRIANGULAR, 1.0 + 0j, cfg)


@pytest.fixture(scope="session")
def candidate_sample(cfg):
    return build_sample(LatticeKind.SQUARE, CANDIDATE, 16, 0.02, cfg)
