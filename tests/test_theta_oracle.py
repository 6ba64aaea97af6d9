"""wp and wp' against an independent oracle: Jacobi theta functions.

For the lattice [1, tau], with nome q = exp(i*pi*tau) and theta_k = theta_k(0),

    wp(z) = (pi theta_2 theta_3 theta_4(pi z) / theta_1(pi z))^2
            - (pi^2 / 3) (theta_2^4 + theta_3^4),

evaluated with mpmath at 40 digits; wp' is the derivative of the same
formula.  A scale lambda enters through homogeneity: wp(z; lambda L) =
lambda^-2 wp(z / lambda; L) and wp'(z; lambda L) = lambda^-3 wp'(z / lambda; L).

The evaluator's target is eval_tol on the normalized lattice, so the error is
measured there: |wp - ref| |lambda|^2, and |wp' - ref'| |lambda|^3.  Where the
normalized reference exceeds 1 in modulus the bound is taken relative to it:
rounding z / lambda and its re-centered representative to floats already
moves wp by |wp'| times an ulp, which passes 1e-12 in absolute terms within
about 0.07 of a pole (0.2 for wp').

Worst errors seen, measured this way over 2,000 uniform draws from each set
below per kind (square / triangular; the worst of wp, wp_array, wp_pair and
wp'): fundamental cell 2.5e-14 / 1.4e-14, near poles 3.9e-16 / 9.6e-14, near
half-periods 1.1e-13 / 1.0e-13 (wp' in both), lambda != 1 4.7e-14 / 1.2e-13.
The largest, 1.2e-13, is a ninth of eval_tol.
"""
import cmath
import math

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weierdyn.lattice import LatticeKind, ToleranceConfig, _kind_data, make_lattice, wp, wp_array, wp_pair

CFG = ToleranceConfig()
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

kinds = st.sampled_from(list(LatticeKind))
unit = st.floats(0.0, 1.0, exclude_max=True)
angle = st.floats(0.0, 2.0 * math.pi)
small_int = st.integers(-2, 2)


def theta_wp(kind: LatticeKind, z: complex, lam: complex) -> tuple[complex, complex]:
    """wp and wp' of the lattice lambda * [1, tau] at z, by the theta formula."""
    with mpmath.workdps(40):
        tau = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2) if kind is LatticeKind.TRIANGULAR else mpmath.mpc(0, 1)
        q = mpmath.exp(1j * mpmath.pi * tau)
        t2, t3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)
        w = mpmath.pi * mpmath.mpc(z) / mpmath.mpc(lam)
        t1, t4 = mpmath.jtheta(1, w, q), mpmath.jtheta(4, w, q)
        d1, d4 = mpmath.jtheta(1, w, q, 1), mpmath.jtheta(4, w, q, 1)
        c2 = (mpmath.pi * t2 * t3) ** 2
        ratio = t4 / t1
        val = c2 * ratio * ratio - mpmath.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4)
        dval = 2 * c2 * ratio * mpmath.pi * (d4 * t1 - t4 * d1) / (t1 * t1)
        lam = mpmath.mpc(lam)
        return complex(val / lam ** 2), complex(dval / lam ** 3)


def lattice_distance(kind: LatticeKind, u: complex) -> float:
    """Distance from u to the nearest point of [1, tau], by brute force."""
    tau = _kind_data(kind).tau
    c = complex(round(u.real), round(u.imag))
    return min(abs(u - (c + m + n * tau)) for m in range(-3, 4) for n in range(-3, 4))


def check_against_theta(kind: LatticeKind, z: complex, lam: complex) -> None:
    lat = make_lattice(kind, lam, CFG)
    ref, dref = theta_wp(kind, z, lam)
    s2, s3 = abs(lam) ** 2, abs(lam) ** 3
    val_scale = max(1.0, abs(ref) * s2)
    der_scale = max(1.0, abs(dref) * s3)
    val, der = wp_pair(z, lat, CFG)
    vals, poles = wp_array(np.array([z]), lat, CFG)
    assert not poles[0]
    for got in (wp(z, lat, CFG), complex(vals[0]), val):
        assert abs(got - ref) * s2 <= CFG.eval_tol * val_scale
    assert abs(der - dref) * s3 <= CFG.eval_tol * der_scale


@SETTINGS
@given(kinds, unit, unit)
def test_wp_matches_theta_in_the_fundamental_cell(kind, s, t):
    z = s + t * _kind_data(kind).tau
    assume(lattice_distance(kind, z) >= 0.01)
    check_against_theta(kind, z, 1.0)


@SETTINGS
@given(kinds, small_int, small_int, st.floats(0.01, 0.2), angle)
def test_wp_matches_theta_near_poles(kind, m, n, rho, theta):
    z = m + n * _kind_data(kind).tau + rho * cmath.exp(1j * theta)
    check_against_theta(kind, z, 1.0)


@SETTINGS
@given(kinds, st.sampled_from([(1, 0), (0, 1), (1, 1)]), small_int, small_int, st.floats(0.0, 0.05), angle)
def test_wp_matches_theta_near_half_periods(kind, half, m, n, eps, theta):
    tau = _kind_data(kind).tau
    z = (half[0] + half[1] * tau) / 2 + m + n * tau + eps * cmath.exp(1j * theta)
    check_against_theta(kind, z, 1.0)


@SETTINGS
@given(kinds, st.floats(0.25, 4.0), angle, unit, unit)
def test_wp_matches_theta_at_other_scales(kind, size, arg, s, t):
    lam = size * cmath.exp(1j * arg)
    assume(lam != 1.0)
    u = s + t * _kind_data(kind).tau
    assume(lattice_distance(kind, u) >= 0.01)
    check_against_theta(kind, lam * u, lam)
