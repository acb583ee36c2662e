"""Bessel J against mpmath, scipy and closed-form oracles."""

import mpmath
import numpy as np
import pytest
from scipy import special

from lagsob import bessel_j


class TestBesselJ:
    def test_values_at_zero(self):
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_frozen_reference_point(self):
        assert bessel_j(1.0, 1.0) == pytest.approx(0.4400505857449335, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.5])
    def test_against_scipy_on_certified_range(self, alpha):
        for z in np.linspace(0.0, 60.0, 121):
            assert bessel_j(alpha, float(z)) == pytest.approx(
                float(special.jv(alpha, z)), abs=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.5])
    def test_against_mpmath_on_certified_range(self, alpha):
        with mpmath.workdps(30):
            for z in np.linspace(0.0, 60.0, 121):
                ref = float(mpmath.besselj(alpha, mpmath.mpf(float(z))))
                assert bessel_j(alpha, float(z)) == pytest.approx(ref, abs=1e-12)

    def test_other_orders_and_ends_against_mpmath(self):
        # Orders just off an integer, the leading-term branch below z = 1e-9
        # (where 2 nu / z would overflow the recurrence), and a large order.
        cases = [(0.001, 7.3), (0.999, 41.0), (7.25, 60.0), (0.3, 1e-310), (2.5, 5e-10), (300.0, 60.0)]
        with mpmath.workdps(40):
            for alpha, z in cases:
                ref = float(mpmath.besselj(alpha, mpmath.mpf(z)))
                assert bessel_j(alpha, z) == pytest.approx(ref, rel=1e-13)
        # From order 440 on, J underflows to zero on the whole range.
        assert bessel_j(440.0, 60.0) == 0.0 == float(mpmath.besselj(440, 60))
        with pytest.raises(ValueError, match="finite"):
            bessel_j(float("inf"), 1.0)

    def test_derivative_identity(self):
        # J0' = -J1, J0' from central differences
        for z in (0.5, 1.0, 2.0, 5.0, 10.0):
            h = 1e-6
            fd = (bessel_j(0.0, z + h) - bessel_j(0.0, z - h)) / (2 * h)
            assert abs(fd - (-bessel_j(1.0, z))) <= 1e-8

    def test_small_argument_law(self):
        for z in np.linspace(1e-4, 0.1, 25):
            assert abs(bessel_j(1.0, float(z)) / z - 0.5) <= z**2 / 16.0 + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bessel_j(1.0, -0.1)
        with pytest.raises(ValueError):
            bessel_j(1.0, 60.5)
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)

