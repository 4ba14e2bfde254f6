import pytest
from conftest import CANONICAL, CANONICAL_LOADING, build_unswapped
from hypothesis import given
from hypothesis import strategies as st

from thermobounds import (
    CoatedSphereConfig,
    EqualBulkModuli,
    EqualShearModuli,
    InvalidExponent,
    NonPositiveModulus,
    Ordering,
    PhaseProperties,
    VolumeFractionOutOfRange,
    build_composite,
    compliance_interval,
    max_field_lower_bound,
    phase_moment,
)
from thermobounds.materials import check_exponent


def spec(k1=2.0, mu1=1.0, h1=0.0, k2=1.0, mu2=0.5, h2=1.0, theta1=0.5):
    return (
        PhaseProperties(k=k1, mu=mu1, h=h1),
        PhaseProperties(k=k2, mu=mu2, h=h2),
        theta1,
    )


def validated(**kwargs):
    return build_unswapped(*spec(**kwargs))


class TestNormalization:
    def test_swaps_when_mu1_smaller(self):
        out, swapped = build_composite(
            PhaseProperties(k=1.0, mu=0.5, h=1.0),
            PhaseProperties(k=2.0, mu=1.0, h=0.0),
            0.3,
        )
        assert swapped
        assert out.phase1.mu == 1.0 and out.phase2.mu == 0.5
        assert out.theta1 == 0.7 and out.theta2 == pytest.approx(0.3)
        assert out.theta2 == 1.0 - (1.0 - 0.3)

    def test_keeps_conforming_spec(self):
        out, swapped = build_composite(*spec())
        assert not swapped
        assert out.phase1.mu == 1.0

    def test_equal_shear_rejected(self):
        with pytest.raises(EqualShearModuli):
            build_composite(*spec(mu1=1.0, mu2=1.0))

    @given(
        mu1=st.floats(0.01, 100.0),
        mu2=st.floats(0.01, 100.0),
        theta1=st.floats(0.01, 0.99),
    )
    def test_involution_on_conforming(self, mu1, mu2, theta1):
        if mu1 == mu2:
            return
        once, _ = build_composite(*spec(mu1=mu1, mu2=mu2, theta1=theta1))
        twice, swapped_again = build_composite(once.phase1, once.phase2, once.theta1)
        assert not swapped_again
        assert twice == once


class TestValidation:
    def test_well_ordered(self):
        comp = validated(k1=2.0, k2=1.0)
        assert comp.ordering is Ordering.WELL_ORDERED

    def test_non_well_ordered(self):
        comp = validated(k1=1.0, k2=2.0)
        assert comp.ordering is Ordering.NON_WELL_ORDERED

    def test_equal_bulk_rejected(self):
        with pytest.raises(EqualBulkModuli):
            build_composite(*spec(k1=1.0, k2=1.0))

    def test_nearly_equal_bulk_rejected(self):
        with pytest.raises(EqualBulkModuli):
            build_composite(*spec(k1=1.0, k2=1.0 + 1e-13))

    def test_strict_comparison_after_gate(self):
        comp = validated(k1=1.000001, k2=1.0)
        assert comp.ordering is Ordering.WELL_ORDERED

    @pytest.mark.parametrize("theta1", [0.0, 1.0, -0.1, 1.1])
    def test_volume_fraction_range(self, theta1):
        with pytest.raises(VolumeFractionOutOfRange):
            build_composite(*spec(theta1=theta1))

    def test_fraction_complement_derived(self):
        comp = validated(theta1=0.3)
        assert comp.theta1 + comp.theta2 == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_moduli_rejected(self, bad):
        with pytest.raises(NonPositiveModulus):
            build_composite(*spec(k1=bad))
        with pytest.raises(NonPositiveModulus):
            build_composite(*spec(mu1=bad))

    def test_negative_and_equal_h_allowed(self):
        comp = validated(h1=-3.0, h2=-3.0)
        assert comp.phase1.h == -3.0

    def test_validated_invariants_hold(self, rng):
        from conftest import random_composite

        for _ in range(200):
            comp = random_composite(rng)
            assert comp.theta1 + comp.theta2 == pytest.approx(1.0, abs=1e-15)
            assert 0.0 < comp.theta1 < 1.0
            assert comp.phase1.mu > comp.phase2.mu
            assert comp.phase1.k != comp.phase2.k
            expected = (
                Ordering.WELL_ORDERED
                if comp.phase1.k > comp.phase2.k
                else Ordering.NON_WELL_ORDERED
            )
            assert comp.ordering is expected


CORE1 = CoatedSphereConfig(CANONICAL, 1)
# by case: the error, and a call of the library with an argument out of its range
LIBRARY_REJECTIONS = {
    "composite-phase-3": (ValueError, lambda: CANONICAL.phase(3)),
    "compliance-interval-phase-3": (ValueError, lambda: compliance_interval(CANONICAL, 3)),
    "phase-moment-phase-3": (ValueError, lambda: phase_moment(CORE1, CANONICAL_LOADING, 3, 2.0)),
    "max-field-p-1": (
        InvalidExponent, lambda: max_field_lower_bound(CANONICAL, CANONICAL_LOADING, p=1.0)
    ),
    "exponent-text": (InvalidExponent, lambda: check_exponent("x")),
}


@pytest.mark.parametrize("error, call", LIBRARY_REJECTIONS.values(), ids=LIBRARY_REJECTIONS)
def test_library_rejects_an_argument_out_of_range(error, call):
    with pytest.raises(error):
        call()
