"""The package's records: immutable tuples, validated where they were constructed."""

import copy
import math
import pickle

import numpy as np
import pytest

from conftest import CANONICAL, CANONICAL_LOADING
import thermobounds as tb
from thermobounds.bounds import Microstructure, MicrostructureKind
from thermobounds.radial_oracle import MIN_NODES, RadialGrid, make_radial_grid


def screened(phase_a, phase_b, theta_a, sigma0, deltaT):
    """The records one screening step builds, constructed as the scatter benchmark does."""
    composite, swapped = tb.build_composite(
        tb.PhaseProperties(*phase_a), tb.PhaseProperties(*phase_b), theta_a)
    loading = tb.Loading(sigma0, deltaT)
    spheres = [tb.CoatedSphereConfig(composite=composite, core_phase=core) for core in (1, 2)]
    return composite, swapped, loading, spheres


class TestConstruction:
    def test_screening_construction_derives_every_field(self):
        composite, swapped, loading, spheres = screened(
            (1.0, 0.5, 1.0), (2.0, 1.0, 0.0), 0.3, -1.5, 2.0)
        assert swapped
        assert composite.phase1 == tb.PhaseProperties(2.0, 1.0, 0.0)
        assert composite.theta1 == 0.7 and composite.theta2 == 0.3
        assert composite.ordering is tb.Ordering.WELL_ORDERED
        assert composite.scaled_moduli == (2.0, 1.0, 0.5, 0.5, 0.25)  # s = 2
        # the constructor takes the first four fields and derives the others
        assert tb.ValidatedComposite(*composite[:4]) == composite
        assert len(composite.endpoints) == 4
        assert loading == (-1.5, 2.0)
        for core, sphere in zip((1, 2), spheres):
            assert sphere == tb.CoatedSphereConfig(composite, core)
            assert sphere.core_phase == core and sphere.coating_phase == 3 - core
            assert sphere.core is composite.phase(core)
            assert sphere.coating is composite.phase(3 - core)
            assert sphere.core_fraction == (composite.theta1, composite.theta2)[core - 1]
            assert sphere.coating_fraction == (composite.theta2, composite.theta1)[core - 1]

    def test_records_compare_equal_to_tuples_of_their_fields(self):
        assert tb.PhaseProperties(k=2.0, mu=1.0, h=0.0) == (2.0, 1.0, 0.0)
        assert CANONICAL_LOADING == (0.0, 1.0)
        micro = Microstructure(MicrostructureKind.COATED_SPHERES, 1, 2)
        assert micro == (MicrostructureKind.COATED_SPHERES, 1, 2, None)
        sphere = tb.CoatedSphereConfig(CANONICAL, 2)
        assert sphere[:2] == (CANONICAL, 2)

    def test_records_compared_by_their_inputs_equal_only_their_own_type(self):
        # a composite and a sphere each compare by their inputs, never with each other
        sphere = tb.CoatedSphereConfig(CANONICAL, 1)
        assert CANONICAL != sphere and sphere != CANONICAL
        assert sphere == tb.CoatedSphereConfig(*sphere[:2])
        assert CANONICAL._replace(theta1=0.25) != CANONICAL  # by its new inputs


class TestImmutability:
    @pytest.mark.parametrize("record, field", [
        (tb.PhaseProperties(2.0, 1.0, 0.0), "k"),
        (CANONICAL_LOADING, "sigma0"),
        (CANONICAL, "theta1"),
        (CANONICAL, "endpoints"),
        (tb.CoatedSphereConfig(CANONICAL, 1), "core_phase"),
        (tb.CoatedSphereConfig(CANONICAL, 1), "core_fraction"),
        (tb.max_field_lower_bound(CANONICAL, CANONICAL_LOADING), "value"),
        (tb.regime_table(CANONICAL, 1.0, "max"), "rows"),
        (tb.effective_properties(tb.CoatedSphereConfig(CANONICAL, 2)), "K_effective"),
    ])
    def test_assigning_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_assigning_a_grid_field_raises(self):
        grid = make_radial_grid(tb.CoatedSphereConfig(CANONICAL, 1), 64)
        with pytest.raises(AttributeError):
            grid.nodes = grid.nodes


class TestValidation:
    @pytest.mark.parametrize("sigma0, deltaT", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (1.0, -math.inf),
    ])
    def test_loading_must_be_finite(self, sigma0, deltaT):
        with pytest.raises(ValueError):
            tb.Loading(sigma0, deltaT)

    def test_core_phase_must_be_1_or_2(self):
        with pytest.raises(ValueError):
            tb.CoatedSphereConfig(composite=CANONICAL, core_phase=3)
        with pytest.raises(ValueError):
            tb.CoatedSphereConfig(CANONICAL, 0)

    def test_coated_sphere_core_and_coating_differ(self):
        with pytest.raises(ValueError):
            Microstructure(MicrostructureKind.COATED_SPHERES, 1, 1)
        assert Microstructure(MicrostructureKind.UNDETERMINED, None, None).core_phase is None

    @pytest.mark.parametrize("nodes, interface_index", [
        (np.linspace(0.1, 1.0, MIN_NODES - 1), 3),   # too few
        (np.linspace(0.0, 1.0, MIN_NODES), 3),       # not positive
        (np.linspace(1.0, 0.1, MIN_NODES), 3),       # decreasing
        (np.linspace(0.1, 0.9, MIN_NODES), 3),       # outer radius not 1
        (np.linspace(0.1, 1.0, MIN_NODES), MIN_NODES - 1),  # interface on the surface
        (np.linspace(0.1, 1.0, MIN_NODES), -1),
        # positive and increasing, but the first cells' r^3 underflows to zero volume
        (np.concatenate([1e-120 * np.arange(1, 5), np.linspace(0.1, 1.0, MIN_NODES)]), 3),
    ])
    def test_bad_grid_raises(self, nodes, interface_index):
        with pytest.raises(ValueError):
            RadialGrid(nodes, interface_index)

    def test_composite_derives_its_ordering_from_the_bulk_moduli(self):
        stiff, soft = tb.PhaseProperties(2.0, 1.0, 0.0), tb.PhaseProperties(1.0, 0.5, 1.0)
        theta1 = 0.3
        well = tb.ValidatedComposite(stiff, soft, theta1, 1 - theta1)
        non = tb.ValidatedComposite(stiff, soft._replace(k=3.0), theta1, 1 - theta1)
        assert well.ordering is tb.Ordering.WELL_ORDERED
        assert non.ordering is tb.Ordering.NON_WELL_ORDERED
        # an ordering that could contradict the moduli is not an argument
        with pytest.raises(TypeError):
            tb.ValidatedComposite(stiff, soft, 0.5, 0.5, tb.Ordering.NON_WELL_ORDERED)
        with pytest.raises(TypeError):
            tb.ValidatedComposite(stiff, soft, 0.5, 0.5, ordering=tb.Ordering.WELL_ORDERED)

    def test_grid_takes_nodes_as_floats(self):
        grid = RadialGrid([i / MIN_NODES for i in range(1, MIN_NODES + 1)], interface_index=4)
        assert grid.nodes.dtype == float and grid.n == MIN_NODES


class TestRoundTrips:
    @pytest.mark.parametrize("record", [
        CANONICAL,
        tb.CoatedSphereConfig(CANONICAL, 1),
        tb.CoatedSphereConfig(composite=CANONICAL, core_phase=2),
        CANONICAL_LOADING,
        tb.Loading(-2.5, 1e-300),
    ])
    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_round_trip_gives_an_equal_record(self, record, round_trip):
        out = round_trip(record)
        assert type(out) is type(record)
        assert out == record
        assert out._asdict() == record._asdict()

    @pytest.mark.parametrize("phase1, phase2", [
        # the endpoint line M1 is nan
        (tb.PhaseProperties(2.0, 1.0, 0.0), tb.PhaseProperties(5e-324, 5e-324, 1.0)),
        # H* of the core-2 sphere is inf * 0 = nan
        (tb.PhaseProperties(1e308, 1e308, 0.0), tb.PhaseProperties(1.0, 0.5, 1.0)),
    ])
    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_a_composite_with_a_nan_constant_equals_its_round_trip(
        self, phase1, phase2, round_trip
    ):
        # a composite compares by the four fields it is constructed from
        composite, _ = tb.build_composite(phase1, phase2, 0.5)
        sphere = tb.CoatedSphereConfig(composite, 2)
        assert not all(map(math.isfinite, (*composite.endpoints.M1, sphere.K, sphere.H)))
        for record in (composite, *(tb.CoatedSphereConfig(composite, core) for core in (1, 2))):
            out = round_trip(record)
            assert out == record and not out != record
            assert hash(out) == hash(record)

    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_a_sphere_with_a_nan_derived_field_equals_its_round_trip(self, round_trip):
        # a sphere compares and hashes by its composite and core phase, the
        # inputs its K, H* and thermal solution are derived from
        composite, _ = tb.build_composite(
            tb.PhaseProperties(1e308, 1e308, 0.0), tb.PhaseProperties(1.0, 0.5, 1.0), 0.5)
        sphere = tb.CoatedSphereConfig(composite, 2)
        assert math.isnan(sphere.H)
        out = round_trip(sphere)
        assert type(out) is tb.CoatedSphereConfig
        assert out == sphere and not out != sphere and hash(out) == hash(sphere)
        assert out == tb.CoatedSphereConfig(composite, 2) != tb.CoatedSphereConfig(composite, 1)
        assert {out, sphere} == {sphere}
        bits = [[x.hex() for x in (*s.thermal, s.K)] for s in (out, sphere)]
        assert bits[0] == bits[1]

    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
        copy.deepcopy,
    ])
    def test_a_built_grid_round_trips_with_its_arrays(self, round_trip):
        grid = make_radial_grid(tb.CoatedSphereConfig(CANONICAL, 2), 257)
        out = round_trip(grid)
        assert type(out) is RadialGrid
        assert out.interface_index == grid.interface_index
        assert out.nodes.tobytes() == grid.nodes.tobytes()
        assert out.volume_weights.tobytes() == grid.volume_weights.tobytes()
