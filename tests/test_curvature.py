"""Curvature of the catalog metrics against independently derived tables."""
import itertools

import pytest

from curvkit import CurvatureBundle, TensorError
from curvkit.curvature import christoffel
from curvkit.expr import ZERO
from curvkit.tensor import D_RIEMANN, D_SYM2

import vaidya_reference as ref
from conftest import expect_components, expr


class TestVaidya:
    def test_riemann(self, vaidya):
        expect_components(vaidya, vaidya.riemann, ref.RIEMANN)
        assert vaidya.riemann.descriptor == D_RIEMANN

    def test_ricci(self, vaidya):
        expect_components(vaidya, vaidya.ricci, ref.RICCI)
        assert vaidya.ricci.descriptor == D_SYM2

    def test_scalar_curvature_vanishes(self, vaidya):
        assert vaidya.kappa == expr(ref.KAPPA, vaidya)

    def test_weyl(self, vaidya):
        expect_components(vaidya, vaidya.weyl, ref.WEYL)

    def test_energy_momentum(self, vaidya):
        expect_components(vaidya, vaidya.energy_momentum,
                          ref.ENERGY_MOMENTUM)

    def test_nabla_ricci(self, vaidya):
        expect_components(vaidya, vaidya.nabla("S"), ref.NABLA_RICCI)

    def test_concircular_equals_riemann(self, vaidya):
        # kappa = 0 makes the kappa-corrected tensor collapse onto R
        assert vaidya.concircular.equals(vaidya.riemann)

    def test_conharmonic_differs_from_weyl_nowhere(self, vaidya):
        # kappa = 0 also merges the two conformal-type corrections
        assert vaidya.conharmonic.equals(vaidya.weyl)


class TestSphere:
    def test_christoffel(self, sphere2):
        conn = sphere2.connection
        # nonzero symbols of the round metric, 0 = polar, 1 = azimuthal
        assert conn[(0, 1, 1)] == expr("-sin(theta)*cos(theta)", sphere2)
        assert conn[(1, 0, 1)] == expr("cos(theta)/sin(theta)", sphere2)
        assert conn[(0, 0, 0)].is_zero

    def test_scalar_curvature_constant(self, sphere2):
        assert sphere2.kappa == expr("-2/a^2", sphere2)

    def test_einstein(self, sphere2):
        alpha = expr("-1/a^2", sphere2)
        assert sphere2.ricci.equals(sphere2.g_tensor.scale(alpha))

    def test_riemann_single_component(self, sphere2):
        comps = dict(sphere2.riemann.iter_nonzero())
        assert list(comps) == [(0, 1, 0, 1)]
        assert comps[(0, 1, 0, 1)] == expr("a^2*sin(theta)^2", sphere2)

    def test_low_dimension_has_no_conformal_tensor(self, sphere2):
        with pytest.raises(TensorError, match="dimension"):
            sphere2.weyl
        with pytest.raises(TensorError, match="dimension"):
            sphere2.conharmonic


class TestFlat:
    def test_minkowski_flat(self, minkowski):
        assert minkowski.riemann.is_zero
        assert minkowski.ricci.is_zero
        assert minkowski.kappa.is_zero
        assert minkowski.weyl.is_zero
        assert minkowski.connection[(0, 0, 0)].is_zero

    def test_schwarzschild_ricci_flat_not_flat(self, schwarzschild):
        assert schwarzschild.ricci.is_zero
        assert schwarzschild.kappa.is_zero
        assert not schwarzschild.riemann.is_zero
        assert schwarzschild.energy_momentum.is_zero

    def test_schwarzschild_curvature_families_collapse(self, schwarzschild):
        r = schwarzschild.riemann
        for name in ("P", "W", "C", "K"):
            assert schwarzschild.tensor(name).equals(r), name


class TestBundleApi:
    def test_names_and_dims(self, vaidya, sphere2):
        assert vaidya.name == "vaidya" and vaidya.dim == 4
        assert sphere2.dim == 2

    def test_tensor_lookup(self, vaidya):
        assert vaidya.tensor("R") is vaidya.riemann
        assert vaidya.tensor("g") is vaidya.g_tensor
        with pytest.raises(TensorError, match="unknown tensor"):
            vaidya.tensor("X")

    def test_nabla_cached_and_shaped(self, vaidya):
        n1 = vaidya.nabla("S")
        assert n1 is vaidya.nabla("S")
        assert n1.valence == 3
        assert vaidya.nabla("R").valence == 5

    def test_divergence_shapes(self, vaidya):
        assert vaidya.divergence("S").valence == 1
        assert vaidya.divergence("R").valence == 3
        # R's antisymmetry in its last pair survives the contraction
        assert vaidya.divergence("R").descriptor.ops == (("anti", 1, 2),)

    @pytest.mark.parametrize("name", ["S", "R", "C"])
    def test_divergence_contracts_at_every_tuple(self, vaidya, name):
        div = vaidya.divergence(name)
        nt = vaidya.nabla(name)
        n = vaidya.dim
        # div S = (1/2) d kappa vanishes here, since kappa = 0
        assert div.is_zero == (name == "S")
        for rest in itertools.product(range(n), repeat=div.valence):
            want = ZERO
            for i in range(n):
                for m in range(n):
                    want = want + (vaidya.metric.upper(i, m)
                                   * nt.get((i,) + rest + (m,)))
            assert div.get(rest) == want, rest

    def test_gaussian_is_half_wedge(self, minkowski):
        from curvkit import kulkarni_nomizu
        gg = kulkarni_nomizu(minkowski.g_tensor, minkowski.g_tensor)
        assert minkowski.gaussian.scale(expr("2", minkowski)).equals(gg)

    def test_connection_symmetry(self, vaidya):
        conn = christoffel(vaidya.metric)
        n = vaidya.dim
        for l in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    assert conn[(l, i, j)] == conn[(l, j, i)]
