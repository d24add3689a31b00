"""Curvature of the catalog metrics against independently derived tables."""
import itertools

import pytest

from curvkit import CurvatureBundle, TensorError, parse_metric_file
from curvkit.curvature import christoffel, evaluate_tensor_ast, riemann
from curvkit.expr import Expression, ZERO
from curvkit.parsing import TNode
from curvkit.tensor import Connection, D_RIEMANN, D_SYM2, Metric

import vaidya_reference as ref
from conftest import CATALOG, expect_components, expr, load_bundle

BENCH_METRICS = CATALOG.parent / "bench" / "metrics"
KERR = CATALOG.parent / "tests" / "kerr.metric"


def div(b, name):
    """div T of the named tensor, evaluated through the bundle memo."""
    return evaluate_tensor_ast(TNode("div", TNode(name)), b, b.memo)


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

    def test_nabla_is_the_evaluated_ast(self):
        b = load_bundle("vaidya")
        got = evaluate_tensor_ast(TNode("nabla", TNode("S")), b, b.memo)
        assert got is b.nabla("S")
        # kappa = 0 makes C the conharmonic tensor, so they share one nabla
        assert b.nabla("C") is b.nabla("K")
        assert div(b, "C") is div(b, "K")

    def test_divergence_shapes(self, vaidya):
        assert div(vaidya, "S").valence == 1
        assert div(vaidya, "R").valence == 3
        # R's antisymmetry in its last pair survives the contraction
        assert div(vaidya, "R").descriptor.ops == (("anti", 1, 2),)

    @pytest.mark.parametrize("name", ["S", "R", "C"])
    def test_divergence_contracts_at_every_tuple(self, vaidya, name):
        got = div(vaidya, name)
        nt = vaidya.nabla(name)
        n = vaidya.dim
        # div S = (1/2) d kappa vanishes here, since kappa = 0
        assert got.is_zero == (name == "S")
        for rest in itertools.product(range(n), repeat=got.valence):
            want = ZERO
            for i in range(n):
                for m in range(n):
                    want = want + (vaidya.metric.upper(i, m)
                                   * nt.get((i,) + rest + (m,)))
            assert got.get(rest) == want, rest

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


def old_riemann_entry(conn, g):
    """R_ijkl by the module docstring's convention, as riemann computed it
    before it read the first-kind table: every Gamma^m_lj differentiated,
    the bracket lowered by g_im.  Assumes no symmetry of R."""
    n = g.dim
    coords = g.chart.coords
    gam = conn.gamma
    dgam = [[[[gam[m][i][j].derivative(coords[k]) for k in range(n)]
              for j in range(n)] for i in range(n)] for m in range(n)]

    def entry(idx):
        i, j, k, l = idx
        total = ZERO
        for m in range(n):
            gim = g.lower(i, m)
            if gim.is_zero:
                continue
            term = dgam[m][l][j][k] - dgam[m][k][j][l]
            for p in range(n):
                a = gam[m][k][p]
                b = gam[p][l][j]
                if not (a.is_zero or b.is_zero):
                    term = term + a * b
                a = gam[m][l][p]
                b = gam[p][k][j]
                if not (a.is_zero or b.is_zero):
                    term = term - a * b
            total = total + gim * term
        return total

    return entry


def dense_reference(bundle):
    """R and S at every index tuple from the module docstring's formulas,
    with no symmetry assumed."""
    g, n = bundle.metric, bundle.dim
    entry = old_riemann_entry(bundle.connection, g)
    riemann = {idx: entry(idx)
               for idx in itertools.product(range(n), repeat=4)}
    ricci = {}
    for j, k in itertools.product(range(n), repeat=2):
        s = ZERO
        for i, l in itertools.product(range(n), repeat=2):
            s = s + g.upper(i, l) * riemann[i, j, k, l]
        ricci[j, k] = s
    return riemann, ricci


@pytest.mark.parametrize("path", sorted(CATALOG.glob("*.metric"))
                         + sorted(BENCH_METRICS.glob("*.metric")),
                         ids=lambda p: p.stem)
def test_representatives_carry_every_tuple(path):
    """R and S are built from canonical representatives only; every index
    tuple of a dense reference agrees with get, so the declared symmetries
    hold and every tuple they force to zero is zero."""
    bundle = CurvatureBundle(parse_metric_file(path.read_text()))
    riemann, ricci = dense_reference(bundle)
    for idx, want in riemann.items():
        assert bundle.riemann.get(idx) == want, idx
    for idx, want in ricci.items():
        assert bundle.ricci.get(idx) == want, idx


@pytest.fixture(scope="module", params=sorted(CATALOG.glob("*.metric"))
                + sorted(BENCH_METRICS.glob("*.metric")) + [KERR],
                ids=lambda p: p.stem)
def oracle_bundle(request):
    return CurvatureBundle(parse_metric_file(request.param.read_text()))


class TestFirstKindRiemann:
    """riemann reads the connection's first-kind table; its R equals the
    derivative-of-Gamma route it replaced, exactly, at every
    representative, Kerr's included."""

    def test_riemann_equals_the_old_route(self, oracle_bundle):
        b = oracle_bundle
        entry = old_riemann_entry(b.connection, b.metric)
        for rep in D_RIEMANN.reps(b.dim, 4):
            assert (b.riemann.get(rep) - entry(rep)).is_zero, rep

    def test_gamma_lowers_to_the_kept_table(self, oracle_bundle):
        b = oracle_bundle
        g, conn, n = b.metric, b.connection, b.dim
        for m, i, j in itertools.product(range(n), repeat=3):
            lowered = ZERO
            for l in range(n):
                lowered = lowered + g.lower(m, l) * conn.gamma[l][i][j]
            assert (lowered - conn.first[m][i][j]).is_zero, (m, i, j)

    def test_one_table_feeds_christoffel_and_riemann(self, monkeypatch):
        b = load_bundle("vaidya")
        conn = b.connection
        for table in (conn.first, conn.gamma):
            for plane in table:
                for i, j in itertools.combinations(range(b.dim), 2):
                    assert plane[i][j] is plane[j][i]
        assert conn == Connection(conn.chart, conn.gamma, ())
        kept = {id(v) for plane in conn.first for row in plane for v in row}
        differentiated = []
        derivative = Expression.derivative

        def spy(self, coord):
            differentiated.append(id(self))
            return derivative(self, coord)

        monkeypatch.setattr(Expression, "derivative", spy)
        monkeypatch.setattr(Metric, "lower", lambda *_: pytest.fail(
            "riemann read a metric entry"))
        assert not riemann(conn, b.metric).is_zero
        assert differentiated and set(differentiated) <= kept
