import pathlib
import signal

import pytest

from curvkit import (CurvatureBundle, Tensor, TensorError, curvature,
                     parse_metric_file)
from curvkit.expr import ZERO
from curvkit.parsing import parse_expression

CATALOG = pathlib.Path(__file__).resolve().parent.parent / "catalog"
# every shipped metric: the catalog's and the benchmark's stress metrics
METRIC_FILES = [path for d in (CATALOG, CATALOG.parent / "bench" / "metrics")
                for path in sorted(d.glob("*.metric"))]

# A test's set-up and its call each fail once they run past this many
# seconds, so that a wrong tensor makes a slow test fail instead of stalling
# the suite.  The slowest test takes under 10 s.
TEST_TIME_CAP_S = 120


def _capped(phase: str):
    def expire(signum, frame):
        pytest.fail(f"{phase} ran past the {TEST_TIME_CAP_S} s per-test cap",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_CAP_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _capped("set-up")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _capped("test")


def load_bundle(name: str) -> CurvatureBundle:
    text = (CATALOG / f"{name}.metric").read_text()
    return CurvatureBundle(parse_metric_file(text))


@pytest.fixture(scope="session")
def vaidya():
    return load_bundle("vaidya")


@pytest.fixture(scope="session")
def schwarzschild():
    return load_bundle("schwarzschild")


@pytest.fixture(scope="session")
def ludwig_edgar():
    return load_bundle("ludwig-edgar")


@pytest.fixture(scope="session")
def minkowski():
    return load_bundle("minkowski")


@pytest.fixture(scope="session")
def sphere2():
    return load_bundle("sphere2")


def expr(text: str, bundle: CurvatureBundle):
    """Parse an expression string in the bundle's chart."""
    return parse_expression(text, bundle.chart)


def expect_components(bundle, tensor, table: dict):
    """Assert the tensor's canonical nonzero set matches the table exactly."""
    got = {("".join(str(i + 1) for i in idx)): v
           for idx, v in tensor.iter_nonzero()}
    assert sorted(got) == sorted(table), (
        f"nonzero component sets differ: extra {sorted(set(got) - set(table))},"
        f" missing {sorted(set(table) - set(got))}")
    for key, text in table.items():
        want = expr(text, bundle)
        assert got[key] == want, (
            f"component {key}: got {got[key]}, want {want}")


class DisguisedZero(Tensor):
    """A zero table that is not known zero: a getter table whose getter
    returns ZERO and is kept once every representative is read, so that
    each constructor and identity builder treats it as a table whose zeros
    it has to evaluate."""

    __slots__ = ()

    def __init__(self, t: Tensor):
        super().__init__(t.chart, t.valence, t.descriptor,
                         getter=lambda idx: ZERO)

    def _read(self, rep):
        getter = self.getter
        v = super()._read(rep)
        self.getter = getter
        return v


def disguised(t: Tensor, seen: dict | None = None) -> Tensor:
    """t, or a DisguisedZero in its place when t is known zero; seen maps
    each disguised object's id to (it, its disguise), so that one object
    gets one disguise."""
    if not t.known_zero:
        return t
    if seen is None:
        return DisguisedZero(t)
    got = seen.get(id(t))
    if got is None:
        got = seen[id(t)] = (t, DisguisedZero(t))
    return got[1]


TABLE_BUILDERS = ("covariant_derivative", "kulkarni_nomizu", "dot_action",
                  "tachibana", "divergence_first", "endo_square")


def disguise_zeros(bundle: CurvatureBundle, monkeypatch) -> CurvatureBundle:
    """The bundle with no known-zero table in reach: each curvature tensor
    that is known zero is swapped for its disguise, and each table the
    bundle's evaluation builds (looked up in curvature) likewise."""
    seen = {}
    for attr in set(CurvatureBundle._NAMES.values()):
        try:
            t = getattr(bundle, attr)
        except TensorError:
            continue   # C and K are undefined on the 2-sphere
        bundle.__dict__[attr] = disguised(t, seen)

    def disguising(build):
        return lambda *operands: disguised(build(*operands), seen)

    for name in TABLE_BUILDERS:
        monkeypatch.setattr(curvature, name,
                            disguising(getattr(curvature, name)))
    return bundle
