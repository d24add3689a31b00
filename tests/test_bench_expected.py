"""The recorded outputs of the solve-stress benchmark, checked in tier-1.

Every solve-stress operation runs through bench/ops.py (set-up, run_op,
render) and its text is compared byte for byte with
bench/expected/solve-stress.json, so that a changed witness fails here
before it fails the benchmark's output check. The test only reads those
files; the one operation recorded as null (unverified) is skipped."""
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_ops():
    spec = importlib.util.spec_from_file_location("bench_ops",
                                                  BENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ops = _bench_ops()
EXPECTED = ops.load_expected("solve-stress")
OPS = ops.full_pool("solve-stress")


@pytest.fixture(scope="module")
def bundles():
    return ops.setup("solve-stress")


def test_every_operation_is_recorded():
    assert sorted(map(ops.key, OPS)) == sorted(EXPECTED)


@pytest.mark.parametrize("op", OPS, ids=ops.key)
def test_output_is_recorded_bytes(bundles, op):
    want = EXPECTED[ops.key(op)]
    if want is None:
        pytest.skip("recorded as null: unverified")
    assert ops.render(op, ops.run_op(bundles, op)) == want
