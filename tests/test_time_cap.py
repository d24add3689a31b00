"""The per-test time cap of conftest.py."""
import time

import pytest

import conftest


def test_a_test_past_the_cap_fails_naming_it(monkeypatch):
    monkeypatch.setattr(conftest, "TEST_TIME_CAP_S", 0.05)
    phase = conftest._capped("test")
    next(phase)
    try:
        with pytest.raises(pytest.fail.Exception,
                           match=r"^test ran past the 0\.05 s per-test cap$"):
            time.sleep(5)
    finally:
        phase.close()
