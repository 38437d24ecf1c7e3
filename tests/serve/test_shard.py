"""The shard's typed-error wall, in-process.

:func:`repro.serve.shard.evaluate_outcome` is the one place a request's
outcome becomes a wire tuple, and :func:`rebuild_error` the one place a
wire error becomes a typed exception again; both run here without any
worker process.
"""

import pytest

from repro.core.api import evaluate_prm
from repro.devices.catalog import get_device
from repro.errors import BackendBroken, InfeasiblePlacement, InvalidInput
from repro.serve import EvaluateRequest, decode_result
from repro.serve.shard import evaluate_outcome, rebuild_error

from tests.conftest import paper_requirements


def _request():
    return EvaluateRequest(paper_requirements("fir", "virtex5"), "xc5vlx110t")


def _raise_on_run(monkeypatch, error):
    def run(self, remaining_s):
        raise error

    monkeypatch.setattr(EvaluateRequest, "run", run)


def test_result_maps_to_ok_with_encoded_entry():
    kind, entry = evaluate_outcome(_request())
    assert kind == "ok"
    fresh = evaluate_prm(paper_requirements("fir", "virtex5"), "xc5vlx110t")
    assert decode_result(entry, get_device("xc5vlx110t")) == fresh


def test_repro_error_maps_to_its_code_and_json_safe_details(monkeypatch):
    _raise_on_run(
        monkeypatch,
        InfeasiblePlacement("no room", rows=3, name="fir", gone=None, obj=object()),
    )
    outcome = evaluate_outcome(_request())
    assert outcome == (
        "err",
        "infeasible_placement",
        "no room",
        {"rows": 3, "name": "fir", "gone": None},
    )
    rebuilt = rebuild_error(*outcome[1:])
    assert type(rebuilt) is InfeasiblePlacement
    assert rebuilt.message == "no room"
    assert rebuilt.details == {"rows": 3, "name": "fir", "gone": None}


def test_untyped_exception_maps_to_unhandled_then_backend_broken(monkeypatch):
    _raise_on_run(monkeypatch, ZeroDivisionError("boom"))
    outcome = evaluate_outcome(_request())
    assert outcome[:2] == ("err", "__unhandled__")
    assert "ZeroDivisionError" in outcome[2]
    assert outcome[3] == {}
    rebuilt = rebuild_error(*outcome[1:])
    assert isinstance(rebuilt, BackendBroken)
    assert rebuilt.retryable
    assert rebuilt.details == {"cause": "__unhandled__"}
    assert "boom" in rebuilt.message


def test_rebuild_falls_back_to_message_only_when_details_do_not_fit():
    # ``message`` collides with the positional parameter: TypeError.
    rebuilt = rebuild_error("invalid_input", "bad", {"message": "clash"})
    assert type(rebuilt) is InvalidInput
    assert rebuilt.message == "bad"
    assert rebuilt.details == {}


@pytest.mark.parametrize("code", ["not-a-code", ""])
def test_unknown_code_rebuilds_as_backend_broken(code):
    rebuilt = rebuild_error(code, "what", {"k": 1})
    assert isinstance(rebuilt, BackendBroken)
    assert rebuilt.details == {"cause": code}
