"""The repro.run/1 envelope: optional sections and the JSONL flattening."""

import json

import pytest

from repro.obs.schema import (
    SCHEMA,
    make_run_payload,
    run_payload_to_jsonl,
    validate_run_payload,
)


def _full_payload():
    """An envelope carrying every optional section the schema knows."""
    return make_run_payload(
        "demo", params={"nodes": 4},
        results={"answer": 42},
        metrics={"net.messages": 7},
        latency={"faa/INV": {"count": 2, "mean": 10.0, "p50": 9,
                             "p95": 11, "max": 11}},
        critpath={"txns": 2, "cycles": 20, "by_kind": {"msg": 20},
                  "by_component": {}, "keys": {}, "worst": []},
        hotspots={"window": 256, "blocks_seen": 1,
                  "top": [{"block": 0, "score": 12}]},
        perf={"wall_seconds": 0.125, "events_per_second": 800000.0},
        profile={"total_ns": 1000, "attributed_ns": 900, "dispatch_ns": 100,
                 "events": 5, "runs": 1,
                 "kinds": {"Process.resume": {"calls": 5, "ns": 900,
                                              "share": 0.9}}},
    )


def test_optional_sections_kept_and_validated():
    payload = _full_payload()
    assert set(payload) == {"schema", "experiment", "version", "params",
                            "results", "metrics", "latency", "critpath",
                            "hotspots", "perf", "profile"}
    assert validate_run_payload(payload) is payload
    for key in ("critpath", "hotspots", "profile"):
        bad = dict(payload)
        bad[key] = "nope"
        with pytest.raises(ValueError, match=key):
            validate_run_payload(bad)


def test_all_sections_round_trip_through_json():
    """Serialize → parse → validate with every optional section present."""
    payload = _full_payload()
    reparsed = validate_run_payload(json.dumps(payload))
    assert reparsed == payload
    assert reparsed["profile"]["kinds"]["Process.resume"]["calls"] == 5
    assert reparsed["perf"]["wall_seconds"] == 0.125


def test_sections_absent_when_not_given():
    payload = make_run_payload("demo", params={}, results={})
    assert "critpath" not in payload and "hotspots" not in payload
    validate_run_payload(payload)


def test_jsonl_one_record_per_line_with_discriminator():
    lines = run_payload_to_jsonl(_full_payload()).splitlines()
    records = [json.loads(line) for line in lines]
    kinds = [r["record"] for r in records]
    assert kinds[0] == "run" and kinds[-1] == "results"
    assert kinds.count("metric") == 1
    assert kinds.count("latency") == 1
    assert kinds.count("critpath") == 1
    assert kinds.count("hotspot") == 1
    assert kinds.count("perf") == 1
    assert kinds.count("profile") == 1
    header = records[0]
    assert header["schema"] == SCHEMA
    assert header["experiment"] == "demo"
    by_kind = {r["record"]: r for r in records}
    assert by_kind["metric"] == {"record": "metric",
                                 "name": "net.messages", "value": 7}
    assert by_kind["latency"]["key"] == "faa/INV"
    assert by_kind["latency"]["p95"] == 11
    assert by_kind["critpath"]["cycles"] == 20
    assert by_kind["hotspot"]["block"] == 0
    assert by_kind["perf"]["wall_seconds"] == 0.125
    assert by_kind["profile"]["dispatch_ns"] == 100
    assert by_kind["results"]["results"] == {"answer": 42}


def test_jsonl_minimal_payload():
    lines = run_payload_to_jsonl(
        make_run_payload("demo", params={}, results={})
    ).splitlines()
    kinds = [json.loads(line)["record"] for line in lines]
    assert kinds == ["run", "results"]


def test_jsonl_validates_first():
    with pytest.raises(ValueError):
        run_payload_to_jsonl({"schema": "bogus", "results": {}})


def test_perf_section_kept_and_flattened():
    payload = make_run_payload(
        "demo", params={}, results={},
        perf={"wall_seconds": 0.125, "events_per_second": 800000.0},
    )
    assert payload["perf"]["wall_seconds"] == 0.125
    validate_run_payload(payload)
    records = [json.loads(line)
               for line in run_payload_to_jsonl(payload).splitlines()]
    perf_records = [r for r in records if r["record"] == "perf"]
    assert perf_records == [{"record": "perf", "wall_seconds": 0.125,
                             "events_per_second": 800000.0}]


def test_perf_section_absent_when_not_given():
    payload = make_run_payload("demo", params={}, results={})
    assert "perf" not in payload
    records = [json.loads(line)
               for line in run_payload_to_jsonl(payload).splitlines()]
    assert not [r for r in records if r["record"] == "perf"]


def test_perf_section_must_be_an_object():
    payload = make_run_payload("demo", params={}, results={})
    payload["perf"] = 0.5
    with pytest.raises(ValueError, match="perf"):
        validate_run_payload(payload)
