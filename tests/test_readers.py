"""Every reader of outside data refuses a wrong type in every field.

Each reader below is given a valid object with one field, at any depth,
replaced by a value of another JSON type. It must raise its own error: it
may neither return (that value would have been converted to fit) nor raise
anything else. A number field, written as a float in the valid object,
takes an int as well; the paths listed as nullable take null as "none".
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from ambox.cli import ConfigInvalid, ProcessConfig
from ambox.envelope import MalformedEnvelope, SignedEnvelope
from ambox.harness.scenario import ScenarioError, scenario_from_obj
from ambox.ledger import Verdict
from ambox.model import (
    DeviceIdentity,
    DeviceKind,
    HeartbeatMessage,
    ModelError,
    MonitoringJob,
    NodeState,
    decode_report,
)
from ambox.mote import MoteConfig
from ambox.storage import HeartbeatTarget, LedgerTarget, PersistedConfig

from conftest import T0, make_report

# A report with a relayed, signed reading; its signature may be null.
REPORT = make_report(n_readings=2).to_obj()
REPORT["readings"][1].update(source_device="mote-1", signature_b64="c2ln")

JOB = MonitoringJob("cherries", "B-18", 60_000, 300_000, {"temperature": {"enabled": True}})

SCENARIO = {
    "schema_version": 1,
    "name": "typed",
    "time_scale": 0.0,
    "span_min": 30.0,
    "drain_margin_s": 60.0,
    "heartbeat_timeout_ms": 30_000.0,
    "trace": "trace.csv",
    "devices": [
        {"id": "node1", "kind": "node",
         "sensors": {"temperature": {"bias_constant": 3.0, "range_max": 50.0}}},
        {"id": "mote1", "kind": "mote", "paired_node": "node1"},
    ],
    "links": [
        {"name": "wifi", "between": ["node1", "ledger"], "class": "wide_area",
         "base_latency_ms": 5},
    ],
    "faults": [
        {"link": "wifi", "start_min": 5.0, "end_min": 7.0, "mode": "latency", "latency_ms": 50},
    ],
    "job": {
        "prod_id": "cherries",
        "batch_no": "B-18",
        "sample_interval_s": 60.0,
        "report_interval_min": 5.0,
        "sensor_params": {"temperature": {"enabled": True}},
    },
    "assertions": [{"check": "zero_reading_loss"},
                   {"check": "committed_reports", "expected": 48},
                   {"check": "all_commits_after", "offset_min": 230.0},
                   {"check": "heartbeat_liveness", "device": "node1", "timeout_ms": 30_000}],
}

PROCESS_CONFIG = {
    "role": "node",
    "data_dir": "data",
    "listen": "127.0.0.1:0",
    "device_id": "node1",
    "log_level": "info",
    "clock": "wall",
    "motes": {"mote1": "127.0.0.1:9"},
    "paired_node": "",
    "sensors": {"temperature": {"range_min": -10.0, "accuracy": 0.5}},
}


def _load_process_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "node.json"

    def load(obj):
        path.write_text(json.dumps(obj))
        return ProcessConfig.load(path)

    return load


# name: (valid object, reader, its error, nullable paths)
READERS = {
    "HeartbeatMessage": (HeartbeatMessage("node1", NodeState.HEARTBEAT, T0, 3, True, 2).to_obj(),
                         HeartbeatMessage.from_obj, ModelError, ()),
    "DeviceIdentity": (DeviceIdentity("node1", DeviceKind.NODE, "PEM").to_obj(),
                       DeviceIdentity.from_obj, ModelError, ()),
    "MonitoringJob": (JOB.to_obj(), MonitoringJob.from_obj, ModelError, ()),
    # `schema_version` is the document reader's field, not the config's.
    "MoteConfig": ({k: v for k, v in MoteConfig(True, 30_000, JOB.sensor_params).to_obj().items()
                    if k != "schema_version"}, MoteConfig.from_obj, ModelError, ()),
    "PersistedConfig": (
        {k: v for k, v in PersistedConfig(NodeState.MONITORING, JOB,
                                          HeartbeatTarget("operator", 1, 30_000),
                                          LedgerTarget("ledger", 1, "ambox", "events"),
                                          17).to_obj().items() if k != "schema_version"},
        PersistedConfig.from_obj, ModelError, (("heartbeat",), ("ledger",))),
    "Verdict": (Verdict("committed", "r-1", "why", True).to_obj(), Verdict.from_obj,
                ModelError, ()),
    # The shape a client reads in place: a wrong type sends it to the checks.
    "Verdict committed": (Verdict("committed", "r-1").to_obj(), Verdict.from_obj, ModelError, ()),
    # Readers that read a well-typed object in place.
    "decode_report": (REPORT, lambda obj: decode_report(json.dumps(obj).encode("utf-8")),
                      ModelError, (("readings", 1, "signature_b64"),)),
    "SignedEnvelope": ({"payload_b64": "AA==", "signature_b64": "AA==", "signer": "node1"},
                       SignedEnvelope.from_wire_obj, MalformedEnvelope, ()),
    "ProcessConfig.load": (PROCESS_CONFIG, None, ConfigInvalid, ()),
    "scenario_from_obj": (SCENARIO, scenario_from_obj, ScenarioError, (("job",),)),
}

KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _kind(value):
    return {type(None): "null", bool: "bool", int: "int", float: "float", str: "string",
            list: "array", dict: "object"}[type(value)]


def _fields(obj, path=()):
    """Every (path, value) in `obj`, containers and what they hold alike."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def _replaced(obj, path, value):
    copy = json.loads(json.dumps(obj))
    holder = copy
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return copy


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_valid_object_is_read(name, tmp_path_factory):
    obj, reader, _, _ = READERS[name]
    (reader or _load_process_config(tmp_path_factory))(obj)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_wrong_type_is_refused_in_every_field(name, tmp_path_factory, data):
    obj, reader, error, nullable = READERS[name]
    reader = reader or _load_process_config(tmp_path_factory)
    for path, valid in _fields(obj):
        taken = {_kind(valid)} | ({"int"} if isinstance(valid, float) else set())
        if path in nullable:
            taken.add("null")
        for kind in sorted(set(KINDS) - taken):
            value = data.draw(KINDS[kind], label=f"{path} as {kind}")
            with pytest.raises(error):
                reader(_replaced(obj, path, value))
