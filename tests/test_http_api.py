"""The HTTP-shaped shim over the framed transport."""

import pytest

from ambox.http_api import ShimHttpClient, shim_server_handler
from ambox.runtime import SimScheduler
from ambox.transport import RequestClient, TransportError
from ambox.transport.sim import SimNetwork


def test_shim_roundtrip_and_malformed():
    rt = SimScheduler()
    net = SimNetwork(rt)

    def router(method, path, body):
        if method == "POST" and path == "/x":
            return 200, {"echo": body}
        return 404, {"error": "unknown-endpoint"}

    net.register_server("svc", shim_server_handler(router))
    client = ShimHttpClient(net.client("tester"))
    out = {}

    def probe():
        out["ok"] = client.call("svc", "POST", "/x", {"v": 1})
        out["missing"] = client.call("svc", "GET", "/nope", None)
        raw = net.client("tester").request("svc", b"not json", 1000)
        out["malformed"] = raw

    rt.spawn("probe", probe)
    rt.step()
    assert out["ok"] == (200, {"echo": {"v": 1}})
    assert out["missing"][0] == 404
    assert b'"status": 400' in out["malformed"] or b'"status":400' in out["malformed"]


class CannedRequester(RequestClient):
    def __init__(self, raw):
        self.raw = raw

    def request(self, dest, payload, timeout_ms, label=""):
        return self.raw


@pytest.mark.parametrize("raw", [
    b"not json", b"\xff", b"[1]", b'{"body": {}}', b'{"status": "200", "body": {}}',
    b'{"status": true, "body": {}}', b'{"status": 200, "body": [1]}',
], ids=repr)
def test_shim_client_refuses_a_misshapen_answer(raw):
    with pytest.raises(TransportError):
        ShimHttpClient(CannedRequester(raw)).call("svc", "GET", "/x", None)
