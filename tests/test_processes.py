"""Real multi-process integration: launch, kill, restart, resume.

These spawn `ambox` subprocesses on loopback sockets with wall-clock time
and short intervals, so they are slower than the sim tests but prove the
artifact works as actual processes.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ambox
from ambox import cli

AMBOX = [sys.executable, "-m", "ambox.cli"]
# The `src` directory this test imported `ambox` from: children import it too.
SRC = str(Path(ambox.__file__).resolve().parent.parent)


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with SRC first on the child's PYTHONPATH."""
    inherited = os.environ.get("PYTHONPATH")
    path = SRC + os.pathsep + inherited if inherited else SRC
    return {**os.environ, "PYTHONPATH": path, **extra}


def write_config(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj))
    return path


def wait_for_port_file(data_dir: Path, role: str, timeout_s: float = 10.0) -> int:
    deadline = time.monotonic() + timeout_s
    port_file = data_dir / f"{role}.port"
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise TimeoutError(f"{role} did not write its port file")


def spawn(config_path: Path, *role_args, **env: str) -> subprocess.Popen:
    """Start an `ambox` process, with `env` added to its environment. Its
    stdout and stderr go to files beside its config, appended to across
    restarts, so a chatty child never blocks on a pipe nobody reads; with
    PYTHONFAULTHANDLER set, SIGABRT dumps every thread's stack there."""
    stdout_path = config_path.with_suffix(".stdout")
    stderr_path = config_path.with_suffix(".stderr")
    with open(stdout_path, "ab") as stdout, open(stderr_path, "ab") as stderr:
        proc = subprocess.Popen(
            AMBOX + list(role_args) + ["--config", str(config_path)],
            stdout=stdout,
            stderr=stderr,
            env=child_env(PYTHONFAULTHANDLER="1", **env),
        )
    proc.stderr_path = stderr_path
    return proc


def stop(proc: subprocess.Popen, sig=signal.SIGTERM, timeout_s: float = 10.0) -> int:
    """Send `sig` and wait. A process that does not exit in time gets SIGABRT,
    which makes the fault handler print every thread's stack, then SIGKILL;
    the tail of its stderr is printed and -9 returned."""
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGABRT)
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        tail = proc.stderr_path.read_bytes()[-20_000:].decode("utf-8", "replace")
        print(f"{proc.args} did not exit within {timeout_s} s of {sig!r}; stderr tail:\n{tail}")
        return -9


def run_cli(*args, timeout_s: float = 30.0) -> subprocess.CompletedProcess:
    return subprocess.run(AMBOX + list(args), capture_output=True, text=True,
                          timeout=timeout_s, env=child_env())


@pytest.fixture()
def stack(tmp_path):
    """A ledger + operator pair; yields their ports and data dirs."""
    procs = []
    ledger_dir = tmp_path / "ledger"
    ledger_dir.mkdir()
    operator_dir = tmp_path / "operator"
    operator_dir.mkdir()
    ledger_cfg = write_config(tmp_path / "ledger.json", {
        "role": "ledger", "data_dir": str(ledger_dir), "listen": "127.0.0.1:0",
        "log_level": "warning",
    })
    operator_cfg = write_config(tmp_path / "operator.json", {
        "role": "operator", "data_dir": str(operator_dir), "listen": "127.0.0.1:0",
        "log_level": "warning",
    })
    procs.append(spawn(ledger_cfg, "ledger"))
    procs.append(spawn(operator_cfg, "operator", "serve"))
    try:
        ledger_port = wait_for_port_file(ledger_dir, "ledger")
        operator_port = wait_for_port_file(operator_dir, "operator")
        yield {
            "tmp": tmp_path,
            "ledger_port": ledger_port,
            "operator_port": operator_port,
            "ledger_dir": ledger_dir,
        }
    finally:
        for proc in procs:
            stop(proc)


def node_config(tmp_path: Path, name: str = "node-1") -> tuple[Path, Path]:
    node_dir = tmp_path / name
    node_dir.mkdir(exist_ok=True)
    cfg = write_config(tmp_path / f"{name}.json", {
        "role": "node", "device_id": name, "data_dir": str(node_dir),
        "listen": "127.0.0.1:0", "log_level": "warning",
    })
    return cfg, node_dir


def test_ledger_serves_and_node_submits(stack):
    tmp = stack["tmp"]
    cfg, node_dir = node_config(tmp)
    node = spawn(cfg, "node")
    try:
        node_port = wait_for_port_file(node_dir, "node")
        result = run_cli(
            "operator", "commission",
            "--device", f"127.0.0.1:{node_port}",
            "--ledger", f"127.0.0.1:{stack['ledger_port']}",
            "--operator", f"127.0.0.1:{stack['operator_port']}",
            "--timeout", "3s",
        )
        assert result.returncode == 0, result.stderr
        result = run_cli(
            "operator", "start",
            "--device", f"127.0.0.1:{node_port}",
            "--prod-id", "cherries", "--batch-no", "B-1",
            "--sample-interval", "200ms", "--report-interval", "600ms",
        )
        assert result.returncode == 0, result.stderr
        time.sleep(3.0)
        result = run_cli("operator", "tail-ledger",
                         "--ledger", f"127.0.0.1:{stack['ledger_port']}",
                         "--device", "node-1", "--limit", "50")
        assert result.returncode == 0, result.stderr
        reports = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
        assert len(reports) >= 2
        assert all(r["device_id"] == "node-1" for r in reports)
        fleet = run_cli("operator", "fleet",
                        "--operator", f"127.0.0.1:{stack['operator_port']}")
        view = json.loads(fleet.stdout)
        assert view["node-1"]["reported_state"] == "monitoring"
    finally:
        stop(node)


def test_sigterm_monitoring_node_resumes(stack):
    tmp = stack["tmp"]
    cfg, node_dir = node_config(tmp, "node-2")
    node = spawn(cfg, "node")
    try:
        node_port = wait_for_port_file(node_dir, "node")
        assert run_cli(
            "operator", "commission",
            "--device", f"127.0.0.1:{node_port}",
            "--ledger", f"127.0.0.1:{stack['ledger_port']}",
            "--operator", f"127.0.0.1:{stack['operator_port']}",
            "--timeout", "3s",
        ).returncode == 0
        assert run_cli(
            "operator", "start",
            "--device", f"127.0.0.1:{node_port}",
            "--prod-id", "cherries", "--batch-no", "B-2",
            "--sample-interval", "200ms", "--report-interval", "600ms",
        ).returncode == 0
        time.sleep(2.0)
        code = stop(node)  # SIGTERM mid-monitoring
        assert code == 0

        # Persisted state says monitoring, with the job parameters intact.
        persisted = json.loads((node_dir / "ambox_config.json").read_text())
        assert persisted["state"] == "monitoring"
        assert persisted["job"]["product_id"] == "cherries"
        assert persisted["job"]["sample_interval_ms"] == 200

        before = _ledger_count(stack, "node-2")
        (node_dir / "node.port").unlink()
        node = spawn(cfg, "node")
        node_port = wait_for_port_file(node_dir, "node")
        time.sleep(3.0)
        after = _ledger_count(stack, "node-2")
        assert after > before  # resumed monitoring and submitting on its own
    finally:
        stop(node)


def _ledger_count(stack, device: str) -> int:
    result = run_cli("operator", "tail-ledger",
                     "--ledger", f"127.0.0.1:{stack['ledger_port']}",
                     "--device", device, "--limit", "500")
    return len([line for line in result.stdout.splitlines() if line.strip()])


@pytest.mark.parametrize("flag, verb", [("--ledger", "tail-ledger"), ("--operator", "fleet")])
def test_an_operator_verb_names_the_peer_it_cannot_reach(flag, verb):
    result = run_cli("operator", verb, flag, "127.0.0.1:9")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "127.0.0.1:9" in result.stderr, result.stderr


def test_port_in_use_second_process(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    cfg_a = write_config(tmp_path / "a.json", {
        "role": "ledger", "data_dir": str(dir_a), "listen": "127.0.0.1:0",
        "log_level": "warning",
    })
    first = spawn(cfg_a, "ledger")
    try:
        port = wait_for_port_file(dir_a, "ledger")
        cfg_b = write_config(tmp_path / "b.json", {
            "role": "ledger", "data_dir": str(dir_b),
            "listen": f"127.0.0.1:{port}", "log_level": "warning",
        })
        second = spawn(cfg_b, "ledger")
        code = second.wait(timeout=10)
        assert code == 3  # port-in-use exit code
    finally:
        stop(first)


def test_a_ledger_process_loads_only_the_ledgers_modules(tmp_path):
    data_dir = tmp_path / "ledger"
    data_dir.mkdir()
    config = write_config(tmp_path / "ledger.json", {
        "role": "ledger", "data_dir": str(data_dir), "listen": "127.0.0.1:0",
        "log_level": "warning",
    })
    # Python then writes "import time: self | cumulative | name" per module.
    proc = spawn(config, "ledger", PYTHONPROFILEIMPORTTIME="1")
    try:
        wait_for_port_file(data_dir, "ledger")
    finally:
        assert stop(proc) == 0
    imported = {line.rpartition("|")[2].strip()
                for line in proc.stderr_path.read_text("utf-8").splitlines()
                if line.startswith("import time:")}
    assert {"ambox.ledger", "ambox.transport.tcp"} <= imported
    assert imported & {"ambox.harness", "ambox.node", "ambox.mote", "ambox.runtime",
                       "ambox.sensors", "ambox.fleet", "ambox.transport.sim",
                       "ambox.transport.http", "http.client", "http.server"} == set()


def test_config_invalid_exit_codes(tmp_path):
    missing_role = write_config(tmp_path / "bad.json", {"data_dir": str(tmp_path)})
    result = run_cli("node", "--config", str(missing_role))
    assert result.returncode == 2
    assert "config-invalid" in result.stderr

    virtual = write_config(tmp_path / "virt.json", {
        "role": "node", "device_id": "n", "data_dir": str(tmp_path), "clock": "virtual",
    })
    result = run_cli("node", "--config", str(virtual))
    assert result.returncode == 2
    assert "harness" in result.stderr


@pytest.mark.parametrize("value", ["abc", "nan", "-5s", "1e400", "1e999999min", "1.5ms"])
def test_an_operator_duration_that_is_not_one_is_a_usage_error(value):
    result = run_cli("operator", "start", "--device", "127.0.0.1:9", "--prod-id", "p",
                     "--batch-no", "b", "--sample-interval", value)
    assert result.returncode == 2
    assert "error: argument --sample-interval: " in result.stderr
    assert "Traceback" not in result.stderr


def closed_port() -> int:
    """A local port that nothing listens on: bound, then released."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize("verb, peer", [("tail-ledger", "--ledger"), ("fleet", "--operator")])
def test_an_operator_verb_whose_peer_is_down_is_an_error_line(verb, peer):
    result = run_cli("operator", verb, peer, f"127.0.0.1:{closed_port()}")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert result.stdout == ""


def test_operator_durations_are_read_in_their_units():
    texts = ("30s", "5min", "2m", "1500ms", "1500", "1.1s", "0")
    assert [cli._duration_ms(text) for text in texts] == [
        30_000, 300_000, 120_000, 1_500, 1_500, 1_100, 0]


@pytest.mark.parametrize("shape", [
    [1],
    {"motes": ["mote-1"]},
    {"sensors": ["temperature"]},
    {"sensors": {"temperature": 21}},
    {"sensors": {"temperature": {"range_min": "abc"}}},
    {"motes": {"mote-1": "no-port"}},
    {"device_id": 5},
], ids=["root-array", "motes-list", "sensors-list", "sensor-spec-number", "sensor-field-string",
        "mote-address", "device-id-number"])
def test_a_config_of_the_wrong_shape_is_invalid(tmp_path, capsys, shape):
    # Refused before anything is written: a node that stored its state first
    # would raise the same error at every restart.
    data_dir = tmp_path / "data"
    if isinstance(shape, dict):
        shape = {"role": "node", "device_id": "n", "data_dir": str(data_dir), **shape}
    config = write_config(tmp_path / "node.json", shape)
    assert cli.main(["node", "--config", str(config)]) == 2
    assert "config-invalid" in capsys.readouterr().err
    assert not data_dir.exists()


def test_node_mote_over_real_sockets(stack):
    tmp = stack["tmp"]
    mote_dir = tmp / "mote-1"
    mote_dir.mkdir()
    mote_cfg = write_config(tmp / "mote.json", {
        "role": "mote", "device_id": "mote-1", "paired_node": "node-3",
        "data_dir": str(mote_dir), "listen": "127.0.0.1:0", "log_level": "warning",
    })
    mote = spawn(mote_cfg, "mote")
    node = None
    try:
        mote_port = wait_for_port_file(mote_dir, "mote")
        node_dir = tmp / "node-3"
        node_dir.mkdir()
        node_cfg = write_config(tmp / "node3.json", {
            "role": "node", "device_id": "node-3", "data_dir": str(node_dir),
            "listen": "127.0.0.1:0", "log_level": "warning",
            "motes": {"mote-1": f"127.0.0.1:{mote_port}"},
        })
        node = spawn(node_cfg, "node")
        node_port = wait_for_port_file(node_dir, "node")
        assert run_cli(
            "operator", "commission",
            "--device", f"127.0.0.1:{node_port}",
            "--ledger", f"127.0.0.1:{stack['ledger_port']}",
            "--operator", f"127.0.0.1:{stack['operator_port']}",
            "--timeout", "3s",
        ).returncode == 0
        assert run_cli(
            "operator", "start",
            "--device", f"127.0.0.1:{node_port}",
            "--prod-id", "cherries", "--batch-no", "B-3",
            "--sample-interval", "200ms", "--report-interval", "600ms",
        ).returncode == 0
        time.sleep(4.0)
        result = run_cli("operator", "tail-ledger",
                         "--ledger", f"127.0.0.1:{stack['ledger_port']}",
                         "--batch-no", "B-3", "--limit", "100")
        reports = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
        sources = {r2["source_device"] for r in reports for r2 in r["readings"]}
        assert "mote-1" in sources  # relayed mote readings reached the ledger
        result = run_cli("operator", "decommission",
                         "--device", f"127.0.0.1:{node_port}",
                         "--ledger", f"127.0.0.1:{stack['ledger_port']}",
                         "--timeout", "10s")
        assert result.returncode == 0, result.stdout + result.stderr
        summary = json.loads(result.stdout)
        assert summary["drained"] is True
    finally:
        if node is not None:
            stop(node)
        stop(mote)


def test_harness_cli_runs_scenario_file(tmp_path):
    trace = tmp_path / "trace.csv"
    rows = ["offset_s,temp_c,hum_pct,press_hpa"]
    for m in range(0, 41, 5):
        rows.append(f"{m*60},20.0,55.0,1013.0")
    trace.write_text("\n".join(rows) + "\n")
    scenario = {
        "schema_version": 1,
        "name": "cli-mini",
        "time_scale": 0,
        "span_min": 20,
        "drain_margin_min": 2,
        "trace": str(trace),
        "devices": [{"id": "node1", "kind": "node"}],
        "links": [
            {"name": "wifi", "between": ["node1", "ledger"]},
            {"name": "oplink", "between": ["node1", "operator"]},
        ],
        "faults": [{"link": "wifi", "start_min": 5, "end_min": 8, "mode": "down"}],
        "job": {
            "prod_id": "p", "batch_no": "b",
            "sample_interval_s": 60, "report_interval_min": 5,
            "sensor_params": {"temperature": {"enabled": True}},
        },
        "assertions": [{"check": "zero_reading_loss"}, {"check": "chain_intact"}],
    }
    scenario_file = tmp_path / "mini.json"
    scenario_file.write_text(json.dumps(scenario))
    out_file = tmp_path / "report.json"
    result = run_cli("harness", "run", str(scenario_file), "--seed", "5",
                     "--out", str(out_file), timeout_s=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "PASS" in result.stdout
    report = json.loads(out_file.read_bytes())
    assert report["passed"] is True
    assert report["counts"]["sampled"] == 20
