"""Process entry points: one binary, five roles.

    ambox node --config node.json
    ambox mote --config mote.json
    ambox ledger --config ledger.json
    ambox operator serve --config operator.json
    ambox operator commission --device host:port --ledger host:port ...
    ambox harness run setup1.json --seed 1 [--real-time]

Each long-running role writes its bound port to <data_dir>/<role>.port (useful
with listen port 0) and shuts down cleanly on SIGTERM: buffers are already
durable at every step, so shutdown only stops loops and closes sockets.
`AMBOX_DATA_DIR` overrides the config's data directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .envelope import generate_keypair, load_private_key, save_private_key
from .fleet import (
    CommissionPlan,
    OperatorCore,
    OperatorError,
    commission,
    decommission,
    start_monitoring,
    stop_monitoring,
)
from .harness import ScenarioError, load_scenario, run_scenario, scenario_path
from .ledger import Ledger, LedgerClient, LedgerService
from .model import HUMIDITY, PRESSURE, TEMPERATURE
from .mote import MoteAgent
from .node import NodeAgent
from .runtime import RealRuntime
from .sensors import (
    MOTE_SENSOR_SPECS,
    NODE_SENSOR_SPECS,
    SensorSpec,
    SyntheticAmbient,
    merged_spec,
)
from .storage import CorruptConfig
from .transport.tcp import (
    FrameServer,
    HttpJsonClient,
    HttpServer,
    TcpCentral,
    TcpPeripheralServer,
    TcpRequestClient,
    parse_hostport,
)

logger = logging.getLogger(__name__)

EXIT_CONFIG_INVALID = 2
EXIT_PORT_IN_USE = 3
EXIT_DATA_DIR = 4

ROLES = ("node", "mote", "ledger", "operator")
KEY_FILE = "device_key.pem"


class ConfigInvalid(Exception):
    pass


@dataclass
class ProcessConfig:
    role: str
    data_dir: Path
    listen: str = "127.0.0.1:0"
    device_id: str = ""
    clock: str = "wall"
    log_level: str = "info"
    motes: dict[str, str] = field(default_factory=dict)       # node: id -> host:port
    paired_node: str = ""                                     # mote
    sensors: dict[str, dict] = field(default_factory=dict)    # spec overrides

    @classmethod
    def load(cls, path: str | Path) -> "ProcessConfig":
        try:
            obj = json.loads(Path(path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        role = obj.get("role")
        if role not in ROLES:
            raise ConfigInvalid(f"role must be one of {ROLES}, got {role!r}")
        data_dir = os.environ.get("AMBOX_DATA_DIR") or obj.get("data_dir")
        if not data_dir:
            raise ConfigInvalid("data_dir missing (or set AMBOX_DATA_DIR)")
        clock = obj.get("clock", "wall")
        if clock != "wall":
            raise ConfigInvalid(
                "clock=virtual is only valid under harness orchestration; "
                "processes run on the wall clock"
            )
        config = cls(
            role=role,
            data_dir=Path(data_dir),
            listen=str(obj.get("listen", "127.0.0.1:0")),
            device_id=str(obj.get("device_id", "")),
            clock=clock,
            log_level=str(obj.get("log_level", "info")),
            motes={str(k): str(v) for k, v in obj.get("motes", {}).items()},
            paired_node=str(obj.get("paired_node", "")),
            sensors={str(q): dict(s) for q, s in obj.get("sensors", {}).items()},
        )
        if config.role in ("node", "mote") and not config.device_id:
            raise ConfigInvalid(f"{config.role} config needs a device_id")
        if config.role == "mote" and not config.paired_node:
            raise ConfigInvalid("mote config needs paired_node")
        try:
            parse_hostport(config.listen)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        return config


class JsonLineFormatter(logging.Formatter):
    def __init__(self, role: str) -> None:
        super().__init__()
        self.role = role

    def format(self, record: logging.LogRecord) -> str:
        entry = {
            "t_wall": f"{record.created:.3f}",
            "level": record.levelname.lower(),
            "role": self.role,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        if record.exc_info:
            entry["exc"] = self.formatException(record.exc_info)
        return json.dumps(entry)


def setup_logging(role: str, level: str) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(JsonLineFormatter(role))
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(getattr(logging, level.upper(), logging.INFO))


def prepare_data_dir(config: ProcessConfig) -> None:
    try:
        config.data_dir.mkdir(parents=True, exist_ok=True)
        probe = config.data_dir / ".write_probe"
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        raise PermissionError(f"data dir {config.data_dir} not writable: {exc}") from exc


def device_keypair(config: ProcessConfig):
    key_path = config.data_dir / KEY_FILE
    if key_path.exists():
        return load_private_key(key_path, config.device_id)
    keypair = generate_keypair(config.device_id)
    save_private_key(key_path, keypair)
    return keypair


def write_port_file(config: ProcessConfig, port: int) -> None:
    (config.data_dir / f"{config.role}.port").write_text(str(port))


def synthetic_factory(config: ProcessConfig, defaults: dict[str, SensorSpec]):
    bases = {TEMPERATURE: 21.0, HUMIDITY: 55.0, PRESSURE: 1013.0}

    def factory(quantity: str, params: dict):
        spec = merged_spec(quantity, defaults, config.sensors.get(quantity, {}))
        if spec is None:
            return None
        digest = hashlib.sha256(f"{config.device_id}:{quantity}".encode()).digest()
        seed = int.from_bytes(digest[:4], "big")
        return SyntheticAmbient(spec, seed=seed, base=bases.get(quantity))

    return factory


def _wait_for_signal(stop: threading.Event) -> None:
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    signal.signal(signal.SIGINT, lambda *a: stop.set())
    while not stop.wait(0.2):
        pass


def run_node(config: ProcessConfig) -> int:
    runtime = RealRuntime()
    keypair = device_keypair(config)
    stop = threading.Event()
    agent = NodeAgent(
        keypair,
        config.data_dir,
        runtime,
        heartbeat_caller=HttpJsonClient(),
        ledger_requester=TcpRequestClient(),
        make_dest=lambda address, port: f"{address}:{port}",
        sensor_factory=synthetic_factory(config, NODE_SENSOR_SPECS),
        central=TcpCentral(config.device_id, config.motes) if config.motes else None,
        allowed_motes=tuple(config.motes),
        on_shutdown=stop.set,
    )
    host, port = parse_hostport(config.listen)
    try:
        server = HttpServer(host, port, agent.router)
    except OSError as exc:
        logger.error("cannot listen on %s: %s", config.listen, exc)
        return EXIT_PORT_IN_USE
    write_port_file(config, server.port)
    logger.info("node %s listening on %s:%d (state=%s)",
                config.device_id, host, server.port, agent.config.state.value)
    agent.start()
    _wait_for_signal(stop)
    logger.info("node %s shutting down", config.device_id)
    agent.stop()
    server.shutdown()
    return 0


def run_mote(config: ProcessConfig) -> int:
    runtime = RealRuntime()
    keypair = device_keypair(config)
    agent = MoteAgent(
        keypair,
        config.paired_node,
        config.data_dir,
        runtime,
        driver_factory=lambda q, p: synthetic_factory(config, MOTE_SENSOR_SPECS)(q, p),
    )
    host, port = parse_hostport(config.listen)
    try:
        server = TcpPeripheralServer(host, port, config.device_id, config.paired_node, agent)
    except OSError as exc:
        logger.error("cannot listen on %s: %s", config.listen, exc)
        return EXIT_PORT_IN_USE
    write_port_file(config, server.port)
    logger.info("mote %s advertising on %s:%d (paired with %s)",
                config.device_id, host, server.port, config.paired_node)
    agent.start()
    stop = threading.Event()
    _wait_for_signal(stop)
    agent.stop()
    server.shutdown()
    return 0


def run_ledger(config: ProcessConfig) -> int:
    ledger = Ledger(config.data_dir, genesis_at_ms=int(time.time() * 1000))
    service = LedgerService(ledger, clock=lambda: int(time.time() * 1000))
    host, port = parse_hostport(config.listen)
    try:
        server = FrameServer(host, port, service.handle)
    except OSError as exc:
        logger.error("cannot listen on %s: %s", config.listen, exc)
        return EXIT_PORT_IN_USE
    write_port_file(config, server.port)
    logger.info("ledger listening on %s:%d (height=%d)", host, server.port, ledger.height)
    stop = threading.Event()
    _wait_for_signal(stop)
    server.shutdown()
    return 0


def run_operator_serve(config: ProcessConfig) -> int:
    core = OperatorCore(clock=lambda: int(time.time() * 1000))
    host, port = parse_hostport(config.listen)
    try:
        server = HttpServer(host, port, core.router)
    except OSError as exc:
        logger.error("cannot listen on %s: %s", config.listen, exc)
        return EXIT_PORT_IN_USE
    write_port_file(config, server.port)
    logger.info("operator heartbeat sink on %s:%d", host, server.port)
    stop = threading.Event()
    _wait_for_signal(stop)
    server.shutdown()
    return 0


def _duration_ms(text: str) -> int:
    """Parse '30s', '5min', '1500ms', or a bare ms count."""
    text = text.strip()
    for suffix, factor in (("ms", 1), ("min", 60_000), ("m", 60_000), ("s", 1000)):
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * factor)
    return int(text)


def operator_command(args: argparse.Namespace) -> int:
    caller = HttpJsonClient()
    if args.verb == "commission":
        operator_host, operator_port = parse_hostport(args.operator)
        ledger_host, ledger_port = parse_hostport(args.ledger)
        plan = CommissionPlan(
            device_dest=args.device,
            heartbeat_address=operator_host,
            heartbeat_port=operator_port,
            heartbeat_timeout_ms=_duration_ms(args.timeout),
            ledger_address=ledger_host,
            ledger_port=ledger_port,
            channel_name=args.channel,
            chaincode_name=args.chaincode,
        )
        identity = commission(caller, LedgerClient(TcpRequestClient(), args.ledger), plan)
        print(json.dumps({"commissioned": identity["device_id"]}))
        return 0
    if args.verb == "start":
        body = {
            "prod_id": args.prod_id,
            "batch_no": args.batch_no,
            "sample_interval_ms": _duration_ms(args.sample_interval),
            "report_interval_ms": _duration_ms(args.report_interval),
            "sensor_params": {q: {"enabled": True} for q in args.quantity},
        }
        start_monitoring(caller, args.device, body)
        print(json.dumps({"monitoring": args.device}))
        return 0
    if args.verb == "stop":
        stop_monitoring(caller, args.device)
        print(json.dumps({"stopped": args.device}))
        return 0
    if args.verb == "decommission":
        ledger_client = LedgerClient(TcpRequestClient(), args.ledger) if args.ledger else None
        summary = decommission(caller, args.device, RealRuntime(), ledger_client,
                               drain_poll_ms=1000, drain_wait_ms=_duration_ms(args.timeout))
        print(json.dumps(summary))
        return 0 if summary.get("drained") else 1
    if args.verb == "fleet":
        status, body = caller.call(args.operator, "GET", "/fleet", None)
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if status == 200 else 1
    if args.verb == "tail-ledger":
        client = LedgerClient(TcpRequestClient(), args.ledger)
        reports = client.get_recent(device_id=args.device or None,
                                    batch_no=args.batch_no or None, limit=args.limit)
        for report in reports:
            print(json.dumps(report.to_obj()))
        return 0
    raise ConfigInvalid(f"unknown operator verb {args.verb!r}")


def harness_command(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    if not path.exists():
        builtin = scenario_path(path.stem)
        if Path(builtin).exists():
            path = Path(builtin)
    scenario = load_scenario(path)
    pacing = 1.0 if args.real_time else None
    report = run_scenario(scenario, seed=args.seed, pacing_override=pacing)
    print(report.summary_text())
    if args.out:
        Path(args.out).write_bytes(report.to_json_bytes())
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ambox")
    sub = parser.add_subparsers(dest="command", required=True)

    for role in ("node", "mote", "ledger"):
        p = sub.add_parser(role, help=f"run the {role} process")
        p.add_argument("--config", required=True)

    op = sub.add_parser("operator", help="operator control plane")
    opsub = op.add_subparsers(dest="verb", required=True)
    serve = opsub.add_parser("serve", help="run the heartbeat sink")
    serve.add_argument("--config", required=True)
    for verb in ("commission", "start", "stop", "decommission", "fleet", "tail-ledger"):
        p = opsub.add_parser(verb)
        p.add_argument("--device", default="", help="device control address host:port")
        p.add_argument("--ledger", default="", help="ledger address host:port")
        p.add_argument("--operator", default="", help="operator sink address host:port")
        p.add_argument("--timeout", default="30s", help="heartbeat timeout / drain wait")
        if verb == "commission":
            p.add_argument("--channel", default="ambox")
            p.add_argument("--chaincode", default="events")
        if verb == "start":
            p.add_argument("--prod-id", dest="prod_id", required=True)
            p.add_argument("--batch-no", dest="batch_no", required=True)
            p.add_argument("--sample-interval", dest="sample_interval", default="60s")
            p.add_argument("--report-interval", dest="report_interval", default="5min")
            p.add_argument("--quantity", action="append",
                           default=None, help="repeatable; default temp+hum+pressure")
        if verb == "tail-ledger":
            p.add_argument("--batch-no", dest="batch_no", default="")
            p.add_argument("--limit", type=int, default=10)

    h = sub.add_parser("harness", help="deterministic scenario harness")
    hsub = h.add_subparsers(dest="verb", required=True)
    run = hsub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="scenario file path or built-in name")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--real-time", action="store_true",
                     help="pace the virtual clock 1:1 with the wall clock")
    run.add_argument("--out", default="", help="write the report JSON here")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("node", "mote", "ledger"):
            config = ProcessConfig.load(args.config)
            if config.role != args.command:
                raise ConfigInvalid(
                    f"config role {config.role!r} does not match command {args.command!r}"
                )
            setup_logging(config.role, config.log_level)
            prepare_data_dir(config)
            return {"node": run_node, "mote": run_mote, "ledger": run_ledger}[args.command](config)
        if args.command == "operator":
            if args.verb == "serve":
                config = ProcessConfig.load(args.config)
                if config.role != "operator":
                    raise ConfigInvalid("config role must be operator")
                setup_logging("operator", config.log_level)
                prepare_data_dir(config)
                return run_operator_serve(config)
            setup_logging("operator", "warning")
            if args.verb == "start" and args.quantity is None:
                args.quantity = [TEMPERATURE, HUMIDITY, PRESSURE]
            return operator_command(args)
        if args.command == "harness":
            setup_logging("harness", "warning")
            return harness_command(args)
    except ConfigInvalid as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except ScenarioError as exc:
        print(f"scenario-invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except PermissionError as exc:
        print(f"data-dir-unwritable: {exc}", file=sys.stderr)
        return EXIT_DATA_DIR
    except (OperatorError, CorruptConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_CONFIG_INVALID


if __name__ == "__main__":
    sys.exit(main())
