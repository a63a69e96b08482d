"""Process entry points: one binary, five roles.

    ambox node --config node.json
    ambox mote --config mote.json
    ambox ledger --config ledger.json
    ambox operator serve --config operator.json
    ambox operator commission --device host:port --ledger host:port ...
    ambox harness run setup1.json --seed 1 [--real-time]

Each role imports its own modules when its command runs, so a ledger
process loads neither the node, the mote, the fleet, the harness nor HTTP.
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
from dataclasses import dataclass, field, replace
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

from .canonical import wire_loads
from .envelope import generate_keypair
from .model import (HUMIDITY, PRESSURE, TEMPERATURE, ModelError, _check_sensor_overrides,
                    _require)
from .storage import KEY_FILE, CorruptConfig, load_private_key, save_private_key
from .transport import TransportError
from .transport.tcp import TcpRequestClient, parse_hostport

if TYPE_CHECKING:
    from .sensors import SensorSpec
    from .transport.http import HttpJsonClient

logger = logging.getLogger(__name__)

EXIT_CONFIG_INVALID = 2
EXIT_PORT_IN_USE = 3
EXIT_DATA_DIR = 4

ROLES = ("node", "mote", "ledger", "operator")


class ConfigInvalid(Exception):
    pass


@dataclass
class ProcessConfig:
    role: str
    data_dir: Path
    listen: str = "127.0.0.1:0"
    device_id: str = ""
    log_level: str = "info"
    motes: dict[str, str] = field(default_factory=dict)       # node: id -> host:port
    paired_node: str = ""                                     # mote
    sensors: dict[str, dict] = field(default_factory=dict)    # spec overrides

    @classmethod
    def load(cls, path: str | Path) -> "ProcessConfig":
        """The config at `path`, every field typed by `model`'s reader rule,
        sensor overrides included; ConfigInvalid otherwise."""
        try:
            obj = wire_loads(Path(path).read_bytes())
            role = obj.get("role")
            if role not in ROLES:
                raise ConfigInvalid(f"role must be one of {ROLES}, got {role!r}")
            data_dir = os.environ.get("AMBOX_DATA_DIR") or _require(obj, "data_dir", str, "")
            if not data_dir:
                raise ConfigInvalid("data_dir missing (or set AMBOX_DATA_DIR)")
            if _require(obj, "clock", str, "wall") != "wall":
                raise ConfigInvalid("clock=virtual is only valid under harness orchestration; "
                                    "processes run on the wall clock")
            motes = _require(obj, "motes", dict, {})
            for mote_id in motes:
                parse_hostport(_require(motes, mote_id, str))
            config = cls(
                role=role,
                data_dir=Path(data_dir),
                listen=_require(obj, "listen", str, "127.0.0.1:0"),
                device_id=_require(obj, "device_id", str, ""),
                log_level=_require(obj, "log_level", str, "info"),
                motes=motes,
                paired_node=_require(obj, "paired_node", str, ""),
                sensors=_check_sensor_overrides(obj.get("sensors", {})),
            )
            parse_hostport(config.listen)
        except (OSError, ValueError) as exc:    # CanonicalError and ModelError among them
            raise ConfigInvalid(f"config {path}: {exc}") from exc
        if config.role in ("node", "mote") and not config.device_id:
            raise ConfigInvalid(f"{config.role} config needs a device_id")
        if config.role == "mote" and not config.paired_node:
            raise ConfigInvalid("mote config needs paired_node")
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


def synthetic_factory(config: ProcessConfig, defaults: dict[str, SensorSpec]):
    from .sensors import SyntheticAmbient, merged_spec

    bases = {TEMPERATURE: 21.0, HUMIDITY: 55.0, PRESSURE: 1013.0}

    def factory(quantity: str):
        spec = merged_spec(quantity, defaults, config.sensors.get(quantity, {}))
        if spec is None:
            return None
        digest = hashlib.sha256(f"{config.device_id}:{quantity}".encode()).digest()
        seed = int.from_bytes(digest[:4], "big")
        return SyntheticAmbient(spec, seed=seed, base=bases.get(quantity))

    return factory


def _serve_until_stopped(config: ProcessConfig, make_server: Callable[[str, int], Any],
                         what: str, start: Callable[[], None] = lambda: None,
                         stop: Optional[threading.Event] = None) -> int:
    """Listen on `config.listen`, write the port file, call `start`, and serve
    until SIGTERM, SIGINT or `stop`; then stop the server, before the caller
    stops what it serves. EXIT_PORT_IN_USE when the address cannot be bound."""
    host, port = parse_hostport(config.listen)
    try:
        server = make_server(host, port)
    except OSError as exc:
        logger.error("cannot listen on %s: %s", config.listen, exc)
        return EXIT_PORT_IN_USE
    (config.data_dir / f"{config.role}.port").write_text(str(server.port))
    logger.info("%s listening on %s:%d", what, host, server.port)
    start()
    stop = stop or threading.Event()
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    signal.signal(signal.SIGINT, lambda *a: stop.set())
    while not stop.wait(0.2):
        pass
    logger.info("%s shutting down", what)
    server.shutdown()
    return 0


def run_node(config: ProcessConfig) -> int:
    from .node import NodeAgent
    from .runtime import RealRuntime
    from .sensors import NODE_SENSOR_SPECS
    from .transport.http import HttpJsonClient, HttpServer
    from .transport.tcp import TcpCentral

    runtime = RealRuntime()
    keypair = device_keypair(config)
    stop = threading.Event()
    ledger_requester = TcpRequestClient()
    agent = NodeAgent(
        keypair,
        config.data_dir,
        runtime,
        heartbeat_caller=HttpJsonClient(),
        ledger_requester=ledger_requester,
        make_dest=lambda address, port: f"{address}:{port}",
        sensor_factory=synthetic_factory(config, NODE_SENSOR_SPECS),
        central=TcpCentral(config.device_id, config.motes, runtime) if config.motes else None,
        allowed_motes=tuple(config.motes),
        on_shutdown=stop.set,
    )
    code = _serve_until_stopped(
        config, lambda host, port: HttpServer(host, port, agent.router),
        f"node {config.device_id} (state={agent.config.state.value})", agent.start, stop)
    agent.stop()
    ledger_requester.close()
    return code


def run_mote(config: ProcessConfig) -> int:
    from .mote import MoteAgent
    from .runtime import RealRuntime
    from .sensors import MOTE_SENSOR_SPECS
    from .transport.tcp import TcpPeripheralServer

    runtime = RealRuntime()
    keypair = device_keypair(config)
    agent = MoteAgent(
        keypair,
        config.paired_node,
        config.data_dir,
        runtime,
        driver_factory=synthetic_factory(config, MOTE_SENSOR_SPECS),
    )
    code = _serve_until_stopped(
        config, lambda host, port: TcpPeripheralServer(host, port, config.device_id,
                                                       config.paired_node, agent),
        f"mote {config.device_id} (paired with {config.paired_node})", agent.start)
    agent.stop()
    return code


def run_ledger(config: ProcessConfig) -> int:
    from .ledger import Ledger, LedgerService
    from .transport.tcp import FrameServer

    ledger = Ledger(config.data_dir, genesis_at_ms=int(time.time() * 1000))
    service = LedgerService(ledger, clock=lambda: int(time.time() * 1000))
    code = _serve_until_stopped(config, lambda host, port: FrameServer(host, port, service.handle),
                                f"ledger (height={ledger.height})")
    ledger.close()
    return code


def run_operator_serve(config: ProcessConfig) -> int:
    from .fleet import OperatorCore
    from .transport.http import HttpServer

    core = OperatorCore(clock=lambda: int(time.time() * 1000))
    return _serve_until_stopped(config, lambda host, port: HttpServer(host, port, core.router),
                                "operator heartbeat sink")


# A duration fits a signed 64-bit count of milliseconds, which any reader
# of the value can hold.
_MAX_DURATION_MS = 2**63 - 1


def _duration_ms(text: str) -> int:
    """Parse '30s', '5min', '1500ms', or a bare ms count, as an argparse
    `type`: anything but a finite, non-negative, whole number of
    milliseconds up to `_MAX_DURATION_MS` is a usage error. The number is
    read as a decimal, so '1.1s' is exactly 1100 ms."""
    number, factor = text.strip(), 1
    for suffix, unit in (("ms", 1), ("min", 60_000), ("m", 60_000), ("s", 1000)):
        if number.endswith(suffix):
            number, factor = number[:-len(suffix)], unit
            break
    try:
        ms = Decimal(number) * factor
        valid = ms.is_finite() and 0 <= ms <= _MAX_DURATION_MS and ms == ms.to_integral_value()
    except ArithmeticError:     # not a number, or a signalling NaN or overflow
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a duration: a whole, non-negative number of milliseconds, "
            f"or of seconds, minutes or milliseconds with s, min or ms after it")
    return int(ms)


def operator_command(args: argparse.Namespace) -> int:
    """Run one operator verb; a peer that cannot be reached, or that answers
    what cannot be read, is an `error:` line and exit code 1."""
    from .fleet import OperatorError
    from .ledger import LedgerClientError
    from .transport.http import HttpJsonClient

    requester = TcpRequestClient()
    try:
        return _operator_verb(args, HttpJsonClient(), requester)
    except (OperatorError, TransportError, LedgerClientError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        requester.close()


def _operator_verb(args: argparse.Namespace, caller: HttpJsonClient,
                   requester: TcpRequestClient) -> int:
    from .fleet import (CommissionPlan, commission, decommission, start_monitoring,
                        stop_monitoring)
    from .ledger import LedgerClient
    from .runtime import RealRuntime

    if args.verb == "commission":
        operator_host, operator_port = parse_hostport(args.operator)
        ledger_host, ledger_port = parse_hostport(args.ledger)
        plan = CommissionPlan(
            device_dest=args.device,
            heartbeat_address=operator_host,
            heartbeat_port=operator_port,
            heartbeat_timeout_ms=args.timeout,
            ledger_address=ledger_host,
            ledger_port=ledger_port,
            channel_name=args.channel,
            chaincode_name=args.chaincode,
        )
        identity = commission(caller, LedgerClient(requester, args.ledger), plan)
        print(json.dumps({"commissioned": identity["device_id"]}))
        return 0
    if args.verb == "start":
        body = {
            "prod_id": args.prod_id,
            "batch_no": args.batch_no,
            "sample_interval_ms": args.sample_interval,
            "report_interval_ms": args.report_interval,
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
        ledger_client = LedgerClient(requester, args.ledger) if args.ledger else None
        summary = decommission(caller, args.device, RealRuntime(), ledger_client,
                               drain_poll_ms=1000, drain_wait_ms=args.timeout)
        print(json.dumps(summary))
        return 0 if summary.get("drained") else 1
    if args.verb == "fleet":
        status, body = caller.call(args.operator, "GET", "/fleet", None)
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if status == 200 else 1
    if args.verb == "tail-ledger":
        client = LedgerClient(requester, args.ledger)
        reports = client.get_recent(device_id=args.device or None,
                                    batch_no=args.batch_no or None, limit=args.limit)
        for report in reports:
            print(json.dumps(report.to_obj()))
        return 0
    raise ConfigInvalid(f"unknown operator verb {args.verb!r}")


def harness_command(args: argparse.Namespace) -> int:
    from .harness import ScenarioError, load_scenario, run_scenario, scenario_path

    path = Path(args.scenario)
    if not path.exists():
        builtin = scenario_path(path.stem)
        if Path(builtin).exists():
            path = Path(builtin)
    try:
        scenario = load_scenario(path)
        if args.real_time:
            scenario = replace(scenario, time_scale=1.0)
        report = run_scenario(scenario, seed=args.seed)
    except ScenarioError as exc:
        print(f"scenario-invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
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
        p.add_argument("--timeout", type=_duration_ms, default="30s",
                       help="heartbeat timeout / drain wait")
        if verb == "commission":
            p.add_argument("--channel", default="ambox")
            p.add_argument("--chaincode", default="events")
        if verb == "start":
            p.add_argument("--prod-id", dest="prod_id", required=True)
            p.add_argument("--batch-no", dest="batch_no", required=True)
            p.add_argument("--sample-interval", dest="sample_interval", type=_duration_ms,
                           default="60s")
            p.add_argument("--report-interval", dest="report_interval", type=_duration_ms,
                           default="5min")
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
        if args.command in ("node", "mote", "ledger") or getattr(args, "verb", "") == "serve":
            config = ProcessConfig.load(args.config)
            if config.role != args.command:
                raise ConfigInvalid(
                    f"config role {config.role!r} does not match command {args.command!r}"
                )
            setup_logging(config.role, config.log_level)
            prepare_data_dir(config)
            return {"node": run_node, "mote": run_mote, "ledger": run_ledger,
                    "operator": run_operator_serve}[args.command](config)
        if args.command == "operator":
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
    except PermissionError as exc:
        print(f"data-dir-unwritable: {exc}", file=sys.stderr)
        return EXIT_DATA_DIR
    except CorruptConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_CONFIG_INVALID


if __name__ == "__main__":
    sys.exit(main())
