"""Seeded inputs: device keys, signed reports, a ledger history, outage plans.

Everything here is a pure function of the seed, so two runs with the same
seed feed the program byte-identical inputs. RSA keys come from a pool
derived from constants by a seeded prime search and are handed to devices
in a seeded order (PKCS#1 v1.5 signatures are deterministic, so signed
envelopes repeat too). All of it runs before any timed phase.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import rsa

from ambox.envelope import KeyPair, SignedEnvelope, sign
from ambox.ledger import Ledger
from ambox.model import (
    HUMIDITY,
    PRESSURE,
    TEMPERATURE,
    DeviceIdentity,
    DeviceKind,
    EventReport,
    SensorReading,
)

QUANTITIES = (HUMIDITY, PRESSURE, TEMPERATURE)
PRODUCT = "cherries-premium"
MINUTE_MS = 60_000

# The history: "a season of earlier reports from other devices".
HISTORY_T0_MS = 1_696_118_400_000          # 2023-10-01T00:00:00.000Z
HISTORY_DEVICES = 8
HISTORY_BATCHES = 4
HISTORY_REPORTS = 2_000
# Reports the load generator submits start after the history ends.
LIVE_T0_MS = 1_709_251_200_000             # 2024-03-01T00:00:00.000Z
SAMPLES_PER_REPORT = 5                     # x 3 quantities = 15 readings

RSA_E = 65537
_SMALL_PRIMES = [p for p in range(3, 2_000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
_SIEVE = math.prod(_SMALL_PRIMES)


def _probable_prime(n: int, rng: random.Random, rounds: int = 8) -> bool:
    if math.gcd(n, _SIEVE) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 2), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng: random.Random, bits: int) -> int:
    while True:
        # Top two bits set, so the product of two such primes has 2*bits bits.
        n = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if _probable_prime(n, rng):
            return n


KEY_POOL_SIZE = 48
KEY_POOL_FILE = "keypool-v1.json"


def _derive_key_numbers(index: int) -> tuple[int, int]:
    rng = random.Random(f"ambox-bench:keypool:{index}")
    while True:
        p, q = _prime(rng, 1024), _prime(rng, 1024)
        if p != q and math.gcd(RSA_E, (p - 1) * (q - 1)) == 1:
            return p, q


def _private_key(p: int, q: int) -> rsa.RSAPrivateKey:
    d = pow(RSA_E, -1, (p - 1) * (q - 1))
    numbers = rsa.RSAPrivateNumbers(
        p, q, d, rsa.rsa_crt_dmp1(d, p), rsa.rsa_crt_dmq1(d, q), rsa.rsa_crt_iqmp(p, q),
        rsa.RSAPublicNumbers(RSA_E, p * q),
    )
    return numbers.private_key(unsafe_skip_rsa_key_validation=True)


class KeyPool:
    """A fixed pool of 2048-bit RSA keys derived from constants.

    Deriving a key in pure Python takes about half a second, so the pool is
    derived once per checkout and cached; its content never depends on where
    or when it was derived. Each run hands the keys out to its devices in a
    seeded order.
    """

    def __init__(self, cache_dir: Path) -> None:
        path = Path(cache_dir) / KEY_POOL_FILE
        if path.exists():
            pairs = [(int(p, 16), int(q, 16)) for p, q in json.loads(path.read_text())["keys"]]
        else:
            pairs = [_derive_key_numbers(i) for i in range(KEY_POOL_SIZE)]
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps({"keys": [[f"{p:x}", f"{q:x}"] for p, q in pairs]}))
            os.replace(tmp, path)
        self._keys = [_private_key(p, q) for p, q in pairs]

    @classmethod
    def of(cls, private_keys: list[rsa.RSAPrivateKey]) -> "KeyPool":
        """A pool of given keys (the benchmark's tests use fresh random ones)."""
        pool = cls.__new__(cls)
        pool._keys = list(private_keys)
        return pool

    def assign(self, seed: int, device_ids: list[str]) -> dict[str, KeyPair]:
        if len(device_ids) > len(self._keys):
            raise ValueError(f"{len(device_ids)} devices but only {len(self._keys)} pool keys")
        order = list(range(len(self._keys)))
        random.Random(f"ambox-bench:{seed}:keys").shuffle(order)
        return {device_id: KeyPair(device_id, self._keys[i])
                for device_id, i in zip(device_ids, order)}


def make_report(rng: random.Random, device_id: str, batch_no: str, start_ms: int,
                serial: int) -> EventReport:
    """One report of SAMPLES_PER_REPORT one-minute samples of each quantity."""
    bases = {HUMIDITY: 70.0, PRESSURE: 1013.0, TEMPERATURE: 4.0}
    readings = []
    for i in range(1, SAMPLES_PER_REPORT + 1):
        for quantity in QUANTITIES:
            readings.append(SensorReading(
                quantity=quantity,
                value=round(bases[quantity] + rng.uniform(-3.0, 3.0), 3),
                sampled_at=start_ms + i * MINUTE_MS,
                source_device=device_id,
            ))
    created_at = start_ms + SAMPLES_PER_REPORT * MINUTE_MS + 500
    return EventReport(
        report_id=f"{device_id}-{created_at}-{serial:06d}",
        device_id=device_id,
        product_id=PRODUCT,
        batch_no=batch_no,
        created_at=created_at,
        readings=tuple(readings),
    )


@dataclass
class Fleet:
    """A group of devices: their keys and the product batch each one monitors."""

    keys: dict[str, KeyPair]
    batch_of: dict[str, str]

    @property
    def batches(self) -> list[str]:
        return sorted(set(self.batch_of.values()))


def device_ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}-{i:02d}" for i in range(n)]


def make_fleet(keys: dict[str, KeyPair], prefix: str, n_devices: int, n_batches: int) -> Fleet:
    ids = device_ids(prefix, n_devices)
    return Fleet({d: keys[d] for d in ids},
                 {d: f"B-{prefix}-{i % n_batches}" for i, d in enumerate(ids)})


@dataclass(frozen=True)
class Signed:
    report: EventReport
    envelope: SignedEnvelope


def signed_reports(seed: int, label: str, fleet: Fleet, n_reports: int,
                   t0_ms: int) -> list[Signed]:
    """n_reports signed reports, round-robin over the fleet's devices, each
    device's reports back to back in time."""
    rng = random.Random(f"ambox-bench:{seed}:{label}")
    devices = sorted(fleet.keys)
    out = []
    for n in range(n_reports):
        device_id = devices[n % len(devices)]
        slot = n // len(devices)
        start = t0_ms + slot * SAMPLES_PER_REPORT * MINUTE_MS + rng.randrange(0, 30_000)
        report = make_report(rng, device_id, fleet.batch_of[device_id], start, n)
        out.append(Signed(report, sign(fleet.keys[device_id], report)))
    return out


@dataclass
class History:
    fleet: Fleet
    reports: list[Signed]
    directory: Path

    def copy_to(self, target: Path) -> None:
        shutil.copytree(self.directory, target)


def build_history(seed: int, keys: dict[str, KeyPair], directory: Path,
                  n_reports: int = HISTORY_REPORTS) -> History:
    """Write the history ledger with the program's own Ledger, one report per
    block, so its on-disk form is whatever the program under test writes."""
    fleet = make_fleet(keys, "hist", HISTORY_DEVICES, HISTORY_BATCHES)
    reports = signed_reports(seed, "history", fleet, n_reports, HISTORY_T0_MS)
    ledger = Ledger(directory, genesis_at_ms=HISTORY_T0_MS)
    for device_id, keypair in sorted(fleet.keys.items()):
        ledger.register_device(DeviceIdentity(device_id, DeviceKind.NODE, keypair.public_pem))
    for n, signed in enumerate(reports):
        verdicts = ledger.add_events([signed.envelope], signed.report.created_at + 1_000)
        if verdicts[0].status != "committed" or verdicts[0].replay:
            raise RuntimeError(f"history report {n} was not committed: {verdicts[0]}")
    return History(fleet, reports, directory)
