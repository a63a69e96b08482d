"""Shared fixtures. RSA keygen is slow, so keypairs are session-scoped."""

from __future__ import annotations

import errno
import logging
import os

import pytest

from ambox.envelope import KeyPair, generate_keypair
from ambox.model import HUMIDITY, PRESSURE, TEMPERATURE, EventReport, SensorReading

logging.getLogger("ambox").setLevel(logging.WARNING)

T0 = 1_704_067_200_000  # 2024-01-01T00:00:00.000Z


@pytest.fixture(scope="session")
def node_key() -> KeyPair:
    return generate_keypair("node-1")


@pytest.fixture(scope="session")
def mote_key() -> KeyPair:
    return generate_keypair("mote-1")


@pytest.fixture(scope="session")
def other_key() -> KeyPair:
    return generate_keypair("node-2")


def make_reading(quantity: str = TEMPERATURE, value: float = 21.5, at: int = T0,
                 device: str = "node-1") -> SensorReading:
    return SensorReading(quantity=quantity, value=value, sampled_at=at, source_device=device)


def make_report(device: str = "node-1", created_at: int = T0 + 600_000,
                n_readings: int = 3, report_id: str = "node-1-1704067800000-abcd0123",
                start: int = T0) -> EventReport:
    quantities = [TEMPERATURE, HUMIDITY, PRESSURE]
    readings = []
    for i in range(n_readings):
        readings.append(
            SensorReading(
                quantity=quantities[i % 3],
                value=20.0 + i,
                sampled_at=start + 60_000 * (i // 3 + 1),
                source_device=device,
            )
        )
    readings.sort(key=lambda r: (r.sampled_at, r.source_device, r.quantity))
    return EventReport(
        report_id=report_id,
        device_id=device,
        product_id="cherries-premium",
        batch_no="B-2024-018",
        created_at=created_at,
        readings=tuple(readings),
    )


@pytest.fixture()
def fail_next_fsync(monkeypatch):
    """Arm a one-shot EIO from the next `os.fsync`; later calls go through."""
    real_fsync = os.fsync
    armed = []

    def fsync(fd):
        if armed:
            armed.pop()
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return lambda: armed.append(True)


@pytest.fixture()
def tear_next_write(monkeypatch):
    """Arm a torn write: the next `os.write` writes half its bytes and raises
    EIO, and the next `failed_cuts` calls of `os.ftruncate` raise EIO."""
    real_write, real_ftruncate = os.write, os.ftruncate
    armed = {"write": 0, "ftruncate": 0}

    def write(fd, data):
        if armed["write"]:
            armed["write"] -= 1
            real_write(fd, bytes(data[:len(data) // 2]))
            raise OSError(errno.EIO, "injected write failure")
        return real_write(fd, data)

    def ftruncate(fd, length):
        if armed["ftruncate"]:
            armed["ftruncate"] -= 1
            raise OSError(errno.EIO, "injected ftruncate failure")
        real_ftruncate(fd, length)

    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "ftruncate", ftruncate)

    def arm(failed_cuts: int = 1) -> None:
        armed["write"] = 1
        armed["ftruncate"] = failed_cuts

    return arm
