"""RSA-SHA256 signing and verification of canonical report bytes.

The scheme is RSA PKCS#1 v1.5 over SHA-256 with 2048-bit keys: deterministic
signatures, so repeated signing of the same bytes is reproducible in tests.
A node signs whole reports; a mote signs individual readings which the node
then carries, still signed, inside its own report (co-signing). Verification
failure (wrong bytes, wrong key) is a boolean outcome; a structurally broken
envelope or key raises instead, so forgery and malformation stay distinct.
"""

from __future__ import annotations

import base64
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.asymmetric.rsa import RSAPrivateKey, RSAPublicKey

from . import canonical
from .model import EventReport, SensorReading, validate_report

RSA_KEY_BITS = 2048
_PADDING = padding.PKCS1v15()
_DIGEST = hashes.SHA256()


class EnvelopeError(Exception):
    pass


class InvalidReport(EnvelopeError):
    """Report violates its invariants; refusing to canonicalize or sign it."""


class KeyMismatch(EnvelopeError):
    """Key holder is not the report's device."""


class KeyUnavailable(EnvelopeError):
    """Key material missing or unreadable."""


class MalformedKey(EnvelopeError):
    """Bytes do not decode to an RSA public key."""


class MalformedEnvelope(EnvelopeError):
    """Envelope structure is broken; distinct from a failed verification."""


@dataclass(frozen=True)
class SignedEnvelope:
    """Canonical payload bytes plus a detached signature and the signer id."""

    payload: bytes
    signature: bytes
    signer: str

    def to_wire_obj(self) -> dict[str, str]:
        return {
            "payload_b64": base64.b64encode(self.payload).decode("ascii"),
            "signature_b64": base64.b64encode(self.signature).decode("ascii"),
            "signer": self.signer,
        }

    def to_bytes(self) -> bytes:
        return canonical.dumps(self.to_wire_obj())

    @classmethod
    def from_wire_obj(cls, obj: Any) -> "SignedEnvelope":
        if not isinstance(obj, dict):
            raise MalformedEnvelope("envelope must be a JSON object")
        missing = [k for k in ("payload_b64", "signature_b64", "signer") if k not in obj]
        if missing:
            raise MalformedEnvelope(f"envelope missing fields: {', '.join(missing)}")
        signer = obj["signer"]
        if not isinstance(signer, str) or not signer:
            raise MalformedEnvelope("signer must be a non-empty string")
        try:
            payload = base64.b64decode(obj["payload_b64"], validate=True)
            signature = base64.b64decode(obj["signature_b64"], validate=True)
        except Exception as exc:
            raise MalformedEnvelope(f"invalid base64 in envelope: {exc}") from exc
        if not payload:
            raise MalformedEnvelope("empty payload")
        if not signature:
            raise MalformedEnvelope("empty signature")
        return cls(payload=payload, signature=signature, signer=signer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SignedEnvelope":
        try:
            obj = canonical.loads(data)
        except canonical.CanonicalError as exc:
            raise MalformedEnvelope(str(exc)) from exc
        return cls.from_wire_obj(obj)


@dataclass
class KeyPair:
    device_id: str
    private_key: RSAPrivateKey

    @property
    def public_key(self) -> RSAPublicKey:
        return self.private_key.public_key()

    @property
    def public_pem(self) -> str:
        return public_key_pem(self.public_key)


def generate_keypair(device_id: str) -> KeyPair:
    key = rsa.generate_private_key(public_exponent=65537, key_size=RSA_KEY_BITS)
    return KeyPair(device_id=device_id, private_key=key)


def public_key_pem(key: RSAPublicKey) -> str:
    return key.public_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PublicFormat.SubjectPublicKeyInfo,
    ).decode("ascii")


def load_public_key(pem: Union[str, bytes]) -> RSAPublicKey:
    data = pem.encode("ascii") if isinstance(pem, str) else pem
    try:
        key = serialization.load_pem_public_key(data)
    except Exception as exc:
        raise MalformedKey(f"not a PEM public key: {exc}") from exc
    if not isinstance(key, RSAPublicKey):
        raise MalformedKey(f"expected an RSA key, got {type(key).__name__}")
    return key


def save_private_key(path: Union[str, Path], keypair: KeyPair) -> None:
    """Write the PEM private key readable only by the owning process user."""
    pem = keypair.private_key.private_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PrivateFormat.PKCS8,
        encryption_algorithm=serialization.NoEncryption(),
    )
    path = Path(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.write(fd, pem)
    finally:
        os.close(fd)


def load_private_key(path: Union[str, Path], device_id: str) -> KeyPair:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise KeyUnavailable(f"cannot read key file {path}: {exc}") from exc
    try:
        key = serialization.load_pem_private_key(data, password=None)
    except Exception as exc:
        raise KeyUnavailable(f"cannot parse key file {path}: {exc}") from exc
    if not isinstance(key, RSAPrivateKey):
        raise KeyUnavailable(f"expected an RSA private key in {path}")
    return KeyPair(device_id=device_id, private_key=key)


def canonicalize(report: EventReport) -> bytes:
    """Canonical bytes of a valid report; the byte input to signing."""
    violations = validate_report(report)
    if violations:
        raise InvalidReport("; ".join(violations))
    return canonical.dumps(report.to_obj())


def canonicalize_reading(reading: SensorReading) -> bytes:
    """Canonical bytes of a reading without its signature field."""
    return canonical.dumps(reading.core_obj())


def sign(keypair: KeyPair, report: EventReport) -> SignedEnvelope:
    if keypair.device_id != report.device_id:
        raise KeyMismatch(
            f"key belongs to {keypair.device_id!r} but report is from {report.device_id!r}"
        )
    payload = canonicalize(report)
    signature = keypair.private_key.sign(payload, _PADDING, _DIGEST)
    return SignedEnvelope(payload=payload, signature=signature, signer=keypair.device_id)


def sign_reading_envelope(keypair: KeyPair, reading: SensorReading) -> SignedEnvelope:
    """Detached-signature form of one reading (the mote's buffered unit)."""
    if keypair.device_id != reading.source_device:
        raise KeyMismatch(
            f"key belongs to {keypair.device_id!r} but reading is from {reading.source_device!r}"
        )
    payload = canonicalize_reading(reading)
    signature = keypair.private_key.sign(payload, _PADDING, _DIGEST)
    return SignedEnvelope(payload=payload, signature=signature, signer=keypair.device_id)


def verify_bytes(public_key: Union[RSAPublicKey, str, bytes], payload: bytes, signature: bytes) -> bool:
    key = public_key if isinstance(public_key, RSAPublicKey) else load_public_key(public_key)
    try:
        key.verify(signature, payload, _PADDING, _DIGEST)
        return True
    except InvalidSignature:
        return False


def verify(public_key: Union[RSAPublicKey, str, bytes], envelope: SignedEnvelope) -> bool:
    """True iff the signature is valid RSA-SHA256 over the payload under the key.

    Raises MalformedEnvelope for structural breakage (empty payload or
    signature) and MalformedKey for undecodable keys; plain False means the
    envelope is well-formed but the signature does not match.
    """
    if not isinstance(envelope, SignedEnvelope):
        raise MalformedEnvelope(f"expected SignedEnvelope, got {type(envelope).__name__}")
    if not envelope.payload:
        raise MalformedEnvelope("empty payload")
    if not envelope.signature:
        raise MalformedEnvelope("empty signature")
    if not envelope.signer:
        raise MalformedEnvelope("empty signer")
    return verify_bytes(public_key, envelope.payload, envelope.signature)


def verify_reading_signature(public_key: Union[RSAPublicKey, str, bytes], reading: SensorReading) -> bool:
    """Check a relayed reading's embedded sampler signature."""
    if not reading.signature_b64:
        return False
    try:
        signature = base64.b64decode(reading.signature_b64, validate=True)
    except Exception:
        return False
    return verify_bytes(public_key, canonicalize_reading(reading), signature)
