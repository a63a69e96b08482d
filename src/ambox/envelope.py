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
from dataclasses import dataclass
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

    @classmethod
    def from_wire_obj(cls, obj: Any) -> "SignedEnvelope":
        """The envelope a wire object holds, or MalformedEnvelope. Its three
        fields are read in place, in one lookup each; other keys are
        ignored."""
        if not isinstance(obj, dict):
            raise MalformedEnvelope("envelope must be a JSON object")
        try:
            payload_b64, signature_b64, signer = (obj["payload_b64"], obj["signature_b64"],
                                                  obj["signer"])
        except KeyError:
            missing = [k for k in ("payload_b64", "signature_b64", "signer") if k not in obj]
            raise MalformedEnvelope(f"envelope missing fields: {', '.join(missing)}") from None
        if not isinstance(signer, str) or not signer:
            raise MalformedEnvelope("signer must be a non-empty string")
        payload = _b64decode(payload_b64)
        signature = _b64decode(signature_b64)
        if not payload:
            raise MalformedEnvelope("empty payload")
        if not signature:
            raise MalformedEnvelope("empty signature")
        return cls(payload, signature, signer)


_B64_DIGITS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _b64decode(text: Any) -> bytes:
    """The bytes of a base64 string spelled as `b64encode` spells them.

    Strict decoding still ignores the unused low bits of the digit before
    the padding, so "AB==" would decode as "AA==" does. Such a spelling is
    refused: each byte string has one spelling, and a ledger can commit the
    string it received instead of encoding the bytes again.
    """
    if not isinstance(text, str):
        raise MalformedEnvelope(f"base64 field must be a string, got {type(text).__name__}")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise MalformedEnvelope(f"invalid base64 in envelope: {exc}") from exc
    if text.endswith("=="):
        unused = _B64_DIGITS.index(text[-3]) & 0x0F
    elif text.endswith("="):
        unused = _B64_DIGITS.index(text[-2]) & 0x03
    else:
        unused = 0
    if unused:
        raise MalformedEnvelope(f"base64 {text[-4:]!r} is not in its canonical spelling")
    return data


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
