"""One-time-pad XOR cipher and text/bit conversions.

Messages are UTF-8; each byte expands to eight bits most-significant
bit first, so "A" (0x41) becomes (0,1,0,0,0,0,0,1).
"""

from __future__ import annotations

from .errors import KeyTooShortError, ValidationError
from .sim import check_int, check_type

Bits = tuple[int, ...]


def check_bits(param: str, bits) -> Bits:
    """``bits`` as a tuple of ints, if it is an iterable of the integers 0
    and 1, each passing :func:`~qubitkit.sim.check_int` (so not bools);
    anything else raises a ValidationError naming ``param``."""
    try:
        checked = tuple(bits)
    except TypeError:  # not iterable
        raise ValidationError(param, f"expected a sequence of 0/1 bits, got {bits!r}") from None
    return tuple(check_int(param, b, 0, 1) for b in checked)


def text_to_bits(text: str) -> Bits:
    try:
        data = check_type("text", text, str).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise ValidationError("text", f"expected a str that UTF-8 encodes, got {text!r}") from None
    return tuple((byte >> (7 - i)) & 1 for byte in data for i in range(8))


def bits_to_text(bits: Bits) -> str:
    bits = check_bits("bits", bits)
    if len(bits) % 8:
        raise ValidationError("bits", f"bit count {len(bits)} is not a whole number of bytes")
    data = bytes(
        sum(bit << (7 - i) for i, bit in enumerate(bits[k : k + 8]))
        for k in range(0, len(bits), 8)
    )
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ValidationError("bits", f"not UTF-8: {error.reason}") from None


def xor_bits(message: Bits, key: Bits) -> Bits:
    """One-time pad: XOR with the first len(message) key bits.

    Encryption and decryption are the same operation.
    """
    message, key = check_bits("message", message), check_bits("key", key)
    if len(key) < len(message):
        raise KeyTooShortError(
            f"key has {len(key)} bits, message needs {len(message)}"
        )
    return tuple(m ^ k for m, k in zip(message, key))


encrypt = xor_bits
decrypt = xor_bits
