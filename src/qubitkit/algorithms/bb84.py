"""BB84 key distribution over a simulated quantum channel.

A sender encodes random bits in random Z/X axes as single-qubit circuits
(value-axis table: (0,Z) bare wire, (0,X) H, (1,Z) X, (1,X) X then H).
An eavesdropper may measure each transiting qubit in a random axis and
resend her collapsed state (intercept-resend), with one probability per
qubit, the density; the receiver measures in his own random axis. Sifting
keeps the positions where sender and receiver axes agree, verification
publishes part of the sifted key, and any disagreement there aborts the
run. The compare mode names how much is published: "half" (the first half
of the sifted key, the protocol) or "full" (all of it). A sifted key too
short to verify is the verdict key_too_short. :func:`verdict_probabilities`
gives the exact law of the verdict in either mode; "full" mode aborts with
chance 1 - (1 - density/8)^m.

The full protocol sends six qubits per message bit and repeats a round
whose key comes up short, up to ten rounds; surviving key bits one-time-pad
the message. An aborted verdict means the eavesdropper was detected; a
secure one yields a shared key that decrypts the message.

Run through the algorithm registry, a single run prints the per-qubit
trace (:func:`render_trace`): what was sent on which axis, whether the
eavesdropper measured it, what the receiver read, and whether the position
was discarded, kept as key or published for verification. Repeated runs
report the tally of verdicts.

Every qubit travels as a real statevector: prepared, collapsed on
measurement, re-prepared on resend. Nothing is shortcut with classical
probability tables, and nothing runs on a backend. Only four preparations
exist; their circuits are evolved once, at import, and every round gathers
rows of that table (``np.take`` along axis 0) to prepare its qubits and to
collapse them. A round's m qubits travel together as one batch, a
``Statevector(1, amplitudes)`` whose amplitudes have shape (m, 2), one row
per qubit: interception rotates, samples and collapses all rows at once,
and the receiver rotates and samples them. Rows move with 1-D numpy
operations (``np.take`` gathers, column-wise writes, object tables for the
axes and actions), never with fancy indexing along axis 0, which copies
one 16-byte row at a time.

Each party draws from its own generator. The sender draws m bit uniforms,
then m axis uniforms; the receiver draws m axis uniforms, then m
measurement uniforms; the eavesdropper draws m interception decisions,
then an axis for each of the k qubits she hit, then their k collapses. At
density 0 there is no eavesdropper: she has no generator and draws
nothing, and the prepared batch goes straight to the receiver. Her stream
feeds no other party's draws, so this moves no trace: at density 0 every
one of her decisions would be False. The receiver reads only bits; his
collapsed qubits are never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .. import otp
from ..backends import BackendRegistry, LOCAL_BACKEND_NAME, default_registry
from ..errors import ValidationError
from ..framework import AlgorithmDescriptor, ParamSpec, Params
from ..sim import (
    Circuit,
    Counts,
    Gate,
    Statevector,
    apply_gate,
    check_int,
    check_row,
    check_type,
    derive_seed,
    evolve,
    make_rng,
    resolve_seed,
    sample_measurement,
)

SECURE = "secure"
ABORTED = "aborted"
KEY_TOO_SHORT = "key_too_short"

_OVERSAMPLE = 6  # qubits transmitted per message bit
_MAX_ROUNDS = 10  # rounds run_protocol tries before key_too_short

_H = Gate("H", (0,))


class Axis(Enum):
    Z = "Z"
    X = "X"


MESSAGE = ParamSpec(
    "message", "text", description="message to transport one-time-padded (UTF-8)"
)
DENSITY = ParamSpec(
    "density", "probability", description="per-qubit interception probability, 0 to 1"
)


@dataclass(frozen=True)
class EveAction:
    """One interception: the axis guessed and the bit observed."""

    axis: Axis
    bit: int


@dataclass(frozen=True)
class Bb84Trace:
    """Full transcript of one protocol run."""

    transmitted_count: int
    sender_bits: tuple[int, ...]
    sender_axes: tuple[Axis, ...]
    eve_actions: tuple[Optional[EveAction], ...]
    receiver_axes: tuple[Axis, ...]
    receiver_bits: tuple[int, ...]
    sifted_positions: tuple[int, ...]
    published_positions: tuple[int, ...]
    verdict: str
    shared_key: tuple[int, ...] | None = None
    message_bits: tuple[int, ...] | None = None
    ciphertext: tuple[int, ...] | None = None
    decrypted: tuple[int, ...] | None = None
    seed: int | None = None
    attempts: int = 1

    @property
    def round_trip_ok(self) -> bool:
        return self.decrypted is not None and self.decrypted == self.message_bits


def encode_qubit(value: int, axis: Axis) -> Circuit:
    """Value-axis preparation circuit: X if value is 1, then H if axis is X.

    A ``value`` other than the integer 0 or 1 (a bool included), or an
    ``axis`` that is not an :class:`Axis`, raises a ValidationError naming it.
    """
    check_int("value", value, 0, 1)
    check_type("axis", axis, Axis)
    circuit = Circuit(1)
    if value == 1:
        circuit.x(0)
    if axis is Axis.X:
        circuit.h(0)
    return circuit


def encode_state(value: int, axis: Axis) -> Statevector:
    return evolve(encode_qubit(value, axis))


# The four preparation states, evolved once here at import, amplitude row
# 2 * value + is_x for each (value, axis). Every round gathers them to
# prepare its qubits, and they double as post-measurement states, so
# collapse is a gather from them too. The four possible interceptions are
# rowed the same way, and shared, since EveAction is frozen; entry 4 is
# None, a row that was not hit. _AXES maps an is-X flag to its Axis.
_COLLAPSED = np.stack(
    [encode_state(value, axis).amplitudes for value in (0, 1) for axis in Axis]
)
_ACTIONS = np.array(
    [EveAction(axis, value) for value in (0, 1) for axis in Axis] + [None], dtype=object
)
_AXES = np.array([Axis.Z, Axis.X], dtype=object)


def _batch(states: Statevector) -> np.ndarray:
    """The amplitude rows of ``states``, a batch of qubits; anything else
    raises a ValidationError naming ``states``."""
    amps = getattr(states, "amplitudes", None)
    if not (
        isinstance(states, Statevector)
        and states.num_qubits == 1
        and isinstance(amps, np.ndarray)
        and amps.ndim == 2
        and amps.shape[1] == 2
    ):
        raise ValidationError(
            "states", f"expected a 1-qubit Statevector of shape (m, 2), got {states!r}"
        )
    return amps


def _read_bits(states: Statevector, x_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The bits of measuring each row of the batch ``states`` in its axis,
    X where ``x_rows`` is True, else Z; nothing is collapsed.

    X rows are rotated with H before sampling: H rotates a copy of the
    whole batch, and ``np.where`` picks the rotated X rows and the
    untouched Z rows. H acts on each row alone, so a picked row sees the
    same float operations as if it were rotated by itself. One uniform is
    drawn per row, in row order. The arguments are not checked; the
    receiver, who discards his qubits once read, calls this directly.
    """
    rotated = apply_gate(states, _H).amplitudes
    probe = np.where(x_rows[:, None], rotated, states.amplitudes)
    return sample_measurement(Statevector(1, probe), rng)


def measure_in_axis(
    states: Statevector, x_rows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, Statevector]:
    """Measure a batch of qubits, each in its own axis.

    ``states`` is a batch, a 1-qubit Statevector whose amplitudes have shape
    (m, 2), one qubit per row; ``x_rows`` holds one bool per row, True where
    the row is measured in the X axis, else Z. A ValidationError names either
    one if it is not so. Returns (bits, collapsed states) as an int array
    and a batch of the same shape. The bits are :func:`_read_bits`'s, one
    uniform per row in row order. Every row collapses onto the prepared
    state of its observed bit in its axis, which for X is exactly the
    collapse onto |+>/|->, gathered with ``np.take``.
    """
    flags = check_row("x_rows", x_rows, bool, len(_batch(states)))
    bits = _read_bits(states, flags, rng)
    return bits, Statevector(1, np.take(_COLLAPSED, 2 * bits + flags, axis=0))


def intercept(
    states: Statevector, density: float, rng: np.random.Generator
) -> tuple[Statevector, list[Optional[EveAction]]]:
    """Intercept-resend attack on a batch of transiting qubits.

    Each row is hit with probability ``density``, checked by
    :data:`DENSITY`, the descriptor's spec; the eavesdropper measures a hit
    row in a uniformly random axis and forwards her collapsed state, and
    other rows pass untouched. Returns the forwarded batch and one action
    per row (None where not hit). Draw order: m interception decisions, then
    one axis per hit row, then the hit rows' collapses. ``states`` is a
    batch as in :func:`measure_in_axis`, float or complex, of any layout,
    and an ``rng`` that is not a numpy Generator raises a ValidationError
    naming it. The hit rows are gathered with ``np.take`` and the resent
    rows written back one column at a time; the actions are read from one
    object table whose last entry is None.
    """
    amps = _batch(states)
    DENSITY.check(density)
    check_type("rng", rng, np.random.Generator)
    rows = len(amps)
    hit = np.flatnonzero(rng.random(rows) < density)
    x_axis = rng.random(hit.size) >= 0.5
    bits, resent = measure_in_axis(
        Statevector(1, np.take(amps, hit, axis=0)), x_axis, rng
    )
    forwarded = amps.copy()
    for j in range(2):
        forwarded[hit, j] = resent.amplitudes[:, j]
    codes = np.full(rows, len(_ACTIONS) - 1)
    codes[hit] = 2 * bits + x_axis
    return Statevector(1, forwarded), _ACTIONS[codes].tolist()


def sift(sender_axes: Sequence, receiver_axes: Sequence) -> list[int]:
    """Positions where both parties used the same axis (kept by both).

    The axes may be Axis members or any equal-comparable flags, such as
    the round's boolean is-X arrays.
    """
    sender = check_row("sender_axes", sender_axes)
    receiver = check_row("receiver_axes", receiver_axes, length=len(sender))
    return np.flatnonzero(sender == receiver).tolist()


def _check_compare_mode(compare_mode: str) -> None:
    if not isinstance(compare_mode, str) or compare_mode not in ("half", "full"):
        raise ValidationError(
            "compare_mode", f"must be 'half' or 'full', got {compare_mode!r}"
        )


def verify(
    sender_sifted_bits: Sequence[int],
    receiver_sifted_bits: Sequence[int],
    compare_mode: str = "half",
) -> tuple[str, int, tuple[int, ...]]:
    """Compare published sifted bits; any mismatch means eavesdropping.

    Publishes the first ceil(L/2) sifted positions (compare_mode="half",
    the protocol mode) or all of them (compare_mode="full", the
    detection-statistics mode). Returns (verdict, the number of bits
    published, which are always the first ones of the sifted list, the
    receiver's unpublished bits). A key too short to publish from (under two
    bits for "half", none for "full") returns (KEY_TOO_SHORT, 0, ()).
    """
    _check_compare_mode(compare_mode)
    sender = check_row("sender_sifted_bits", sender_sifted_bits)
    receiver = check_row("receiver_sifted_bits", receiver_sifted_bits, length=len(sender))
    length = len(sender)
    if length < (2 if compare_mode == "half" else 1):
        return KEY_TOO_SHORT, 0, ()
    cut = math.ceil(length / 2) if compare_mode == "half" else length
    verdict = SECURE if np.array_equal(sender[:cut], receiver[:cut]) else ABORTED
    return verdict, cut, tuple(receiver[cut:].tolist())


def verdict_probabilities(m: int, density: float, compare_mode: str = "half") -> dict[str, float]:
    """Exact chance of each verdict of one exchange of ``m`` qubits.

    Returns {SECURE: p, ABORTED: p, KEY_TOO_SHORT: p}, the law of
    ``run_exchange(m, density, compare_mode=compare_mode).verdict``. Each
    qubit is sifted with chance 1/2, so the sifted length is L ~ Binomial(m,
    1/2), and each sifted bit is wrong with chance density/4 (intercepted,
    wrong axis guess, wrong collapse), independently of L and of the other
    bits. Verification needs L >= 2 ("half") or L >= 1 ("full"), else the
    verdict is key_too_short, and publishes ceil(L/2) or L bits, so it is
    secure with chance c^published, c = 1 - density/4.

    The sums over L have closed forms, so a call costs the same at any m.
    By the binomial theorem the mean of c^L over every L is (1 -
    density/8)^m, which makes "full" mode's ABORTED 1 - (1 - density/8)^m.
    With r = sqrt(c), c^ceil(L/2) is r^L for even L and r^(L+1) for odd
    L, so its mean is ((1 + r)/2)^(m+1) + ((1 - r)/2)^(m+1). The terms of
    the short lengths are then taken out. An ``m`` that is not an integer
    >= 0, a density outside [0, 1] or a mode other than "half" or "full"
    raises a ValidationError naming it.
    """
    m = check_int("m", m, 0)
    DENSITY.check(density)
    _check_compare_mode(compare_mode)
    if m < (2 if compare_mode == "half" else 1):
        return {SECURE: 0.0, ABORTED: 0.0, KEY_TOO_SHORT: 1.0}
    if compare_mode == "full":
        # The mean of c^L, (1 - density/8)^m, as the exp of a log so that
        # 1 minus it keeps its digits at small densities.
        log_passed = m * math.log1p(-density / 8.0)
        short = 0.5**m  # L = 0, which publishes nothing
        return {
            SECURE: math.exp(log_passed) - short,
            ABORTED: -math.expm1(log_passed),
            KEY_TOO_SHORT: short,
        }
    wrong = density / 4.0  # chance that one sifted bit is wrong
    root = math.sqrt(1.0 - wrong)
    # The mean of c^ceil(L/2) is high^(m+1) + low, where 1 - high, that is
    # 1 - (1 + root)/2, is wrong / (2 (1 + root)); the same log again.
    log_high = (m + 1) * math.log1p(-wrong / (2.0 * (1.0 + root)))
    low = ((1.0 - root) / 2.0) ** (m + 1)
    # L = 0 and L = 1 are too short; the mean counted L = 1 as publishing one bit.
    return {
        SECURE: math.exp(log_high) + low - (1 + m * (1.0 - wrong)) * 0.5**m,
        ABORTED: -math.expm1(log_high) - low - m * wrong * 0.5**m,
        KEY_TOO_SHORT: (1 + m) * 0.5**m,
    }


def _setup(density, seed):
    """Effective seed and the three generators, once the density is checked.

    The generators belong to the sender, the eavesdropper and the receiver,
    in that order, and carry on across retry rounds. At density 0 the
    eavesdropper draws nothing, so her generator is not built: its place
    holds None, and the other two are the same as at any density.
    """
    DENSITY.check(density)
    effective_seed = resolve_seed(seed)

    # The child SeedSequence(effective_seed).spawn(3)[key] returns, built directly.
    def child(key):
        return make_rng(np.random.SeedSequence(effective_seed, spawn_key=(key,)))

    return effective_seed, (child(0), child(1) if density else None, child(2))


def _single_exchange(
    transmitted: int,
    density: float,
    rngs: tuple[np.random.Generator, ...],
    compare_mode: str,
    seed: int,
) -> Bb84Trace:
    sender_rng, eve_rng, receiver_rng = rngs
    bits = (sender_rng.random(transmitted) < 0.5).astype(np.int64)
    sender_x = sender_rng.random(transmitted) >= 0.5
    receiver_x = receiver_rng.random(transmitted) >= 0.5
    states = Statevector(1, np.take(_COLLAPSED, 2 * bits + sender_x, axis=0))
    if eve_rng is None:
        eve_actions = [None] * transmitted
    else:
        states, eve_actions = intercept(states, density, eve_rng)
    received = _read_bits(states, receiver_x, receiver_rng)

    sifted = sift(sender_x, receiver_x)
    kept = sender_x == receiver_x
    verdict, published, remaining = verify(
        bits[kept], received[kept], compare_mode=compare_mode
    )
    return Bb84Trace(
        transmitted_count=transmitted,
        sender_bits=tuple(bits.tolist()),
        sender_axes=tuple(_AXES[sender_x.view(np.uint8)].tolist()),
        eve_actions=tuple(eve_actions),
        receiver_axes=tuple(_AXES[receiver_x.view(np.uint8)].tolist()),
        receiver_bits=tuple(received.tolist()),
        sifted_positions=tuple(sifted),
        published_positions=tuple(sifted[:published]),
        verdict=verdict,
        shared_key=remaining if verdict == SECURE else None,
        seed=seed,
    )


def run_exchange(
    transmitted: int,
    density: float,
    backends: BackendRegistry | None = None,
    backend_name: str = LOCAL_BACKEND_NAME,
    seed: int | None = None,
    compare_mode: str = "half",
) -> Bb84Trace:
    """One qubit-exchange round: transmit, sift, verify. No message, no retry.

    compare_mode "half" publishes half the sifted key (protocol behavior);
    "full" publishes all of it. :func:`verdict_probabilities` gives the exact
    law of the verdict: in "full" mode an abort has chance
    1 - (1 - density/8)^transmitted.

    The exchange runs on no backend. ``backends`` (the default registry if
    None) and ``backend_name`` are only checked and looked up, so a bad one
    fails before any draw; they stay in the signature because the benchmark
    passes them positionally.
    """
    check_int("transmitted", transmitted, 1)
    _check_compare_mode(compare_mode)
    if backends is None:
        backends = default_registry()
    check_type("backends", backends, BackendRegistry).get(backend_name)
    seed, rngs = _setup(density, seed)
    return _single_exchange(transmitted, density, rngs, compare_mode, seed)


def run_protocol(
    message_bits: Sequence[int], density: float, seed: int | None = None
) -> Bb84Trace:
    """Full protocol: exchange enough qubits to one-time-pad the message.

    Transmits 6 x len(message) qubits per round. An abort returns
    immediately (that is the detection outcome); a sifted key too short
    for the message runs another round, with fresh randomness, up to 10
    rounds before giving up with verdict key_too_short.
    """
    message = otp.check_bits("message", message_bits)
    if not message:
        raise ValidationError("message", "expected a non-empty sequence of 0/1 bits")
    seed, rngs = _setup(density, seed)

    transmitted = _OVERSAMPLE * len(message)
    for attempt in range(1, _MAX_ROUNDS + 1):
        trace = replace(
            _single_exchange(transmitted, density, rngs, "half", seed),
            attempts=attempt,
            message_bits=message,
        )
        if trace.verdict == ABORTED:
            return trace
        if trace.verdict == SECURE and len(trace.shared_key) >= len(message):
            unpublished = trace.sifted_positions[len(trace.published_positions) :]
            sender_key = tuple(trace.sender_bits[p] for p in unpublished)
            ciphertext = otp.encrypt(message, sender_key)
            return replace(
                trace,
                ciphertext=ciphertext,
                decrypted=otp.decrypt(ciphertext, trace.shared_key),
            )
    return replace(trace, verdict=KEY_TOO_SHORT, shared_key=None)


def render_trace(trace: Bb84Trace) -> str:
    """Aligned per-qubit table plus the verdict and key material.

    Anything but a :class:`Bb84Trace` raises a ValidationError naming ``trace``.
    """
    check_type("trace", trace, Bb84Trace)
    published = set(trace.published_positions)
    sifted = set(trace.sifted_positions)
    header = (
        f"{'#':>4}  {'sent':>4}  {'axis':>4}  {'eve':>6}  {'axis':>4}  {'recv':>4}  fate"
    )
    lines = [header, "-" * len(header)]
    for i in range(trace.transmitted_count):
        action = trace.eve_actions[i]
        eve_cell = f"{action.axis.value}->{action.bit}" if action else "-"
        if i in published:
            fate = "published"
        elif i in sifted:
            fate = "key"
        else:
            fate = "discarded"
        lines.append(
            f"{i:>4}  {trace.sender_bits[i]:>4}  {trace.sender_axes[i].value:>4}  "
            f"{eve_cell:>6}  {trace.receiver_axes[i].value:>4}  "
            f"{trace.receiver_bits[i]:>4}  {fate}"
        )
    lines.append("")
    lines.append(f"verdict: {trace.verdict}")
    if trace.shared_key is not None:
        lines.append(
            f"shared key ({len(trace.shared_key)} bits): {_bits(trace.shared_key)}"
        )
    if trace.message_bits is not None:
        lines.append(f"message bits:   {_bits(trace.message_bits)}")
    if trace.ciphertext is not None:
        lines.append(f"ciphertext:     {_bits(trace.ciphertext)}")
    if trace.decrypted is not None:
        status = "ok" if trace.round_trip_ok else "MISMATCH (undetected interception)"
        lines.append(f"decrypted bits: {_bits(trace.decrypted)}  round trip: {status}")
    if trace.attempts > 1:
        lines.append(f"rounds needed: {trace.attempts}")
    if trace.seed is not None:
        lines.append(f"seed: {trace.seed}")
    return "\n".join(lines)


def _bits(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def _interpret(params: Params, counts: Counts) -> str:
    parts = [
        f"{verdict}: {count} ({count / counts.shots:.1%})"
        for verdict, count in sorted(counts.items())
    ]
    return f"verdicts over {counts.shots} runs — " + ", ".join(parts)


def _runner(params: Params, shots, seed):
    message = otp.text_to_bits(params["message"])
    density = params["density"]
    if shots == 1:
        trace = run_protocol(message, density, seed)
        counts = Counts({trace.verdict: 1}, 1)
        text = render_trace(trace)
        # A faithful round trip decrypts the UTF-8 bits of params["message"].
        if trace.round_trip_ok:
            text += f"\ndecrypted text: {otp.bits_to_text(trace.decrypted)!r}"
        return text, counts
    tallies: dict[str, int] = {}
    for i in range(shots):
        trace = run_protocol(message, density, derive_seed(seed, i))
        tallies[trace.verdict] = tallies.get(trace.verdict, 0) + 1
    counts = Counts(dict(sorted(tallies.items())), shots)
    return _interpret(params, counts), counts


def descriptor() -> AlgorithmDescriptor:
    return AlgorithmDescriptor(
        name="bb84",
        description="quantum key distribution with a tunable intercept-resend attacker",
        param_specs=[MESSAGE, DENSITY],
        # The protocol drives its 1-qubit states itself; the build hook
        # degenerates to a null circuit and the runner takes over.
        build=lambda params: Circuit(1),
        interpret=_interpret,
        runner=_runner,
    )
