"""BB84 key distribution over a simulated quantum channel.

A sender encodes random bits in random Z/X axes as single-qubit circuits
(value-axis table: (0,Z) bare wire, (0,X) H, (1,Z) X, (1,X) X then H).
An eavesdropper may measure each transiting qubit in a random axis and
resend her collapsed state (intercept-resend); the receiver measures in
his own random axis. Sifting keeps the positions where sender and
receiver axes agree, verification publishes part of the sifted key, and
any disagreement there aborts the run. The compare mode names how much is
published: "half" (the first half of the sifted key, the protocol) or
"full" (all of it, whose abort rate follows 1 - (1 - density/8)^m). A
sifted key too short to verify is the verdict key_too_short.

The full protocol sends six qubits per message bit and repeats a round
whose key comes up short, up to ten rounds; surviving key bits one-time-pad
the message.

Every qubit travels as a real statevector: prepared, collapsed on
measurement, re-prepared on resend. Nothing is shortcut with classical
probability tables. Only four preparations exist; their circuits are
evolved once, at import, and every round indexes that table to prepare its
qubits and to collapse them. A round's m qubits travel together as one
batch, a ``Statevector(1, amplitudes)`` whose amplitudes have shape (m, 2),
one row per qubit: interception and measurement rotate, sample and
collapse all rows at once.

Each party draws from its own generator. The sender draws m bit uniforms,
then m axis uniforms; the receiver draws m axis uniforms, then m
measurement uniforms; the eavesdropper draws m interception decisions,
then an axis for each of the k qubits she hit, then their k collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

from .. import otp
from ..backends import BackendRegistry, LOCAL_BACKEND_NAME, default_registry, fresh_seed
from ..errors import ValidationError
from ..framework import AlgorithmDescriptor, ParamSpec, Params
from ..sim import (
    Circuit,
    Counts,
    Gate,
    Statevector,
    apply_gate,
    check_count,
    check_seed,
    derive_seed,
    evolve,
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


@dataclass(frozen=True)
class ChannelPolicy:
    """Per-qubit probability that the eavesdropper measures it."""

    interception_density: float

    def __post_init__(self):
        density = self.interception_density
        if (
            not isinstance(density, Real)
            or isinstance(density, bool)
            or not 0.0 <= density <= 1.0
        ):
            raise ValidationError(
                "density",
                f"probability must be a number within [0, 1], got {density!r}",
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
    """Value-axis preparation circuit: X if value is 1, then H if axis is X."""
    circuit = Circuit(1)
    if value == 1:
        circuit.x(0)
    if axis is Axis.X:
        circuit.h(0)
    return circuit


def encode_state(value: int, axis: Axis) -> Statevector:
    return evolve(encode_qubit(value, axis))


# The four preparation states, evolved once here at import, amplitude row
# 2 * value + is_x for each (value, axis). Every round indexes them to
# prepare its qubits, and they double as post-measurement states, so
# collapse is an index into them too. The four possible interceptions are
# rowed the same way, and shared, since EveAction is frozen.
_COLLAPSED = np.stack(
    [encode_state(value, axis).amplitudes for value in (0, 1) for axis in Axis]
)
_EVE_ACTIONS = np.array(
    [EveAction(axis, value) for value in (0, 1) for axis in Axis], dtype=object
)


def measure_in_axis(
    states: Statevector, x_rows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, Statevector]:
    """Measure a batch of qubits, each in its own axis.

    ``states`` holds one qubit per amplitude row; ``x_rows[i]`` is True
    where row i is measured in the X axis, else Z. Returns (bits, collapsed
    states) as an int array and a batch of the same shape. X rows are
    rotated with H before sampling, and every row collapses onto the
    prepared state of its observed bit in its axis, which for X is exactly
    the collapse onto |+>/|->. One uniform is drawn per row, in row order.
    """
    x_rows = np.asarray(x_rows, dtype=bool)
    probe = states.amplitudes.copy()
    probe[x_rows] = apply_gate(Statevector(1, probe[x_rows]), _H).amplitudes
    bits = sample_measurement(Statevector(1, probe), rng)
    return bits, Statevector(1, _COLLAPSED[2 * bits + x_rows])


def intercept(
    states: Statevector, policy: ChannelPolicy, rng: np.random.Generator
) -> tuple[Statevector, list[Optional[EveAction]]]:
    """Intercept-resend attack on a batch of transiting qubits.

    Each row is hit with probability equal to the interception density;
    the eavesdropper measures a hit row in a uniformly random axis and
    forwards her collapsed state, and other rows pass untouched. Returns
    the forwarded batch and one action per row (None where not hit). Draw
    order: m interception decisions, then one axis per hit row, then the
    hit rows' collapses.
    """
    rows = len(states.amplitudes)
    hit = np.flatnonzero(rng.random(rows) < policy.interception_density)
    x_axis = rng.random(hit.size) >= 0.5
    bits, resent = measure_in_axis(Statevector(1, states.amplitudes[hit]), x_axis, rng)
    forwarded = states.amplitudes.copy()
    forwarded[hit] = resent.amplitudes
    actions = np.full(rows, None, dtype=object)
    actions[hit] = _EVE_ACTIONS[2 * bits + x_axis]
    return Statevector(1, forwarded), actions.tolist()


def sift(sender_axes: Sequence, receiver_axes: Sequence) -> list[int]:
    """Positions where both parties used the same axis (kept by both).

    The axes may be Axis members or any equal-comparable flags, such as
    the round's boolean is-X arrays.
    """
    if len(sender_axes) != len(receiver_axes):
        raise ValueError(
            f"axis lists differ in length: {len(sender_axes)} vs {len(receiver_axes)}"
        )
    return np.flatnonzero(np.equal(sender_axes, receiver_axes)).tolist()


def _check_compare_mode(compare_mode: str) -> None:
    if compare_mode not in ("half", "full"):
        raise ValidationError(
            "compare_mode", f"must be 'half' or 'full', got {compare_mode!r}"
        )


def verify(
    sender_sifted_bits: Sequence[int],
    receiver_sifted_bits: Sequence[int],
    compare_mode: str = "half",
) -> tuple[str, list[int], tuple[int, ...]]:
    """Compare published sifted bits; any mismatch means eavesdropping.

    Publishes the first ceil(L/2) sifted positions (compare_mode="half",
    the protocol mode) or all of them (compare_mode="full", the
    detection-statistics mode). Returns (verdict, published indices into
    the sifted list, the receiver's unpublished bits). A key too short to
    publish from (under two bits for "half", none for "full") returns
    (KEY_TOO_SHORT, [], ()).
    """
    _check_compare_mode(compare_mode)
    sender = np.asarray(sender_sifted_bits)
    receiver = np.asarray(receiver_sifted_bits)
    if len(sender) != len(receiver):
        raise ValueError("sifted bit lists differ in length")
    length = len(sender)
    if length < (2 if compare_mode == "half" else 1):
        return KEY_TOO_SHORT, [], ()
    cut = math.ceil(length / 2) if compare_mode == "half" else length
    verdict = SECURE if np.array_equal(sender[:cut], receiver[:cut]) else ABORTED
    return verdict, list(range(cut)), tuple(receiver[cut:].tolist())


def abort_probability(n: int, density: float) -> float:
    """Chance that verification catches the eavesdropper.

    Per transmitted qubit the detection odds are density/8 (intercepted,
    sifted, wrong axis guess, wrong collapse) when every non-discarded
    qubit is compared; n independent qubits compound to 1 - (1 - density/8)^n.
    """
    return 1.0 - (1.0 - density / 8.0) ** n


def _setup(density, backends, backend_name, seed):
    """Channel policy, effective seed and the three generators.

    The backend name is only looked up, so a bad one fails before any draw.
    The generators belong to the sender, the eavesdropper and the receiver,
    in that order, and carry on across retry rounds.
    """
    policy = ChannelPolicy(density)
    (default_registry() if backends is None else backends).get(backend_name)
    effective_seed = fresh_seed() if seed is None else check_seed(seed)
    rngs = tuple(
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(effective_seed).spawn(3)
    )
    return policy, effective_seed, rngs


def _single_exchange(
    transmitted: int,
    policy: ChannelPolicy,
    rngs: tuple[np.random.Generator, ...],
    compare_mode: str,
    seed: int,
) -> Bb84Trace:
    sender_rng, eve_rng, receiver_rng = rngs
    bits = (sender_rng.random(transmitted) < 0.5).astype(np.int64)
    sender_x = sender_rng.random(transmitted) >= 0.5
    receiver_x = receiver_rng.random(transmitted) >= 0.5
    states = Statevector(1, _COLLAPSED[2 * bits + sender_x])
    states, eve_actions = intercept(states, policy, eve_rng)
    received, _ = measure_in_axis(states, receiver_x, receiver_rng)

    sifted = sift(sender_x, receiver_x)
    verdict, published, remaining = verify(
        bits[sifted], received[sifted], compare_mode=compare_mode
    )
    return Bb84Trace(
        transmitted_count=transmitted,
        sender_bits=tuple(bits.tolist()),
        sender_axes=tuple(np.where(sender_x, Axis.X, Axis.Z).tolist()),
        eve_actions=tuple(eve_actions),
        receiver_axes=tuple(np.where(receiver_x, Axis.X, Axis.Z).tolist()),
        receiver_bits=tuple(received.tolist()),
        sifted_positions=tuple(sifted),
        # verify always publishes a prefix of the sifted key.
        published_positions=tuple(sifted[: len(published)]),
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
    "full" publishes all of it, the mode whose abort rate follows
    1 - (1 - density/8)^transmitted exactly.
    """
    check_count("transmitted", transmitted)
    _check_compare_mode(compare_mode)
    policy, seed, rngs = _setup(density, backends, backend_name, seed)
    return _single_exchange(transmitted, policy, rngs, compare_mode, seed)


def run_protocol(
    message_bits: Sequence[int],
    density: float,
    backends: BackendRegistry | None = None,
    backend_name: str = LOCAL_BACKEND_NAME,
    seed: int | None = None,
) -> Bb84Trace:
    """Full protocol: exchange enough qubits to one-time-pad the message.

    Transmits 6 x len(message) qubits per round. An abort returns
    immediately (that is the detection outcome); a sifted key too short
    for the message runs another round, with fresh randomness, up to 10
    rounds before giving up with verdict key_too_short.
    """
    message = tuple(message_bits)
    if not message or not all(
        isinstance(b, Integral) and not isinstance(b, bool) and b in (0, 1)
        for b in message
    ):
        raise ValidationError("message", "expected a non-empty sequence of 0/1 bits")
    message = tuple(int(b) for b in message)
    policy, seed, rngs = _setup(density, backends, backend_name, seed)

    transmitted = _OVERSAMPLE * len(message)
    for attempt in range(1, _MAX_ROUNDS + 1):
        trace = replace(
            _single_exchange(transmitted, policy, rngs, "half", seed),
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
    """Aligned per-qubit table plus the verdict and key material."""
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


def _runner(params: Params, backends, backend_name, shots, seed):
    message = otp.text_to_bits(params["message"])
    density = params["density"]
    if shots == 1:
        trace = run_protocol(message, density, backends, backend_name, seed)
        counts = Counts({trace.verdict: 1}, 1)
        text = render_trace(trace)
        # A faithful round trip decrypts the UTF-8 bits of params["message"].
        if trace.round_trip_ok:
            text += f"\ndecrypted text: {otp.bits_to_text(trace.decrypted)!r}"
        return text, counts
    tallies: dict[str, int] = {}
    for i in range(shots):
        trace = run_protocol(
            message, density, backends, backend_name, derive_seed(seed, i)
        )
        tallies[trace.verdict] = tallies.get(trace.verdict, 0) + 1
    counts = Counts(dict(sorted(tallies.items())), shots)
    return _interpret(params, counts), counts


def descriptor() -> AlgorithmDescriptor:
    return AlgorithmDescriptor(
        name="bb84",
        description="quantum key distribution with a tunable intercept-resend attacker",
        param_specs=[
            ParamSpec(
                "message",
                "text",
                description="message to transport one-time-padded (UTF-8)",
                min_len=1,
            ),
            ParamSpec(
                "density",
                "probability",
                description="per-qubit interception probability, 0 to 1",
            ),
        ],
        # The protocol drives its 1-qubit states itself; the build hook
        # degenerates to a null circuit and the runner takes over.
        build=lambda params: Circuit(1),
        interpret=_interpret,
        explain=(
            "Single runs print the per-qubit trace: what was sent on which axis, "
            "whether the eavesdropper measured it, what the receiver read, and "
            "whether the position survived sifting or was published for "
            "verification. 'aborted' means the published halves disagreed "
            "(attack detected); 'secure' yields a shared key that decrypts the "
            "message; 'key_too_short' means sifting never left enough key bits. "
            "Repeated runs report the verdict tally."
        ),
        runner=_runner,
    )
