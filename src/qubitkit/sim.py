"""Dense statevector simulation of small {H, X, CNOT} circuits.

Bit-ordering convention, used everywhere in this package:

* qubit 0 is the least-significant bit of an amplitude index, so the
  basis state with qubit 0 = 1 and all others 0 sits at index 1;
* outcome bitstrings are printed most-significant qubit first, i.e.
  ``format(index, f"0{n}b")`` — qubit n-1 is the leftmost character.

Amplitudes are real ``float64``: H, X and CNOT are real orthogonal
gates, so a state evolved from |0...0> never leaves the reals. Each gate
is one kernel over a view of the amplitude array with one axis per
target's bit (strided butterflies and half swaps, no index arrays).
:func:`apply_gate` returns a new array: up to 2^16 amplitudes, one
out-of-place kernel writes the gate's image of its input there, with no
copy first. Every kernel keeps the dtype of its input, so complex states
given to :func:`apply_gate` stay complex. A state may also hold a batch:
a ``(k, 2^n)`` amplitude array is k independent registers, one per row,
and every kernel and the sampler act on all rows at once.

A kernel whose view ends in an axis of 2–4 elements (lowest target qubit
1 or 2) makes one numpy call per index along it, so each call's inner
loop runs over the rest of the view, not over 2–4 elements. From 16
qubits up, the state is cut into contiguous slices of 2^16 amplitudes,
and :func:`evolve` keeps a live mask, one bool per slice, of the slices
that may hold an amplitude other than +0.0: at first slice 0 alone,
since |0...0> is +0.0 everywhere else. Each run of consecutive gates
whose targets all lie below qubit 16 is applied one live slice at a
time, so a slice stays in cache for the whole run. Within a slice, the
gates write out of place, back and forth between the slice and one
scratch slice per worker, and a gate whose lowest target bit lies below
12 is preceded by a rotation of the slice's index bits (one transpose
copy) that lifts it to bit 12, so its inner loops run over at least 2^12
amplitudes (unless it is a CNOT whose other target wraps round past bit
15). The slice ends with its bits back in order. Every other gate runs
over slice pairs, in place, with a temporary of at most half a pair: a
gate on qubit t >= 16 pairs slice s with slice s ^ 2^(t − 16) and runs
each pair that holds a live slice (:func:`_apply_sliced` gives how each
gate moves the mask). A CNOT with a control at or above qubit 16 runs
only the pairs (or, for a lower target, the slices) whose control bit is
set. A dead slice holds only +0.0, so skipping it leaves the bytes a
full pass would write. Above 2^16 amplitudes, :func:`apply_gate` copies
its input and cuts the copy the same way, each slice holding whole batch
rows, with every slice live. Slices and pairs are shared out over the
calling thread and one started thread per further CPU this process may
use. Every amplitude sees the same float operations in the same order on
every path, so the amplitudes do not depend on the block size, the live
mask, the rotations or the number of workers. From 16 qubits up,
:func:`evolve` updates the zero state it allocates, and :func:`run`
squares and sums that buffer in place, so a run holds one state-sized
array. Below 16 qubits, :func:`evolve` makes one :func:`apply_gate` call
per gate.

Randomness comes from numpy's PCG64 generator. Outcome sampling is
inverse-CDF over ``Generator.random()`` uniforms (a running sum,
searched), so equal seeds give bit-identical counts on any platform.
:func:`run` builds its running sum one 2^16-amplitude block at a time,
carrying the total so far into each block's first entry: the adds
``np.cumsum`` makes, in the same order. A block of +0.0 is filled with
that total instead, so a state with few nonzero blocks, such as the two
amplitudes Bernstein-Vazirani ends with, skips the squares and adds of
the rest. A batch draws one uniform per row, in row order, and a batch of
more rows than outcomes sums each column into the next with one
vectorised add, the adds ``np.cumsum`` makes, in the same order.
:func:`run` returns only a histogram, and finds each shot's outcome in
one of two ways, both giving the outcome the search of its uniform
finds. When the state has no more outcomes than the shots and a chunk of
2^18, it builds a guide table once: for each of 2^n equal cells of
[0, 1), the outcome the cell's lower bound reaches, and the running sum
at that outcome. Each shot looks up its cell's running sum, one compare
tells whether the shot lies past the cell's outcome, and a binary search
places the rare shot that does: one lookup and O(1) expected compares
per shot, and no sort. These shots go 2^15 at a time and are counted by
cell, in one array of 2^n + 1 kept for the whole run; each block's late
shots are moved to their searched outcomes at once, and the cell counts
are summed into the outcomes of their cells once, at the end. Otherwise
:func:`run` draws its uniforms in chunks of 2^18, into one reused
buffer, and sorts each chunk: PCG64 gives the same doubles in chunks as
in one call, and the order of the shots does not reach the counts. Each
shot is searched among the edges, and each chunk's sorted outcomes are
appended to the sparse histogram so far, whose outcomes are sorted too:
one stable sort merges the two runs, and the tallies of equal outcomes
are summed. Memory is O(chunk + outcomes), not O(shots). The
:class:`Counts` it returns hold the distinct outcome indices and their
tallies as arrays; the bitstring labels and their dict are built from
them only when first read by label, and kept. A Counts built from a dict
has no arrays.
"""

from __future__ import annotations

import math
import os
import secrets
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from numbers import Integral
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CapacityError, ValidationError

QUBIT_CAP = 24  # largest register any state, circuit or backend may hold

GATE_KINDS = ("H", "X", "CNOT")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# evolve and apply_gate cut states above 2^16 amplitudes into slices of that
# size, and run sums them in blocks of it: a float64 slice (512 KB) and the
# worker's scratch slice in a low run, or a slice pair's in-place kernel
# temporary (at most one slice), fit in a per-core L2 cache. apply_gate writes
# a state of at most this many amplitudes with one out-of-place kernel call.
_BLOCK_QUBITS = 16

# run draws, sorts and tallies this many uniforms at a time (2 MB of float64)
# when the state has more outcomes than this or than the shots.
_CHUNK = 1 << 18

# The dense sampler draws, looks up and counts this many uniforms at a time, in
# three 256 KB buffers: below 2^16 outcomes it runs faster than blocks of 2^16,
# and at 2^16 within 7% of them in half the memory.
_SAMPLE_BLOCK = 1 << 15

_SEED_MAX = (1 << 64) - 1  # seeds lie in [0, 2^64), the range derive_seed returns


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Seeded PCG64 generator; the single RNG used for all sampling.

    ``seed`` is a ``SeedSequence`` (a spawned child) or an integer in
    [0, 2^64), checked by :func:`check_int`.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = check_int("seed", seed, 0, _SEED_MAX)
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master: int, *parts: int) -> int:
    """Child seed from (master, parts), independent of evaluation order.

    Work items seeded this way (heatmap cells, repeated protocol runs) give
    identical results no matter how they are scheduled across workers. The
    master and each part must be integers in [0, 2^64), else a
    ValidationError names ``master`` or ``parts``.
    """
    master = check_int("master", master, 0, _SEED_MAX)
    parts = [check_int("parts", part, 0, _SEED_MAX) for part in parts]
    sequence = np.random.SeedSequence([master, *parts])
    return int(sequence.generate_state(1, np.uint64)[0])


def _is_int(value) -> bool:
    # ``type(value) is int`` first: the Integral check costs about 1 µs, and
    # every Gate, Circuit and gate applied makes one.
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def check_int(param: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an ``int``, if it is an integer (not a bool) within
    [lo, hi], or at least ``lo`` if ``hi`` is None.

    This is the package's one integer rule: numpy integers pass and come
    back as Python ints. Anything else raises a ValidationError naming
    ``param``.
    """
    # A plain int, the common case, skips the calls to _is_int and int().
    if (type(value) is int or _is_int(value)) and lo <= value and (hi is None or value <= hi):
        return value if type(value) is int else int(value)
    bound = f">= {lo}" if hi is None else f"within [{lo}, {hi}]"
    raise ValidationError(param, f"must be an integer {bound}, got {value!r}")


def check_row(param: str, value, dtype=None, length: int | None = None) -> np.ndarray:
    """``value`` as a 1-D array, of ``dtype`` and ``length`` if given.

    A ragged, scalar or otherwise shaped value, or a row of another dtype
    or length, raises a ValidationError naming ``param``.
    """
    try:
        row = np.asarray(value)
    except ValueError:  # a ragged nesting
        row = None
    if not (
        row is not None
        and row.ndim == 1
        and (dtype is None or row.dtype == dtype)
        and (length is None or len(row) == length)
    ):
        kind = "sequence" if dtype is None else f"{np.dtype(dtype)} sequence"
        size = "" if length is None else f" of length {length}"
        raise ValidationError(param, f"expected a 1-D {kind}{size}, got {value!r}")
    return row


def check_type(param: str, value, cls: type):
    """``value`` if it is a ``cls``, else a ValidationError naming ``param``.

    The package's three check rules are :func:`check_int` (integers),
    :func:`check_row` (rows) and this one (instances). A check of more than
    one class test (shape, dtype, labels, a real not a bool, arity) is
    written where it applies.
    """
    if isinstance(value, cls):
        return value
    raise ValidationError(param, f"expected an instance of {cls.__name__}, got {value!r}")


def resolve_seed(seed) -> int:
    """The seed a run uses: ``seed`` checked as :func:`make_rng` checks it,
    or a fresh one if it is None.

    This is the only place a seed is drawn from entropy. The caller returns
    the seed it resolved, an ``int``, so any run can be replayed.
    """
    return secrets.randbits(63) if seed is None else check_int("seed", seed, 0, _SEED_MAX)


def outcome_bits(indices: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits (<= 32) of each index, most significant first.

    A ``(k, width)`` uint8 array of 0 and 1: row i read left to right is
    outcome ``indices[i]``'s label (bit order: module docstring), for
    ``width`` its number of qubits. ``indices`` must be a 1-D integer array
    and ``width`` an integer within [1, 32], else a ValidationError names it.
    """
    if not (isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu"):
        raise ValidationError("indices", f"expected a 1-D integer array, got {indices!r}")
    check_int("width", width, 1, 32)
    # The indices' big-endian bytes, only those that hold the bits asked for.
    octets = indices.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 4 - (width + 7) // 8 :]
    bits = np.unpackbits(octets, axis=1)
    return bits[:, bits.shape[1] - width :]


def _bitstrings(indices: np.ndarray, num_qubits: int) -> list[str]:
    """Outcome labels of the indices, in order (bit order: module docstring)."""
    # One more bit than the label holds, always 0, becomes a separating space.
    rows = outcome_bits(indices, num_qubits + 1)
    rows += ord("0")
    rows[:, 0] = ord(" ")
    return rows.tobytes().decode().split()


@dataclass(frozen=True)
class Gate:
    """One gate application; ``targets`` is the tuple (qubit,) or (control, target)."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in GATE_KINDS:
            raise ValidationError("kind", f"unknown gate kind {self.kind!r}")
        targets = self.targets
        if not (isinstance(targets, tuple) and all(_is_int(t) for t in targets)):
            raise ValidationError(
                "targets", f"must be a tuple of integer qubit indices, got {targets!r}"
            )
        arity = 2 if self.kind == "CNOT" else 1
        if len(self.targets) != arity:
            raise ValidationError(
                "targets", f"{self.kind} takes {arity} target(s), got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError(
                "targets", f"{self.kind} targets must be distinct, got {self.targets}"
            )


def _check_gate(param: str, gate: Gate, num_qubits: int) -> Gate:
    """``gate``, if it is a :class:`Gate` (else a ValidationError naming
    ``param``) whose targets all lie in [0, num_qubits) (else an IndexError,
    the one place a target's range is checked)."""
    for t in check_type(param, gate, Gate).targets:
        if not 0 <= t < num_qubits:
            raise IndexError(f"gate {gate.kind} targets qubit {t}, register has {num_qubits}")
    return gate


@dataclass
class Circuit:
    """Ordered gate list over ``num_qubits`` qubits.

    ``gates`` is a list of :class:`Gate`; anything else raises a
    ValidationError naming ``gates``. A circuit holds no measurement:
    :func:`run` samples every qubit after the last gate (measurement here
    is terminal and total by design).
    """

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        self.num_qubits = check_int("num_qubits", self.num_qubits, 1)
        for gate in check_type("gates", self.gates, list):
            _check_gate("gates", gate, self.num_qubits)

    def append(self, gate: Gate) -> "Circuit":
        self.gates.append(_check_gate("gates", gate, self.num_qubits))
        return self

    def h(self, qubit: int) -> "Circuit":
        return self.append(Gate("H", (qubit,)))

    def x(self, qubit: int) -> "Circuit":
        return self.append(Gate("X", (qubit,)))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.append(Gate("CNOT", (control, target)))


@dataclass
class Statevector:
    """Amplitudes of an ``num_qubits``-qubit register (length 2^n).

    A ``(k, 2^n)`` array holds a batch of k registers, one per row. States
    built by :func:`new_zero_state` and :func:`evolve` hold real
    ``float64`` amplitudes. A complex array is accepted as well; gates keep
    its dtype, and probabilities are ``|a|^2`` either way. :func:`apply_gate`
    and :func:`sample_measurement` reject any other shape or dtype with a
    ValidationError naming ``amplitudes``.
    """

    num_qubits: int
    amplitudes: np.ndarray


def _amplitudes(state: Statevector) -> tuple[int, np.ndarray]:
    """The state's qubit count, as an ``int``, and its amplitudes, checked
    where they enter the kernels and sampler.

    ``state`` must be a :class:`Statevector`, else a ValidationError names
    ``state``. Its amplitudes must be a float or complex array of shape
    (2^n,) or (k, 2^n); anything else raises a ValidationError naming
    ``amplitudes`` before numpy fails on it, casts it or reads it as a
    different state.
    """
    check_type("state", state, Statevector)
    n, amps = check_int("num_qubits", state.num_qubits, 1), state.amplitudes
    if not (
        isinstance(amps, np.ndarray)
        and amps.ndim in (1, 2)
        and amps.dtype.kind in "fc"
        and amps.shape[-1] == 1 << n
    ):
        raise ValidationError(
            "amplitudes",
            f"expected a float or complex array of shape (2^{n},) or (k, 2^{n}), "
            f"got {getattr(amps, 'dtype', type(amps).__name__)} of shape {np.shape(amps)}",
        )
    return n, amps


def new_zero_state(n: int) -> Statevector:
    """|0...0> on n qubits; an integer n outside [1, QUBIT_CAP] raises
    CapacityError, and an n that is not an integer a ValidationError."""
    if _is_int(n) and not 1 <= n <= QUBIT_CAP:
        raise CapacityError(f"qubit count {n} outside supported range 1..{QUBIT_CAP}")
    n = check_int("num_qubits", n, 1)
    amps = np.zeros(1 << n, dtype=np.float64)
    amps[0] = 1.0
    return Statevector(n, amps)


def _pair_view(amps: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """View of ``amps`` whose odd axes are the targets' bits.

    One target q gives ``(rows · 2^(n−q−1), 2, 2^q)``; a batch's rows are
    folded into axis 0. A CNOT gives ``(rows · 2^(n−hi−1), 2, 2^(hi−lo−1),
    2, 2^lo)`` with the control's bit on axis 1 and the target's on axis 3,
    whichever of the two is the higher qubit.
    """
    if len(targets) == 1:
        q = targets[0]
        return amps.reshape(amps.size >> q + 1, 2, 1 << q)
    lo, hi = sorted(targets)
    view = amps.reshape(amps.size >> hi + 1, 2, 1 << hi - lo - 1, 2, 1 << lo)
    return view if targets[0] == hi else view.swapaxes(1, 3)


def _columns(*views: np.ndarray) -> Iterable[tuple[np.ndarray, ...]]:
    """Tuples of matching sub-views that cover ``views``, views of one shape,
    each sub-view with a long inner loop.

    numpy's inner loop runs along the last axis of these views, merged with
    the axes before it only where the memory is contiguous. When that axis
    holds 2–4 elements, one sub-view per index along it gives every numpy
    call a long strided loop over the other axes instead. Otherwise the one
    tuple is ``views``.
    """
    if 2 <= views[0].shape[-1] <= 4:
        return zip(*([v[..., j : j + 1] for j in range(v.shape[-1])] for v in views))
    return (views,)


def _hadamard(view: np.ndarray) -> None:
    for (x,) in _columns(view):
        x0, x1 = x[:, 0], x[:, 1]
        t = x0 + x1
        np.subtract(x0, x1, out=x1)
        np.multiply(t, _INV_SQRT2, out=x0)
        x1 *= _INV_SQRT2


def _swap(x0: np.ndarray, x1: np.ndarray) -> None:
    t = x0.copy()
    x0[...] = x1
    x1[...] = t


def _pauli_x(view: np.ndarray) -> None:
    for (x,) in _columns(view):
        _swap(x[:, 0], x[:, 1])


def _cnot(view: np.ndarray) -> None:
    # Only the control-1 half changes: its two target halves swap.
    for (x,) in _columns(view):
        _swap(x[:, 1, :, 0], x[:, 1, :, 1])


# ``kernel(view)`` applies the gate in place to a view from :func:`_pair_view`.
# Its temporary holds half the view or less. Only :func:`_apply_sliced` runs
# these, on the slices and slice pairs of states above 2^_BLOCK_QUBITS
# amplitudes.
_PAIR_KERNELS = {"H": _hadamard, "X": _pauli_x, "CNOT": _cnot}


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Return the state transformed by one gate, in a new C-order array.

    The input is not touched. A batch is transformed row by row. A state of
    at most 2^_BLOCK_QUBITS amplitudes, in any memory order, is one
    out-of-place kernel call (:data:`_SLICE_KERNELS`) from the input into a
    fresh array of its shape and dtype. A larger state is copied, and the
    copy is cut into slices of 2^_BLOCK_QUBITS amplitudes, each holding
    whole rows (the last one shorter if a batch's rows are smaller), and
    every slice is live (:func:`_apply_sliced`): a gate whose targets lie
    below _BLOCK_QUBITS runs slice by slice, in place, any other slice pair
    by slice pair, and the slices or pairs are shared across the CPUs this
    process may use. Each amplitude sees the same operations either way.
    """
    n, amps = _amplitudes(state)
    _check_gate("gate", gate, n)
    if amps.size <= 1 << _BLOCK_QUBITS:
        out = np.empty(amps.shape, dtype=amps.dtype)
        _SLICE_KERNELS[gate.kind](amps, out, gate.targets)
    else:
        out = np.array(amps, order="C")
        slices = -(-out.size >> _BLOCK_QUBITS)
        _apply_sliced(out.reshape(-1), gate, np.ones(slices, dtype=bool))
    return Statevector(n, out)


def _apply_sliced(amps: np.ndarray, gate: Gate, live: np.ndarray) -> None:
    """Apply ``gate`` in place to the 1-D ``amps``, over the slices ``live`` marks.

    Slice s is ``amps[s · 2^B : (s + 1) · 2^B]``, for B = _BLOCK_QUBITS. A
    target t >= B pairs slice s with s ^ 2^(t − B): each pair is one kernel
    call over a ``(1, 2, 2^B)`` view, and runs if either slice is live. A
    CNOT with a low control puts the control's bit inside the slice; one
    with a high control runs only the pairs whose control bit is set, as an
    X. An X swaps the pair's slices, so it swaps their liveness too; H, and
    a CNOT with a low control, leave both slices live. A gate whose targets
    all lie below B acts inside each live slice, and a CNOT with a high
    control and a low target is an X inside each live slice whose control
    bit is set; neither changes ``live``. The slices ``live`` leaves out
    (dead slices) must hold only +0.0, which every gate maps to +0.0, so
    skipping them leaves the bytes a full pass would write.
    """
    bits, size = _BLOCK_QUBITS, 1 << _BLOCK_QUBITS
    index = np.arange(len(live))
    run = live.copy()
    kind, targets = gate.kind, gate.targets
    if kind == "CNOT" and targets[0] >= bits:
        run &= (index >> targets[0] - bits & 1).astype(bool)
        kind, targets = "X", targets[1:]
    kernel = _PAIR_KERNELS[kind]
    if targets[-1] < bits:

        def unit(s: int) -> np.ndarray:
            return _pair_view(amps[s * size : (s + 1) * size], targets)

    else:
        b = 1 << targets[-1] - bits
        pairs = amps.reshape(-1, 2, b, size)
        run |= run[index ^ b]
        live[run] = live[index ^ b][run] if kind == "X" else True
        run &= index & b == 0  # each pair once, by its lower slice

        def unit(s: int) -> np.ndarray:
            view = pairs[s // (2 * b), :, s % b][None]  # (1, target, slice)
            if len(targets) == 2:  # (1, control, middle, target, low)
                c = targets[0]
                view = view.reshape(1, 2, size >> c + 1, 2, 1 << c).swapaxes(1, 3)
            return view

    def apply_share(slices: list[int]) -> None:
        for s in slices:
            kernel(unit(s))

    _share(apply_share, run)


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(task, mask: np.ndarray) -> None:
    """Run ``task(slices)`` over the slice numbers ``mask`` marks, split
    across the CPUs.

    The numbers, ascending, are cut into one contiguous share per CPU this
    process may use (at most one per number; none if ``mask`` marks none):
    the calling thread takes the first share, one started thread takes each
    other share. Every thread is joined before this returns, and the first
    error a thread raised is raised here.
    """
    units = np.flatnonzero(mask)
    workers = min(_cpu_count(), len(units))
    if not workers:
        return
    shares = [share.tolist() for share in np.array_split(units, workers)]
    errors = []

    def worker(share: list[int]) -> None:
        try:
            task(share)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(share,)) for share in shares[1:]]
    for thread in threads:
        thread.start()
    try:
        task(shares[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _hadamard_into(src: np.ndarray, dst: np.ndarray, targets: tuple[int, ...]) -> None:
    for x, y in _columns(_pair_view(src, targets), _pair_view(dst, targets)):
        np.add(x[:, 0], x[:, 1], out=y[:, 0])
        np.subtract(x[:, 0], x[:, 1], out=y[:, 1])
    dst *= _INV_SQRT2


def _pauli_x_into(src: np.ndarray, dst: np.ndarray, targets: tuple[int, ...]) -> None:
    for x, y in _columns(_pair_view(src, targets), _pair_view(dst, targets)):
        y[:, 0] = x[:, 1]
        y[:, 1] = x[:, 0]


def _cnot_into(src: np.ndarray, dst: np.ndarray, targets: tuple[int, ...]) -> None:
    # A whole copy first, then the control-1 half's target halves swapped:
    # copying the control-0 half alone runs in pieces as short as 2 amplitudes.
    np.copyto(dst, src)
    for x, y in _columns(_pair_view(src, targets), _pair_view(dst, targets)):
        y[:, 1, :, 0] = x[:, 1, :, 1]
        y[:, 1, :, 1] = x[:, 1, :, 0]


# ``kernel(src, dst, targets)`` writes ``src`` after the gate into ``dst``, a
# distinct C-order array of the same size, with the targets given as bits of
# the index; ``src`` may be in any memory order. The low runs and
# :func:`apply_gate` on at most 2^_BLOCK_QUBITS amplitudes use these. Like the
# in-place kernels, they split a last axis of 2–4 elements (:func:`_columns`).
# The H kernel does the float operations of the in-place one, in the same order.
_SLICE_KERNELS = {"H": _hadamard_into, "X": _pauli_x_into, "CNOT": _cnot_into}


def _rotate(src: np.ndarray, dst: np.ndarray, k: int) -> None:
    """Write ``src`` into ``dst`` with each index's bits rotated up by ``k``.

    Amplitude i of ``src``, a 2^b-amplitude array, lands at index
    ``(i << k | i >> b − k) mod 2^b`` of ``dst``: one transpose copy.
    """
    size = len(src)
    np.copyto(dst.reshape(size >> k, 1 << k), src.reshape(1 << k, size >> k).T)


def _low_run_steps(gates: list[Gate]) -> list[tuple]:
    """The ``(step, arg)`` list that applies ``gates`` to one slice.

    Each step reads one buffer and writes the other: ``_rotate(src, dst, k)``
    or a kernel of ``_SLICE_KERNELS`` with its targets as slice bits. Logical
    qubit q sits at slice bit (q + s) mod _BLOCK_QUBITS, for an offset s that
    starts at 0. A gate whose lowest bit lies below _BLOCK_QUBITS − 4 is
    preceded by a rotation that lifts that bit to _BLOCK_QUBITS − 4, where
    its pair view's inner loops run over at least 2^(_BLOCK_QUBITS − 4)
    amplitudes, unless a CNOT's other target wraps round past the top bit.
    A last rotation brings s back to 0.
    """
    bits = _BLOCK_QUBITS
    fast = bits - 4
    shift, steps = 0, []
    for gate in gates:
        low = min((q + shift) % bits for q in gate.targets)
        if low < fast:
            steps.append((_rotate, fast - low))
            shift = (shift + fast - low) % bits
        steps.append((_SLICE_KERNELS[gate.kind], tuple((q + shift) % bits for q in gate.targets)))
    if shift:
        steps.append((_rotate, bits - shift))
    return steps


def _apply_low_run(amps: np.ndarray, gates: list[Gate], live: np.ndarray) -> None:
    """Apply gates whose targets all lie below ``_BLOCK_QUBITS``, slice by slice.

    Each contiguous slice of 2^_BLOCK_QUBITS amplitudes holds whole pairs of
    every such gate, so the run's steps (:func:`_low_run_steps`) go through
    one slice at a time while it stays in cache. They alternate between the
    slice of ``amps`` and one scratch slice per worker, and an odd number of
    steps ends with a copy back into ``amps``. Only the slices ``live``
    marks are visited (:func:`_share`); the run acts inside slices, so
    ``live`` does not change.
    """
    size = 1 << _BLOCK_QUBITS
    steps = _low_run_steps(gates)

    def apply_share(slices: list[int]) -> None:
        scratch = np.empty(size, dtype=amps.dtype)
        for s in slices:
            buffers = amps[s * size : (s + 1) * size], scratch
            for i, (step, arg) in enumerate(steps):
                step(buffers[i % 2], buffers[1 - i % 2], arg)
            if len(steps) % 2:
                buffers[0][...] = scratch

    _share(apply_share, live)


def evolve(circuit: Circuit) -> Statevector:
    """Apply the circuit's gates in order to the zero state.

    Every gate is checked first, as :meth:`Circuit.append` checks it, since
    ``circuit.gates`` is a list anyone may append to: a gate that is not a
    :class:`Gate` raises a ValidationError naming ``gates``, and a target
    outside the register an IndexError. On ``_BLOCK_QUBITS`` qubits or
    more, the zero state's buffer is updated in place and is the only
    state-sized array. The state is 2^(n − _BLOCK_QUBITS) slices of
    2^_BLOCK_QUBITS amplitudes, and evolve keeps one bool per slice, the
    live mask, that marks the slices that may hold an amplitude other than
    +0.0. It starts as slice 0 alone. Each maximal run of consecutive gates
    whose targets all lie below ``_BLOCK_QUBITS`` is applied one live slice
    at a time (:func:`_apply_low_run`), with the slices split across the
    CPUs this process may use; besides the state, each worker holds one
    scratch slice. On exactly ``_BLOCK_QUBITS`` qubits the state is one
    slice, so all its gates are one low run on the calling thread. Every
    other gate runs slice by slice, or slice pair by slice pair if a target
    lies at or above ``_BLOCK_QUBITS``, over the live slices only, and
    updates the mask (:func:`_apply_sliced`). On fewer than
    ``_BLOCK_QUBITS`` qubits, each gate is one :func:`apply_gate` call,
    which writes a fresh array. Every amplitude sees the same operations in
    the same order either way, so the result does not depend on the block
    size, the live mask or the number of workers.
    """
    n = check_type("circuit", circuit, Circuit).num_qubits
    for gate in check_type("gates", circuit.gates, list):
        _check_gate("gates", gate, n)
    state = new_zero_state(n)
    blocked = n >= _BLOCK_QUBITS
    live = None
    if blocked:
        live = np.zeros(1 << n - _BLOCK_QUBITS, dtype=bool)
        live[0] = True

    def low(gate: Gate) -> bool:
        return blocked and max(gate.targets) < _BLOCK_QUBITS

    for is_low, gates in groupby(circuit.gates, low):
        if is_low:
            _apply_low_run(state.amplitudes, list(gates), live)
        elif blocked:
            for gate in gates:
                _apply_sliced(state.amplitudes, gate, live)
        else:
            for gate in gates:
                state = apply_gate(state, gate)
    return state


def _search(cum: np.ndarray, uniforms: float | np.ndarray):
    """Outcome indices for uniforms in [0, 1) under the running sum ``cum``.

    Searching all but the last entry clamps a uniform that rounds onto the
    total mass to the last outcome. Sorted uniforms give the same indices,
    sorted, and search faster: each lands near the one before it.
    """
    return np.searchsorted(cum[:-1], uniforms * cum[-1], side="right")


def _tally(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values``, ascending, and the sum of ``weights`` over each.

    ``values`` is not empty. A stable sort (timsort, for 64-bit integers)
    finds the sorted runs it is made of, so two sorted runs cost one merge
    pass.
    """
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.add.reduceat(weights[order], starts)


def sample_measurement(
    state: Statevector, rng: np.random.Generator
) -> int | np.ndarray:
    """Draw terminal measure-all outcomes under the Born rule.

    Returns the outcome index (an ``int``; the module docstring gives its
    bit order and label) for one register, or an integer array with one
    index per row for a ``(k, 2^n)`` batch, drawn with ``rng.random(k)`` in
    row order: the same outcomes as k single-register calls. One register
    is a batch of one. Each row's outcome is the number of entries of its
    running sum, all but the last, at or below its target: on a sorted row,
    what ``searchsorted(side="right")`` returns, with a uniform that rounds
    onto the total mass clamped to the last outcome.

    A batch of more rows than outcomes (such as BB84's (m, 2) batches)
    builds its running sums with one vectorised add per column, ``column j
    += column j - 1``, since ``np.cumsum`` along rows of 2^n entries runs
    an inner loop of only 2^n elements. These are the adds ``np.cumsum``
    makes, in the same order, so the sums are bit-identical. Wider rows keep
    ``np.cumsum``, whose cost does not grow with one Python step per column.
    """
    amps = _amplitudes(state)[1]
    check_type("rng", rng, np.random.Generator)
    cum = (np.abs(amps) ** 2).reshape(-1, amps.shape[-1])
    if cum.shape[1] < len(cum):
        for j in range(1, cum.shape[1]):
            cum[:, j] += cum[:, j - 1]
    else:
        np.cumsum(cum, axis=-1, out=cum)
    targets = rng.random(len(cum)) * cum[:, -1]
    indices = np.count_nonzero(cum[:, :-1] <= targets[:, None], axis=-1)
    return int(indices[0]) if amps.ndim == 1 else indices


def _check_tallies(param: str, tallies: np.ndarray, shots: int) -> int:
    """``shots`` as an ``int``, if it is an integer >= 1 and ``tallies`` is a
    1-D array, not empty, of integers >= 1 that sum to it; else raise a
    ValidationError naming ``param`` (or ``shots``)."""
    shots = check_int("shots", shots, 1)
    if not (
        isinstance(tallies, np.ndarray)
        and tallies.ndim == 1
        and len(tallies)
        and tallies.dtype.kind in "iu"
        and tallies.min() >= 1
    ):
        raise ValidationError(
            param, f"tallies must be a 1-D array of integers >= 1, got {tallies!r}"
        )
    total = int(tallies.sum())
    if total != shots:
        raise ValidationError(param, f"counts sum to {total}, expected shots={shots}")
    return shots


class Counts(Mapping):
    """Outcome histogram: label -> occurrences, integers >= 1 summing to
    ``shots`` (else a ValidationError, which is a ValueError, naming the
    argument at fault).

    Built from a dict of non-empty ``str`` labels, as ``Counts(counts,
    shots)``, or from the outcome indices in ascending order and their
    tallies, as :meth:`from_arrays` (what :func:`run` returns). A Counts
    from arrays keeps them as ``arrays`` and builds the ``counts`` dict,
    which every Mapping access reads, from the indices on first use (labels
    as in the module docstring). ``len()`` reads whichever is there, so a
    Counts from :func:`run` that no one reads by label never builds its
    labels. ``arrays`` and ``num_qubits`` are None for a Counts built from a
    dict, whose labels need not be bitstrings: BB84 tallies its verdicts in
    one. Two Counts are equal when their shots and their items are.
    """

    def __init__(self, counts: dict[str, int], shots: int):
        if not (isinstance(counts, dict) and all(isinstance(k, str) and k for k in counts)):
            raise ValidationError(
                "counts", f"expected a dict with non-empty str labels, got {counts!r}"
            )
        tallies = list(counts.values())
        if not all(map(_is_int, tallies)):  # np.array reads [1, True] as integers
            raise ValidationError("counts", f"tallies must be integers, got {tallies!r}")
        self.shots = _check_tallies("counts", np.array(tallies), shots)
        self.counts = counts
        self.arrays = None
        self.num_qubits = None

    @classmethod
    def from_arrays(
        cls, indices: np.ndarray, tallies: np.ndarray, num_qubits: int, shots: int
    ) -> "Counts":
        """Counts of outcome ``indices[i]`` seen ``tallies[i]`` times.

        ``indices`` must be strictly increasing integers in [0, 2^num_qubits),
        one per tally, and ``tallies`` pass the same check as a dict's;
        anything else raises a ValidationError naming the argument.
        """
        num_qubits = check_int("num_qubits", num_qubits, 1, QUBIT_CAP)
        shots = _check_tallies("tallies", tallies, shots)
        if not (
            isinstance(indices, np.ndarray)
            and indices.ndim == 1
            and len(indices) == len(tallies)
            and indices.dtype.kind in "iu"
            and np.all(indices[1:] > indices[:-1])
            and 0 <= indices[0]
            and indices[-1] < 1 << num_qubits
        ):
            raise ValidationError(
                "indices",
                f"must be one per tally, strictly increasing integers "
                f"within [0, 2^{num_qubits})",
            )
        self = cls.__new__(cls)
        self.arrays = indices, tallies
        self.shots = shots
        self.num_qubits = num_qubits
        return self

    @cached_property
    def counts(self) -> dict[str, int]:
        """Outcome label -> tally, in outcome order for a Counts from arrays."""
        indices, tallies = self.arrays
        return dict(zip(_bitstrings(indices, self.num_qubits), tallies.tolist()))

    def __getitem__(self, outcome: str) -> int:
        return self.counts[outcome]

    def __iter__(self) -> Iterator[str]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts) if "counts" in vars(self) else len(self.arrays[0])

    # The dict's own views: Mapping's would call __getitem__ per key.
    def keys(self):
        return self.counts.keys()

    def items(self):
        return self.counts.items()

    def values(self):
        return self.counts.values()

    def __eq__(self, other):
        if not isinstance(other, Counts):
            return NotImplemented
        return self.shots == other.shots and self.counts == other.counts

    def __repr__(self) -> str:
        return f"Counts({self.counts!r}, shots={self.shots})"


def _sorted_chunks(rng: np.random.Generator, shots: int) -> Iterator[np.ndarray]:
    """The uniforms of ``rng.random(shots)``, ``_CHUNK`` at a time, each chunk sorted.

    Every chunk is drawn into one buffer, so each overwrites the one before
    it and one chunk is alive at a time. PCG64 fills ``out`` with the same
    doubles that it would return.
    """
    buffer = np.empty(min(_CHUNK, shots))
    for start in range(0, shots, _CHUNK):
        uniforms = rng.random(out=buffer[: min(_CHUNK, shots - start)])
        uniforms.sort()
        yield uniforms


def _guide(cum: np.ndarray, total: float) -> np.ndarray:
    """The guide table of the running sum ``cum``: for each of its 2^n cells
    j, the number of entries of ``cum`` at or below ``j / 2^n · total``.

    A uniform u lies in cell ``floor(u · 2^n)``, and its target ``u · total``
    is at or above that cell's bound (the products by 2^n and j / 2^n are
    exact, and rounding is monotone), so the outcome :func:`_search` finds
    for u is at or past its cell's entry.
    """
    return np.searchsorted(cum, np.arange(len(cum)) / len(cum) * total, side="right")


def _sample_dense(cum: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The tallies of all 2^n outcomes over the uniforms of
    ``make_rng(seed).random(shots)``: the outcomes :func:`_search` finds.

    ``cum[-1]`` holds +inf while this runs, so no target passes the last
    outcome: the clamp :func:`_search` applies. The guide table
    (:func:`_guide`) gains a cell 2^n, the cell of a uniform of 1.0, whose
    entry is the last outcome, and ``edge`` holds the running sum at each
    cell's entry. A shot in cell c lands on the guide's entry for c unless
    its target is at or past ``edge[c]``: one lookup per shot. Shots are
    counted by cell, in ``per_cell``, and each block's late shots are moved
    to the outcomes a binary search places them at; ``per_cell`` is summed
    into the outcomes of the guide's entries once, at the end. The uniforms
    are drawn ``_SAMPLE_BLOCK`` at a time into one set of buffers, so memory
    is O(block + outcomes) however many shots are late. ``cum[-1]`` is
    restored before this returns.
    """
    size, total = len(cum), cum[-1]
    tally = np.zeros(size, dtype=np.int64)
    per_cell = np.zeros(size + 1, dtype=np.int64)
    cum[-1] = np.inf
    try:
        guide = np.append(_guide(cum, total), size - 1)
        edge = cum[guide]
        rng = make_rng(seed)
        length = min(_SAMPLE_BLOCK, shots)
        uniforms = np.empty(length)
        cells = np.empty(length, dtype=np.intp)
        edges = np.empty(length)
        at_or_past = np.empty(length, dtype=bool)
        for start in range(0, shots, _SAMPLE_BLOCK):
            k = min(_SAMPLE_BLOCK, shots - start)
            targets, cell = rng.random(out=uniforms[:k]), cells[:k]
            # The cast truncates u · 2^n, which is >= 0: its floor. Every
            # cell is in range, and "clip" writes straight to out.
            np.multiply(targets, size, out=cell, casting="unsafe")
            np.take(edge, cell, out=edges[:k], mode="clip")
            np.add.at(per_cell, cell, 1)
            targets *= total
            late = np.flatnonzero(np.less_equal(edges[:k], targets, out=at_or_past[:k]))
            np.subtract.at(per_cell, cell[late], 1)
            np.add.at(tally, np.searchsorted(cum, targets[late], side="right"), 1)
        np.add.at(tally, guide, per_cell)
    finally:
        cum[-1] = total
    return tally


def _running_sum(amps: np.ndarray) -> np.ndarray:
    """``np.cumsum(np.square(amps))``, bit for bit, written over ``amps``.

    The sum runs one 2^_BLOCK_QUBITS-amplitude block at a time, carrying the
    total so far into the block's first entry, so every entry is the sum of
    the one before it and its own square: the adds ``np.cumsum`` makes, in
    the same order. A block whose bits are all zero (every amplitude +0.0)
    is filled with the carry instead, since adding +0.0 to the carry, which
    is never below +0.0, gives the carry back. The test reads the bits, not
    :func:`evolve`'s live mask, which cannot see amplitudes cancel:
    Bernstein-Vazirani ends with two nonzero blocks and every slice live.
    For float64, ``np.square`` equals ``np.abs(a) ** 2`` bit for bit.
    """
    carry = 0.0
    for start in range(0, len(amps), 1 << _BLOCK_QUBITS):
        block = amps[start : start + (1 << _BLOCK_QUBITS)]
        bits = block.view(np.uint64)
        if bits[0] or bits.any():
            np.square(block, out=block)
            block[0] += carry
            np.cumsum(block, out=block)
        else:
            block.fill(carry)
        carry = block[-1]
    return amps


def run(circuit: Circuit, shots: int, seed: int) -> Counts:
    """Evolve from |0...0>, then sample ``shots`` measure-all outcomes.

    The evolved amplitudes are squared and summed in place, one block at a
    time, and a block of +0.0 is filled with the total so far
    (:func:`_running_sum`), so the state is the only array of its size.
    Equal (circuit, shots, seed) gives bit-identical Counts. They hold the
    outcome indices, ascending, and their tallies
    (:meth:`Counts.from_arrays`); the bitstring labels, sorted by outcome,
    are built on first Mapping access. Each shot's outcome is the one the
    search of its uniform in ``make_rng(seed).random(shots)`` finds
    (:func:`_search`). When the state has no more outcomes than the shots
    and ``_CHUNK``, each shot is looked up in a guide table and counted by
    its cell (:func:`_sample_dense`). Otherwise the uniforms are
    drawn ``_CHUNK`` at a time into one buffer, each chunk is sorted and
    searched (:func:`_search`), and :func:`_tally` merges each chunk's
    sorted outcomes, one shot each, into the sparse tally so far. Memory
    is O(chunk + outcomes) whatever the number of shots.
    """
    check_int("shots", shots, 1)
    check_int("seed", seed, 0, _SEED_MAX)
    cum = _running_sum(evolve(circuit).amplitudes)
    if len(cum) <= min(shots, _CHUNK):
        tally = _sample_dense(cum, shots, seed)
        values = np.flatnonzero(tally)
        counts = tally[values]
    else:
        values = counts = np.empty(0, dtype=np.int64)
        for uniforms in _sorted_chunks(make_rng(seed), shots):
            indices = _search(cum, uniforms)
            weights = np.concatenate((counts, np.ones(len(indices), dtype=np.int64)))
            values, counts = _tally(np.concatenate((values, indices)), weights)
    return Counts.from_arrays(values, counts, circuit.num_qubits, shots)
