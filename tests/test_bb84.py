import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from chi_square import chi_square_p_value
from qubitkit.algorithms import bb84
from qubitkit.algorithms.bb84 import (
    ABORTED,
    Axis,
    EveAction,
    KEY_TOO_SHORT,
    SECURE,
    encode_qubit,
    encode_state,
    intercept,
    measure_in_axis,
    render_trace,
    run_exchange,
    run_protocol,
    sift,
    verdict_probabilities,
    verify,
)
from qubitkit.backends import (
    BackendInfo,
    BackendRegistry,
    LOCAL_BACKEND_NAME,
    default_registry,
)
from qubitkit.errors import UnknownBackendError, ValidationError
from qubitkit.framework import run_algorithm
from qubitkit.sim import (
    Gate,
    Statevector,
    apply_gate,
    derive_seed,
    make_rng,
    sample_measurement,
)

INV_SQRT2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# Encoding (value-axis table)


def test_encoding_gates():
    assert [g.kind for g in encode_qubit(0, Axis.Z).gates] == []
    assert [g.kind for g in encode_qubit(0, Axis.X).gates] == ["H"]
    assert [g.kind for g in encode_qubit(1, Axis.Z).gates] == ["X"]
    assert [g.kind for g in encode_qubit(1, Axis.X).gates] == ["X", "H"]


def test_encoding_states_exact():
    cases = {
        (0, Axis.Z): [1, 0],
        (0, Axis.X): [INV_SQRT2, INV_SQRT2],
        (1, Axis.Z): [0, 1],
        (1, Axis.X): [INV_SQRT2, -INV_SQRT2],
    }
    for (value, axis), expected in cases.items():
        amps = encode_state(value, axis).amplitudes
        assert np.allclose(amps, expected, atol=1e-12), (value, axis)


# ---------------------------------------------------------------------------
# Axis measurement (batches: one qubit per amplitude row)


def batch(value, axis, rows):
    """``rows`` copies of one prepared qubit as a (rows, 2) batch."""
    return Statevector(1, np.tile(encode_state(value, axis).amplitudes, (rows, 1)))


def in_x(rows):
    return np.ones(rows, dtype=bool)


def in_z(rows):
    return np.zeros(rows, dtype=bool)


def test_measuring_eigenstate_is_deterministic():
    rng = make_rng(1)
    bits, _ = measure_in_axis(batch(1, Axis.Z, 100), in_z(100), rng)
    assert bits.tolist() == [1] * 100
    bits, _ = measure_in_axis(batch(1, Axis.X, 100), in_x(100), rng)
    assert bits.tolist() == [1] * 100


def test_measuring_in_wrong_axis_is_uniform():
    rng = make_rng(2)
    trials = 10_000
    bits, _ = measure_in_axis(batch(0, Axis.Z, trials), in_x(trials), rng)
    assert abs(bits.sum() / trials - 0.5) < 0.015


def test_collapse_state_matches_outcome():
    rng = make_rng(3)
    # |+> measured in Z and |0> measured in X: both outcomes are random.
    plus, zero = encode_state(0, Axis.X), encode_state(0, Axis.Z)
    states = Statevector(1, np.stack([plus.amplitudes, zero.amplitudes]))
    axes = np.array([False, True])
    bits, post = measure_in_axis(states, axes, rng)
    for row, (bit, axis) in enumerate(zip(bits.tolist(), (Axis.Z, Axis.X))):
        assert np.allclose(post.amplitudes[row], encode_state(bit, axis).amplitudes)
    # Re-measuring the collapsed states in the same axes repeats the bits.
    assert measure_in_axis(post, axes, rng)[0].tolist() == bits.tolist()


# ---------------------------------------------------------------------------
# Interception


def test_density_zero_never_touches():
    rng = make_rng(4)
    states = batch(1, Axis.X, 500)
    out, actions = intercept(states, 0.0, rng)
    assert actions == [None] * 500
    assert np.array_equal(out.amplitudes, states.amplitudes)


def test_density_one_always_measures_with_uniform_axis():
    rng = make_rng(5)
    trials = 10_000
    _, actions = intercept(batch(0, Axis.Z, trials), 1.0, rng)
    assert all(action is not None for action in actions)
    x_axis = sum(action.axis is Axis.X for action in actions)
    assert abs(x_axis / trials - 0.5) < 0.02


def test_wrong_axis_interception_randomizes_receiver():
    # Sender (0, Z), eavesdropper forced to X, receiver in Z: uniform bit.
    rng = make_rng(6)
    trials = 10_000
    _, resent = measure_in_axis(batch(0, Axis.Z, trials), in_x(trials), rng)
    bits, _ = measure_in_axis(resent, in_z(trials), rng)
    assert abs(bits.sum() / trials - 0.5) < 0.015


def test_intercept_actions_are_the_shared_collapses():
    rng = make_rng(9)
    states = batch(1, Axis.Z, 64)
    out, actions = intercept(states, 0.5, rng)
    for row, action in enumerate(actions):
        if action is None:
            assert np.array_equal(out.amplitudes[row], states.amplitudes[row])
        else:
            expected = encode_state(action.bit, action.axis).amplitudes
            assert np.array_equal(out.amplitudes[row], expected)
            # A Z-axis guess on |1> always reads 1.
            assert action.axis is Axis.X or action.bit == 1
    assert len({id(a) for a in actions if a is not None}) <= 4


def test_intercept_validates_density():
    for density in (1.5, -0.1):
        with pytest.raises(ValidationError, match="density"):
            intercept(batch(0, Axis.Z, 4), density, make_rng(0))


@pytest.mark.parametrize("density", ["0.5", None, True])
def test_exchange_rejects_non_numeric_density(density):
    # "0.5" used to raise a raw TypeError from the range comparison.
    with pytest.raises(ValidationError, match="density"):
        run_exchange(4, density, seed=1)


def test_intercept_accepts_numpy_and_integer_densities():
    states = batch(0, Axis.Z, 8)
    for density in (np.float64(0.5), np.float32(0.25), 0, 1):
        expected = intercept(states, float(density), make_rng(1))
        out, actions = intercept(states, density, make_rng(1))
        assert np.array_equal(out.amplitudes, expected[0].amplitudes)
        assert actions == expected[1]


LAYOUTS = {
    "complex": lambda amps: amps.astype(complex),
    "fortran": np.asfortranarray,
    "strided": lambda amps: np.repeat(amps, 2, axis=1)[:, ::2],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_channel_gives_equal_results_for_any_batch_layout_and_dtype(layout):
    # The prepared states and 32 random real qubits, as a C-ordered float
    # batch and as the same values in another dtype or memory layout.
    rng = np.random.default_rng(47)
    prepared = np.stack([encode_state(v, a).amplitudes for v in (0, 1) for a in Axis])
    mixed = rng.normal(size=(32, 2))
    mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
    amps = np.concatenate([prepared[rng.integers(4, size=32)], mixed])
    other = LAYOUTS[layout](amps)
    assert np.array_equal(other, amps)
    assert other.flags.c_contiguous == (layout == "complex")
    x_rows = rng.random(len(amps)) >= 0.5

    def as_float(states):
        got = states.amplitudes
        assert not np.iscomplexobj(got) or not got.imag.any()
        return np.ascontiguousarray(got.real).tobytes()

    bits, collapsed = measure_in_axis(Statevector(1, amps), x_rows, make_rng(5))
    other_bits, other_collapsed = measure_in_axis(Statevector(1, other), x_rows, make_rng(5))
    assert other_bits.tolist() == bits.tolist()
    assert as_float(other_collapsed) == as_float(collapsed)

    forwarded, actions = intercept(Statevector(1, amps), 0.5, make_rng(6))
    other_forwarded, other_actions = intercept(Statevector(1, other), 0.5, make_rng(6))
    assert other_actions == actions
    assert 0 < sum(a is not None for a in actions) < len(amps)
    assert other_forwarded.amplitudes.dtype == other.dtype
    assert as_float(other_forwarded) == as_float(forwarded)


# ---------------------------------------------------------------------------
# Reference: the channel one qubit at a time, on single-register states


def measure_one(state, axis, rng):
    probe = apply_gate(state, Gate("H", (0,))) if axis is Axis.X else state
    bit = sample_measurement(probe, rng)
    return bit, encode_state(bit, axis)


def reference_exchange(m, density, seed):
    """(sender bits, sender axes, eve actions, receiver axes, receiver bits).

    Draws follow the documented order: sender bits then axes; receiver
    axes then one collapse per qubit; eavesdropper decisions for all m,
    then axes for the qubits hit, then their collapses.
    """
    sender, eve, receiver = map(make_rng, np.random.SeedSequence(seed).spawn(3))
    bits = [int(u < 0.5) for u in sender.random(m)]
    sender_axes = [Axis.X if u >= 0.5 else Axis.Z for u in sender.random(m)]
    receiver_axes = [Axis.X if u >= 0.5 else Axis.Z for u in receiver.random(m)]
    hit = [u < density for u in eve.random(m)]
    eve_axes = iter([Axis.X if u >= 0.5 else Axis.Z for u in eve.random(sum(hit))])
    actions, received = [], []
    for i in range(m):
        state, action = encode_state(bits[i], sender_axes[i]), None
        if hit[i]:
            axis = next(eve_axes)
            bit, state = measure_one(state, axis, eve)
            action = EveAction(axis, bit)
        actions.append(action)
        received.append(measure_one(state, receiver_axes[i], receiver)[0])
    return bits, sender_axes, actions, receiver_axes, received


@pytest.mark.parametrize("m, density", [(1, 1.0), (7, 0.5), (64, 0.25), (200, 0.9)])
def test_batched_exchange_equals_per_qubit_reference(m, density):
    for seed in range(10):
        trace = run_exchange(m, density, seed=seed, compare_mode="full")
        fields = (
            trace.sender_bits,
            trace.sender_axes,
            trace.eve_actions,
            trace.receiver_axes,
            trace.receiver_bits,
        )
        assert [list(f) for f in fields] == list(reference_exchange(m, density, seed))


# ---------------------------------------------------------------------------
# Sifting and verification


def test_sift_examples():
    z, x = Axis.Z, Axis.X
    assert sift([z, x, z], [z, z, z]) == [0, 2]
    assert sift([z, x, x], [z, x, x]) == [0, 1, 2]
    with pytest.raises(ValueError):
        sift([z], [z, z])


def test_sift_retention_rate():
    rng = make_rng(7)
    m = 10_000
    axes_a = [Axis.Z if u < 0.5 else Axis.X for u in rng.random(m)]
    axes_b = [Axis.Z if u < 0.5 else Axis.X for u in rng.random(m)]
    kept = sift(axes_a, axes_b)
    assert kept == [i for i, (a, b) in enumerate(zip(axes_a, axes_b)) if a is b]
    assert abs(len(kept) / m - 0.5) < 0.015


def test_sift_and_verify_agree_on_lists_and_arrays():
    rng = make_rng(10)
    sender_x, receiver_x = rng.random(64) >= 0.5, rng.random(64) >= 0.5
    axes = [np.where(flags, Axis.X, Axis.Z).tolist() for flags in (sender_x, receiver_x)]
    kept = sift(sender_x, receiver_x)
    assert kept == sift(*axes) == sift(sender_x.tolist(), receiver_x.tolist())
    sent = rng.integers(0, 2, 64)
    received = sent.copy()
    received[kept[-1]] ^= 1  # an error in the unpublished half only
    for mode in ("half", "full"):
        from_arrays = verify(sent[kept], received[kept], compare_mode=mode)
        from_lists = verify(
            [int(sent[p]) for p in kept],
            [int(received[p]) for p in kept],
            compare_mode=mode,
        )
        assert from_arrays == from_lists
        assert all(type(bit) is int for bit in from_arrays[2])
    assert verify(sent[kept], received[kept])[0] == SECURE
    assert verify(sent[kept], received[kept], compare_mode="full")[0] == ABORTED


def test_verify_secure_keeps_second_half():
    verdict, published, remaining = verify([1, 0, 1, 1, 0], [1, 0, 1, 1, 0])
    assert verdict == SECURE
    assert published == 3  # first ceil(5/2) positions
    assert remaining == (1, 0)


def test_verify_aborts_on_published_mismatch():
    verdict, _, _ = verify([1, 0, 1, 1], [0, 0, 1, 1])
    assert verdict == ABORTED


def test_verify_ignores_mismatch_outside_published_half():
    verdict, _, remaining = verify([1, 0, 1, 1], [1, 0, 1, 0])
    assert verdict == SECURE
    assert remaining == (1, 0)


def test_verify_key_too_short():
    # Too short to publish from is a verdict, the same one run_exchange reports.
    assert verify([], []) == (KEY_TOO_SHORT, 0, ())
    assert verify([1], [1]) == (KEY_TOO_SHORT, 0, ())
    assert verify([], [], compare_mode="full") == (KEY_TOO_SHORT, 0, ())
    # Full publication works from one bit up.
    verdict, published, remaining = verify([1], [1], compare_mode="full")
    assert verdict == SECURE and published == 1 and remaining == ()


# ---------------------------------------------------------------------------
# The verdict law (closed form and Monte Carlo)


@pytest.mark.parametrize("compare_mode", ["half", "full"])
def test_verdict_sweep_matches_the_exact_law(compare_mode):
    # The eavesdropper heatmap as an oracle: one three-way chi-square over
    # every (m, d) cell, d = 0 (no eavesdropper) included, each cell's runs
    # seeded by derive_seed(master, i, j, r). Half compare publishes ceil(L/2)
    # of the L sifted bits and needs two, so it aborts less often than full
    # compare, and short keys are common at small m (5/16 at m = 4).
    master, cells = 2209, []
    for i, m in enumerate((4, 8, 16, 32)):
        for j, density in enumerate((0.0, 0.25, 0.5, 1.0)):
            verdicts = [
                run_exchange(
                    m, density, seed=derive_seed(master, i, j, r), compare_mode=compare_mode
                ).verdict
                for r in range(200)
            ]
            cells.append((verdicts, verdict_probabilities(m, density, compare_mode)))
    assert chi_square_p_value(cells) > 1e-3


@pytest.mark.parametrize("compare_mode", ["half", "full"])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_verdict_probabilities_match_verify_over_every_sifting_pattern(density, compare_mode):
    # Each qubit is discarded (1/2), sifted and right, or sifted and wrong
    # (d/8): the law, summed over all 3^m patterns, with verify's verdicts.
    for m in range(6):
        exact = dict.fromkeys((SECURE, ABORTED, KEY_TOO_SHORT), 0.0)
        for pattern in itertools.product((None, 0, 1), repeat=m):
            chance = math.prod(
                0.5 if e is None else density / 8 if e else 0.5 - density / 8 for e in pattern
            )
            wrong = [e for e in pattern if e is not None]
            exact[verify([0] * len(wrong), wrong, compare_mode)[0]] += chance
        law = verdict_probabilities(m, density, compare_mode)
        assert law == pytest.approx(exact, abs=1e-15), m
        if compare_mode == "full":
            assert law[ABORTED] == pytest.approx(1 - (1 - density / 8) ** m, abs=1e-15)


def sum_over_sifted_lengths(m, density, compare_mode):
    """Reference law: each sifted length L's binomial weight, from exact
    integers, times the chance that its published bits are all right (or
    not, without cancelling at small densities)."""
    law = dict.fromkeys((SECURE, ABORTED, KEY_TOO_SHORT), 0.0)
    for length in range(m + 1):
        weight = math.comb(m, length) / 2**m
        if length < (2 if compare_mode == "half" else 1):
            law[KEY_TOO_SHORT] += weight
            continue
        published = math.ceil(length / 2) if compare_mode == "half" else length
        log_secure = published * math.log1p(-density / 4)
        law[SECURE] += weight * math.exp(log_secure)
        law[ABORTED] += weight * -math.expm1(log_secure)
    return law


@pytest.mark.parametrize("compare_mode", ["half", "full"])
@pytest.mark.parametrize("density", [0.0, 1e-9, 0.3, 1.0])
def test_verdict_probabilities_closed_forms_match_the_sum_over_sifted_lengths(
    density, compare_mode
):
    # Past the enumeration's reach, up to a length where the key is almost
    # never secure (about 1e-30 at m = 1000 and density 1, half compare),
    # and at a density where an abort is rare (about 1e-10).
    for m in (2, 7, 16, 64, 1000):
        law = verdict_probabilities(m, density, compare_mode)
        assert law == pytest.approx(sum_over_sifted_lengths(m, density, compare_mode), rel=1e-9)
        assert all(p >= 0 for p in law.values())
    if (density, compare_mode) == (1.0, "full"):
        # 16 qubits, every one intercepted: 1 - (7/8)^16.
        assert verdict_probabilities(16, 1.0, "full")[ABORTED] == pytest.approx(0.8819, abs=5e-4)


# ---------------------------------------------------------------------------
# Table 2 case statistics


def test_interception_case_mix_and_disturbance():
    trace = run_exchange(100_000, 1.0, default_registry(), seed=8)
    tallies = {case: 0 for case in ("ss", "sd", "ds", "dd")}
    disturbed = same_axis_eve_wrong = 0
    for i in range(trace.transmitted_count):
        ab_same = trace.sender_axes[i] is trace.receiver_axes[i]
        eve_same = trace.eve_actions[i].axis is trace.sender_axes[i]
        tallies[("s" if ab_same else "d") + ("s" if eve_same else "d")] += 1
        if ab_same and not eve_same:
            same_axis_eve_wrong += 1
            disturbed += trace.receiver_bits[i] != trace.sender_bits[i]
    m = trace.transmitted_count
    for case, count in tallies.items():
        assert abs(count / m - 0.25) < 0.01, case
    assert abs(disturbed / same_axis_eve_wrong - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Full protocol


def test_density_zero_is_always_secure_and_faithful():
    message = tuple(int(b) for b in "110100101")
    for seed in range(40):
        trace = run_protocol(message, 0.0, seed=seed)
        assert trace.verdict == SECURE
        assert trace.decrypted == message
        assert trace.round_trip_ok
        # No adversary: sifted bits agree everywhere, never just on the half.
        for p in trace.sifted_positions:
            assert trace.sender_bits[p] == trace.receiver_bits[p]


def test_fixed_seed_gives_bit_identical_trace():
    message = (1, 0, 1, 1)
    a = run_protocol(message, 0.7, seed=99)
    b = run_protocol(message, 0.7, seed=99)
    assert a == b


def test_trace_structural_invariants():
    for seed in range(30):
        trace = run_protocol((1, 0, 1), 0.8, seed=seed)
        m = trace.transmitted_count
        assert m == 6 * 3 * 1 or trace.attempts > 1 or m == 18
        assert all(0 <= p < m for p in trace.sifted_positions)
        assert set(trace.published_positions) <= set(trace.sifted_positions)
        published = set(trace.published_positions)
        unpublished = [p for p in trace.sifted_positions if p not in published]
        if trace.verdict == SECURE:
            assert trace.shared_key == tuple(
                trace.receiver_bits[p] for p in unpublished
            )
        if trace.verdict == ABORTED:
            assert any(
                trace.sender_bits[p] != trace.receiver_bits[p]
                for p in trace.published_positions
            )
            assert trace.shared_key is None


def test_published_positions_are_the_sifted_positions_own_ints():
    # One set of position ints serves both tuples; a second conversion
    # would hold a copy of each published int for the trace's lifetime.
    trace = run_exchange(4096, 1.0, seed=12, compare_mode="full")
    published = trace.published_positions
    assert len(published) == len(trace.sifted_positions) > 256
    assert all(published[i] is trace.sifted_positions[i] for i in range(len(published)))


def test_key_shortfall_exhausts_retries(monkeypatch):
    # One transmitted qubit can never sift two positions, whatever the seed.
    monkeypatch.setattr(bb84, "_OVERSAMPLE", 1)
    monkeypatch.setattr(bb84, "_MAX_ROUNDS", 4)
    trace = run_protocol((1,), 0.0, seed=5)
    assert trace.verdict == KEY_TOO_SHORT
    assert trace.attempts == 4
    assert trace.shared_key is None
    # Four qubits never leave four key bits after publication; at this seed
    # the last round verifies, and its too-short key is not reported.
    trace = run_protocol((1, 0, 1, 1), 0.0, seed=0)
    assert trace.verdict == KEY_TOO_SHORT and trace.attempts == 4
    assert trace.published_positions and trace.shared_key is None


def test_protocol_validates_inputs():
    with pytest.raises(ValidationError, match="message"):
        run_protocol((), 0.5, seed=1)
    with pytest.raises(ValidationError, match="message"):
        run_protocol((0, 2), 0.5, seed=1)
    with pytest.raises(ValidationError, match="density"):
        run_protocol((1,), 1.2, seed=1)
    with pytest.raises(ValidationError, match="transmitted"):
        run_exchange(0, 0.5, seed=1)
    with pytest.raises(ValidationError, match="compare_mode"):
        run_exchange(4, 0.5, seed=1, compare_mode="most")


@pytest.mark.parametrize("transmitted", [2.5, True, "4", None])
def test_exchange_rejects_non_integer_transmitted(transmitted):
    # Unvalidated, floats and bools reached numpy and raised a TypeError.
    with pytest.raises(ValidationError, match="transmitted"):
        run_exchange(transmitted, 0.5, seed=1)


@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**70, True, 1.5])
def test_exchange_and_protocol_reject_bad_seeds(seed):
    # Same [0, 2^64) contract as sim.run; negatives used to surface as
    # numpy's ValueError and 2^70 was silently accepted.
    with pytest.raises(ValidationError, match="seed"):
        run_exchange(4, 0.5, seed=seed)
    with pytest.raises(ValidationError, match="seed"):
        run_protocol((1,), 0.5, seed=seed)


@pytest.mark.parametrize("bits", [[1, 0, 1.7], [1, True], ["1", "0"], 5, None])
def test_protocol_rejects_non_bit_message(bits):
    # 1.7 used to be truncated to 1 without a word; 5 and None, which are
    # not iterable, raised a TypeError.
    with pytest.raises(ValidationError, match="message"):
        run_protocol(bits, 0.5, seed=1)


def test_verify_rejects_unknown_compare_mode():
    # A misspelt mode used to fall through to a full comparison.
    with pytest.raises(ValidationError, match="compare_mode"):
        verify([1], [0], compare_mode="halF")
    with pytest.raises(ValidationError, match="compare_mode"):
        verify([1, 1], [1, 1], compare_mode="all")


def test_protocol_accepts_numpy_bits_and_seed():
    message = np.array([1, 0, 1])
    trace = run_protocol(message, 0.0, seed=np.uint64(2**64 - 1))
    assert trace.message_bits == (1, 0, 1)
    assert trace == run_protocol((1, 0, 1), 0.0, seed=2**64 - 1)


def test_aborted_protocol_is_its_first_exchange():
    # A round that aborts is returned as built, with only the protocol's
    # own fields filled in.
    message = (1, 0, 1, 1)
    seeds = [s for s in range(20) if run_exchange(24, 1.0, seed=s).verdict == ABORTED]
    assert len(seeds) >= 5
    for s in seeds[:5]:
        expected = replace(run_exchange(24, 1.0, seed=s), attempts=1, message_bits=message)
        assert run_protocol(message, 1.0, seed=s) == expected


def protocol_law(k, density):
    """The law of ``run_protocol``'s (verdict, attempts, round trip ok) for a
    k-bit message.

    A round sends m = 6k qubits and sifts L ~ Binomial(m, 1/2) of them. It
    aborts when one of its ceil(L/2) published bits (L >= 2) is wrong, each
    with chance d/4, and ends secure when none is and its floor(L/2) key bits
    cover the message; otherwise it is retried, up to 10 rounds, after which
    the verdict is key_too_short. A secure run's round trip is a MISMATCH
    when one of the k key bits it pads with is wrong: 1 - (1 - d/4)^k.
    """
    m, right = 6 * k, 1 - density / 4
    aborted = secure = 0.0
    for length in range(2, m + 1):
        weight = math.comb(m, length) / 2**m
        passed = right ** math.ceil(length / 2)
        aborted += weight * (1 - passed)
        secure += weight * passed * (length // 2 >= k)
    retry = 1 - aborted - secure
    law = {(KEY_TOO_SHORT, 10, False): retry**10}
    for attempt in range(1, 11):
        reach = retry ** (attempt - 1)
        law[ABORTED, attempt, False] = reach * aborted
        law[SECURE, attempt, True] = reach * secure * right**k
        law[SECURE, attempt, False] = reach * secure * (1 - right**k)
    return law


def test_protocol_attempts_and_round_trips_match_the_exact_law():
    # One chi-square over messages of 1, 2 and 4 bits and densities 1/2 and
    # 1: the verdict, the number of rounds, and the undetected interceptions
    # that leave a secure run's round trip a MISMATCH.
    master, cells = 1110, []
    for i, k in enumerate((1, 2, 4)):
        for j, density in enumerate((0.5, 1.0)):
            traces = [
                run_protocol((1, 0, 1, 1)[:k], density, seed=derive_seed(master, i, j, r))
                for r in range(300)
            ]
            outcomes = [(t.verdict, t.attempts, t.round_trip_ok) for t in traces]
            cells.append((outcomes, protocol_law(k, density)))
    assert chi_square_p_value(cells) > 1e-3


def test_render_trace_layout():
    trace = run_protocol(tuple(int(b) for b in "1011"), 0.0, seed=3)
    text = render_trace(trace)
    lines = text.splitlines()
    assert lines[0].split() == ["#", "sent", "axis", "eve", "axis", "recv", "fate"]
    assert sum("published" in line for line in lines) >= 1
    assert f"verdict: {SECURE}" in text
    assert "round trip: ok" in text
    assert f"seed: {trace.seed}" in text


# ---------------------------------------------------------------------------
# Backend use: BB84 prepares its own states and only looks the name up


class _RaisingBackend:
    info = BackendInfo(LOCAL_BACKEND_NAME, "fails if BB84 calls it", 1)

    def run(self, circuit, shots, seed):
        raise AssertionError("BB84 ran a circuit on the backend")

    def evolve(self, circuit):
        raise AssertionError("BB84 evolved a circuit on the backend")


def test_exchange_never_calls_the_backend():
    stub = BackendRegistry()
    stub.register(_RaisingBackend())
    for seed in (0, 1, 17, 2**63):
        trace = run_exchange(64, 0.5, stub, seed=seed, compare_mode="full")
        assert trace == run_exchange(64, 0.5, seed=seed, compare_mode="full")


def test_unknown_backend_name_raises():
    backends = default_registry()
    params = {"message": "hi", "density": 0.5}
    with pytest.raises(UnknownBackendError, match="nope"):
        run_exchange(8, 0.5, backends, "nope", seed=1)
    with pytest.raises(UnknownBackendError, match="nope"):
        run_algorithm(bb84.descriptor(), params, backends, "nope", 1, 1)


# ---------------------------------------------------------------------------
# Framework integration


def test_descriptor_single_run_counts_verdict():
    run = run_algorithm(
        bb84.descriptor(),
        {"message": "hi", "density": 0.0},
        default_registry(),
        "local_statevector",
        1,
        21,
    )
    text, counts = run.text, run.counts
    assert counts.shots == 1 and dict(counts) == {SECURE: 1}
    assert "decrypted text: 'hi'" in text


def test_descriptor_multi_run_tallies_verdicts():
    run = run_algorithm(
        bb84.descriptor(),
        {"message": "a", "density": 1.0},
        default_registry(),
        "local_statevector",
        30,
        22,
    )
    text, counts = run.text, run.counts
    assert counts.shots == 30
    assert sum(counts.values()) == 30
    assert set(counts) <= {SECURE, ABORTED, KEY_TOO_SHORT}
    assert "verdicts over 30 runs" in text
