import math

import numpy as np
import pytest

from qubitkit.algorithms import bb84
from qubitkit.algorithms.bb84 import (
    ABORTED,
    Axis,
    Bb84Config,
    ChannelPolicy,
    KEY_TOO_SHORT,
    SECURE,
    abort_probability,
    encode_qubit,
    encode_state,
    intercept,
    measure_in_axis,
    render_trace,
    run_exchange,
    run_protocol,
    sift,
    verify,
)
from qubitkit.backends import default_registry
from qubitkit.errors import KeyTooShortError, ValidationError
from qubitkit.sim import make_rng

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
# Axis measurement


def test_measuring_eigenstate_is_deterministic():
    rng = make_rng(1)
    one = encode_state(1, Axis.Z)
    assert all(measure_in_axis(one, Axis.Z, rng)[0] == 1 for _ in range(100))
    minus = encode_state(1, Axis.X)
    assert all(measure_in_axis(minus, Axis.X, rng)[0] == 1 for _ in range(100))


def test_measuring_in_wrong_axis_is_uniform():
    rng = make_rng(2)
    zero = encode_state(0, Axis.Z)
    trials = 10_000
    ones = sum(measure_in_axis(zero, Axis.X, rng)[0] for _ in range(trials))
    assert abs(ones / trials - 0.5) < 0.015


def test_collapse_state_matches_outcome():
    rng = make_rng(3)
    plus = encode_state(0, Axis.X)
    bit, post = measure_in_axis(plus, Axis.Z, rng)
    assert np.allclose(post.amplitudes, encode_state(bit, Axis.Z).amplitudes)
    # Re-measuring the collapsed state in the same axis repeats the bit.
    assert measure_in_axis(post, Axis.Z, rng)[0] == bit


# ---------------------------------------------------------------------------
# Interception


def test_density_zero_never_touches():
    rng = make_rng(4)
    state = encode_state(1, Axis.X)
    policy = ChannelPolicy(0.0)
    for _ in range(500):
        out, action = intercept(state, policy, rng)
        assert action is None
        assert out is state


def test_density_one_always_measures_with_uniform_axis():
    rng = make_rng(5)
    state = encode_state(0, Axis.Z)
    policy = ChannelPolicy(1.0)
    trials = 10_000
    x_axis = 0
    for _ in range(trials):
        _, action = intercept(state, policy, rng)
        assert action is not None
        x_axis += action.axis is Axis.X
    assert abs(x_axis / trials - 0.5) < 0.02


def test_wrong_axis_interception_randomizes_receiver():
    # Sender (0, Z), eavesdropper forced to X, receiver in Z: uniform bit.
    rng = make_rng(6)
    trials = 10_000
    ones = 0
    for _ in range(trials):
        _, resent = measure_in_axis(encode_state(0, Axis.Z), Axis.X, rng)
        ones += measure_in_axis(resent, Axis.Z, rng)[0]
    assert abs(ones / trials - 0.5) < 0.015


def test_policy_validates_density():
    with pytest.raises(ValidationError, match="density"):
        ChannelPolicy(1.5)
    with pytest.raises(ValidationError, match="density"):
        ChannelPolicy(-0.1)


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
    assert abs(len(sift(axes_a, axes_b)) / m - 0.5) < 0.015


def test_verify_secure_keeps_second_half():
    verdict, published, remaining = verify([1, 0, 1, 1, 0], [1, 0, 1, 1, 0])
    assert verdict == SECURE
    assert published == [0, 1, 2]  # first ceil(5/2) positions
    assert remaining == (1, 0)


def test_verify_aborts_on_published_mismatch():
    verdict, _, _ = verify([1, 0, 1, 1], [0, 0, 1, 1])
    assert verdict == ABORTED


def test_verify_ignores_mismatch_outside_published_half():
    verdict, _, remaining = verify([1, 0, 1, 1], [1, 0, 1, 0])
    assert verdict == SECURE
    assert remaining == (1, 0)


def test_verify_key_too_short():
    with pytest.raises(KeyTooShortError):
        verify([1], [1])
    # Full publication works from one bit up.
    verdict, published, remaining = verify([1], [1], compare_mode="full")
    assert verdict == SECURE and published == [0] and remaining == ()


# ---------------------------------------------------------------------------
# Abort probability (closed form and Monte Carlo)


def test_abort_probability_values():
    assert abs(abort_probability(1, 1.0) - 0.125) < 1e-15
    assert abort_probability(0, 0.7) == 0.0
    assert abs(abort_probability(16, 1.0) - (1 - (7 / 8) ** 16)) < 1e-15
    assert abs(abort_probability(16, 1.0) - 0.8819) < 5e-4


def test_full_comparison_abort_rate_matches_formula():
    backends = default_registry()
    runs = 400
    for m in (8, 16):
        aborts = sum(
            run_exchange(m, 1.0, backends, seed=s, compare_mode="full").verdict
            == ABORTED
            for s in range(runs)
        )
        expected = abort_probability(m, 1.0)
        sigma = math.sqrt(expected * (1 - expected) / runs)
        assert abs(aborts / runs - expected) < 3 * sigma, m


def test_full_comparison_abort_rate_at_intermediate_density():
    backends = default_registry()
    runs = 600
    m, density = 8, 0.5
    aborts = sum(
        run_exchange(m, density, backends, seed=1000 + s, compare_mode="full").verdict
        == ABORTED
        for s in range(runs)
    )
    expected = abort_probability(m, density)
    sigma = math.sqrt(expected * (1 - expected) / runs)
    assert abs(aborts / runs - expected) < 3 * sigma


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
    backends = default_registry()
    message = tuple(int(b) for b in "110100101")
    for seed in range(40):
        trace = run_protocol(message, 0.0, backends, seed=seed)
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
    backends = default_registry()
    for seed in range(30):
        trace = run_protocol((1, 0, 1), 0.8, backends, seed=seed)
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


def test_key_shortfall_exhausts_retries():
    # One transmitted qubit can never sift two positions, whatever the seed.
    config = Bb84Config(oversample_factor=1, max_retries=4)
    trace = run_protocol((1,), 0.0, seed=5, config=config)
    assert trace.verdict == KEY_TOO_SHORT
    assert trace.attempts == 4
    assert trace.shared_key is None


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


@pytest.mark.parametrize("bits", [[1, 0, 1.7], [1, True], ["1", "0"]])
def test_protocol_rejects_non_bit_message(bits):
    # 1.7 used to be truncated to 1 without a word.
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


@pytest.mark.parametrize("field", ["oversample_factor", "max_retries"])
@pytest.mark.parametrize("value", [0, -2, True, 2.0, "3", None])
def test_config_rejects_bad_counts(field, value):
    # Unvalidated, run_protocol crashed with AttributeError at max_retries=0
    # and reported key_too_short without sending a qubit at oversample_factor=0.
    with pytest.raises(ValidationError, match=field):
        Bb84Config(**{field: value})


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
# Framework integration


def test_descriptor_single_run_counts_verdict():
    descriptor = bb84.descriptor()
    text, counts = descriptor.runner(
        {"message": "hi", "density": 0.0}, default_registry(), "local_statevector", 1, 21
    )
    assert counts.shots == 1 and dict(counts) == {SECURE: 1}
    assert "decrypted text: 'hi'" in text


def test_descriptor_multi_run_tallies_verdicts():
    descriptor = bb84.descriptor()
    text, counts = descriptor.runner(
        {"message": "a", "density": 1.0}, default_registry(), "local_statevector", 30, 22
    )
    assert counts.shots == 30
    assert sum(counts.values()) == 30
    assert set(counts) <= {SECURE, ABORTED, KEY_TOO_SHORT}
    assert "verdicts over 30 runs" in text
