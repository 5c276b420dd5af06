import pytest

from qubitkit.algorithms import default_algorithms
from qubitkit.backends import LOCAL_BACKEND_NAME, default_registry
from qubitkit.errors import ValidationError
from qubitkit.framework import (
    AlgorithmDescriptor,
    AlgorithmRegistry,
    ParamSpec,
    format_params,
    parse_params,
    run_algorithm,
)
from qubitkit.sim import QUBIT_CAP, Circuit


DEFAULT_RAW = {"qrand": ["3"], "bernstein-vazirani": ["101"], "bb84": ["hi", "0.5"]}


def dummy_descriptor():
    return AlgorithmDescriptor(
        name="coin",
        description="single Hadamard coin flip",
        param_specs=[ParamSpec("flips", "natural_number", max_value=8)],
        build=lambda params: Circuit(params["flips"]).h(0).measure_all(),
        interpret=lambda params, counts: f"coin says {max(counts, key=counts.get)}",
        explain="heads or tails",
    )


def test_shipped_registry_has_exactly_three_algorithms():
    names = {name for name, _ in default_algorithms().list_algorithms()}
    assert names == {"qrand", "bernstein-vazirani", "bb84"}


def test_registering_a_fourth_algorithm():
    registry = default_algorithms()
    registry.register(dummy_descriptor())
    assert len(registry.list_algorithms()) == 4


def test_duplicate_algorithm_rejected():
    registry = default_algorithms()
    with pytest.raises(ValueError):
        registry.register(default_algorithms().get("qrand"))


def test_unknown_algorithm_lookup():
    with pytest.raises(ValueError, match="no algorithm named"):
        default_algorithms().get("grover")


def test_parse_qrand_n():
    descriptor = default_algorithms().get("qrand")
    assert parse_params(descriptor, ["8"]) == {"n": 8}


@pytest.mark.parametrize("raw", ["²", "٣"])
def test_parse_natural_rejects_non_ascii_digits(raw):
    # str.isdigit() accepts both; int() fails on the first, reads 3 from the second.
    spec = default_algorithms().get("qrand").param_specs[0]
    with pytest.raises(ValidationError, match="natural number") as excinfo:
        spec.parse(raw)
    assert excinfo.value.param == "n"


def test_parse_natural_strips_surrounding_spaces():
    assert default_algorithms().get("qrand").param_specs[0].parse(" 3 ") == 3


def test_parse_rejects_non_bitstring_key():
    descriptor = default_algorithms().get("bernstein-vazirani")
    with pytest.raises(ValidationError, match="key"):
        parse_params(descriptor, ["01a"])


def test_parse_rejects_out_of_range_density():
    descriptor = default_algorithms().get("bb84")
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        parse_params(descriptor, ["hello", "1.5"])


@pytest.mark.parametrize(
    "name, raw, param",
    [
        ("qrand", ["0"], "n"),
        ("qrand", [str(QUBIT_CAP + 1)], "n"),
        ("bernstein-vazirani", [""], "key"),
        ("bernstein-vazirani", ["1" * QUBIT_CAP], "key"),
        ("bb84", ["", "0.5"], "message"),
        ("bb84", ["hi", "1.5"], "density"),
    ],
)
def test_every_shipped_parameter_rejects_its_bounds(name, raw, param):
    with pytest.raises(ValidationError) as excinfo:
        parse_params(default_algorithms().get(name), raw)
    assert excinfo.value.param == param


@pytest.mark.parametrize("raw", ["٠.٥", "１", "0.2_5", "1_0e-1"])
def test_parse_probability_rejects_non_ascii_digits_and_underscores(raw):
    # float() reads these as 0.5, 1.0, 0.25 and 1.0.
    spec = default_algorithms().get("bb84").param_specs[1]
    with pytest.raises(ValidationError, match="expected a probability") as excinfo:
        spec.parse(raw)
    assert excinfo.value.param == "density"


@pytest.mark.parametrize("raw, value", [(" 0.5 ", 0.5), ("1e-1", 0.1), ("1", 1.0), ("0", 0.0)])
def test_parse_probability_reads_ascii_decimals(raw, value):
    assert default_algorithms().get("bb84").param_specs[1].parse(raw) == value


def test_parse_rejects_wrong_arity():
    descriptor = default_algorithms().get("qrand")
    with pytest.raises(ValidationError):
        parse_params(descriptor, [])


def test_parse_format_round_trip():
    registry = default_algorithms()
    cases = {
        "qrand": ["12"],
        "bernstein-vazirani": ["100101"],
        "bb84": ["hello world", "0.35"],
    }
    for name, raw in cases.items():
        descriptor = registry.get(name)
        params = parse_params(descriptor, raw)
        again = parse_params(descriptor, format_params(descriptor, params))
        assert again == params


def test_run_once_is_deterministic_end_to_end():
    registry = default_algorithms()
    backends = default_registry()
    descriptor = registry.get("qrand")
    params = parse_params(descriptor, ["5"])
    runs = [
        run_algorithm(descriptor, params, backends, LOCAL_BACKEND_NAME, 1, seed=123)
        for _ in range(2)
    ]
    assert runs[0].text == runs[1].text
    assert runs[0].counts == runs[1].counts


def test_multi_shot_returns_counts_alongside_text():
    registry = default_algorithms()
    descriptor = registry.get("qrand")
    result = run_algorithm(
        descriptor,
        parse_params(descriptor, ["2"]),
        default_registry(),
        LOCAL_BACKEND_NAME,
        shots=1000,
        seed=7,
    )
    assert result.counts.shots == 1000
    assert set(result.counts) == {"00", "01", "10", "11"}
    assert result.text


def test_extension_needs_no_framework_changes():
    # A new algorithm goes through registration and run_algorithm untouched.
    registry = AlgorithmRegistry()
    registry.register(dummy_descriptor())
    descriptor = registry.get("coin")
    params = parse_params(descriptor, ["2"])
    result = run_algorithm(
        descriptor, params, default_registry(), LOCAL_BACKEND_NAME, 5, seed=9
    )
    assert result.text.startswith("coin says")
    assert result.counts.shots == 5


@pytest.mark.parametrize(
    "name, raw, shots",
    [
        ("qrand", ["3"], 50),
        ("bernstein-vazirani", ["101"], 1),
        ("bb84", ["hi", "0.5"], 3),
    ],
)
def test_returned_seed_replays_the_run(name, raw, shots):
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, raw)
    backends = default_registry()
    first = run_algorithm(descriptor, params, backends, LOCAL_BACKEND_NAME, shots)
    again = run_algorithm(
        descriptor, params, backends, LOCAL_BACKEND_NAME, shots, seed=first.seed
    )
    assert again.seed == first.seed
    assert again.text == first.text
    assert again.counts == first.counts


@pytest.mark.parametrize("name", ["qrand", "bernstein-vazirani", "bb84"])
@pytest.mark.parametrize("shots", [0, -2, True, 2.5])
def test_run_algorithm_rejects_bad_shots_for_every_descriptor(name, shots):
    # BB84's runner used to report "verdicts over 0 runs" at shots=0, run
    # once at shots=True and fail inside Counts at shots=-2.
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, DEFAULT_RAW[name])
    with pytest.raises(ValidationError, match="shots"):
        run_algorithm(
            descriptor, params, default_registry(), LOCAL_BACKEND_NAME, shots, seed=1
        )


@pytest.mark.parametrize("name", ["qrand", "bernstein-vazirani", "bb84"])
@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_run_algorithm_rejects_bad_seed_for_every_descriptor(name, seed):
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, DEFAULT_RAW[name])
    with pytest.raises(ValidationError, match="seed"):
        run_algorithm(
            descriptor, params, default_registry(), LOCAL_BACKEND_NAME, 1, seed=seed
        )
