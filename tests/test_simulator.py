"""State-vector backend, checked against independently built operators.

The frozen gate matrices below are typed out from the standard definitions,
not imported from the implementation, so a typo in the backend's constants
cannot hide. Full-register operators for the oracle come from explicit
Kronecker products and a direct basis-by-basis construction for controlled
gates, never from the backend's slice kernels.
"""

import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdsl.simulator
from qdsl.simulator import (
    GATE_ADJOINTS,
    GATE_MATRICES,
    SMALL_QUBITS,
    ShotPrefix,
    SimulationError,
    StateVectorSimulator,
    r1frac_matrix,
)
from conftest import assert_storage, haar_random_state, kron_all

SQ2 = 1.0 / math.sqrt(2.0)

FROZEN = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex),
    "T": np.array([[1, 0], [0, SQ2 + 1j * SQ2]], dtype=complex),
}


def make_sim(n: int, capacity: int = 24) -> StateVectorSimulator:
    sim = StateVectorSimulator(capacity=capacity)
    for qid in range(n):
        sim.allocate(qid)
    return sim


def norm(sim: StateVectorSimulator) -> float:
    return float(np.linalg.norm(sim.amplitudes()[1]))


def qubit_counts(top: int):
    """Live-qubit counts, drawn as often at or below SMALL_QUBITS as above."""
    return st.one_of(st.integers(1, SMALL_QUBITS), st.integers(SMALL_QUBITS + 1, top))


def operator_at(n: int, pos: int, gate: np.ndarray) -> np.ndarray:
    """Full 2^n operator applying `gate` to index bit `pos`."""
    eye = FROZEN["I"]
    return kron_all([eye] * (n - 1 - pos) + [gate] + [eye] * pos)


def controlled_operator(n, control_positions, target_pos, gate):
    """Direct construction: gate fires only when every control bit is 1."""
    dim = 2**n
    op = np.zeros((dim, dim), dtype=complex)
    mask = 1 << target_pos
    for col in range(dim):
        if all((col >> c) & 1 for c in control_positions):
            t = (col >> target_pos) & 1
            op[col, col] = gate[t, t]
            op[col ^ mask, col] = gate[1 - t, t]
        else:
            op[col, col] = 1.0
    return op


def pauli_product_operator(n, bases, positions):
    factors = [FROZEN["I"]] * n
    for basis, pos in zip(bases, positions):
        factors[n - 1 - pos] = FROZEN[basis]
    return kron_all(factors)


# ── Gate matrix lock ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_gate_matrices_match_frozen_values(name):
    assert np.max(np.abs(GATE_MATRICES[name] - FROZEN[name])) <= 1e-12


@pytest.mark.parametrize(
    "numerator,power,expected_diag",
    [
        (1, 0, -1.0),               # half turn: Z
        (1, 1, 1j),                 # quarter turn: S
        (1, 2, SQ2 + 1j * SQ2),     # eighth turn: T
        (2, 1, -1.0),
        (-1, 1, -1j),
        (3, 2, -SQ2 + 1j * SQ2),
    ],
)
def test_r1frac_phases(numerator, power, expected_diag):
    m = r1frac_matrix(numerator, power)
    assert abs(m[0, 0] - 1.0) <= 1e-12
    assert abs(m[0, 1]) == 0.0 and abs(m[1, 0]) == 0.0
    assert abs(m[1, 1] - expected_diag) <= 1e-12


def test_r1frac_general_angle():
    m = r1frac_matrix(5, 4)
    assert abs(m[1, 1] - cmath.exp(1j * math.pi * 5 / 16)) <= 1e-12


def test_r1frac_matches_the_division_formula_bit_for_bit():
    # Seeded runs must not move: for powers 0-60 the phase is the one the
    # former formula computed by dividing by float(2**power).
    numerators = [0, 1, -1, 2, 3, -7, 5, 1023, -4096, 123456789, 2**53 + 1, -(2**63)]
    for power in range(61):
        for numerator in numerators:
            old = np.exp(1j * math.pi * numerator / float(2**power))
            assert r1frac_matrix(numerator, power)[1, 1] == old, (numerator, power)


def _entry_bits(matrix) -> list[bytes]:
    """The bits of the real and imaginary part of each entry, signed zeros
    included, of a gate matrix or an ndarray."""
    return [struct.pack("<dd", matrix[i, j].real, matrix[i, j].imag)
            for i in (0, 1) for j in (0, 1)]


def _numpy_built(rows) -> np.ndarray:
    """A table entry as the simulator built it with numpy, before its
    gate matrices were Python objects."""
    return np.array(rows, dtype=complex)


def test_gate_tables_have_the_bits_of_the_numpy_construction():
    built = {
        "I": _numpy_built([[1, 0], [0, 1]]),
        "X": _numpy_built([[0, 1], [1, 0]]),
        "Y": _numpy_built([[0, -1j], [1j, 0]]),
        "Z": _numpy_built([[1, 0], [0, -1]]),
        "H": _numpy_built([[SQ2, SQ2], [SQ2, -SQ2]]),
        "T": _numpy_built([[1, 0], [0, np.exp(1j * math.pi / 4)]]),
    }
    assert sorted(GATE_MATRICES) == sorted(GATE_ADJOINTS) == sorted(built)
    for name, matrix in built.items():
        assert _entry_bits(GATE_MATRICES[name]) == _entry_bits(matrix), name
        adjoint = matrix.conj().T
        assert _entry_bits(GATE_ADJOINTS[name]) == _entry_bits(adjoint), name
    # The conjugation of a Y factor in a measurement.
    assert _entry_bits(qdsl.simulator._S) == _entry_bits(_numpy_built([[1, 0], [0, 1j]]))
    assert _entry_bits(qdsl.simulator._S_DAG) == _entry_bits(_numpy_built([[1, 0], [0, -1j]]))


def test_r1frac_has_the_bits_of_the_numpy_construction():
    # The uncached function, so that 24,000 angles leave the shared cache,
    # whose matrices the shot logs match by identity, as it was.
    build = r1frac_matrix.__wrapped__
    for power in range(40):
        for numerator in range(-300, 300):
            angle = math.ldexp(math.pi * numerator, -power)
            expected = _numpy_built([[1, 0], [0, np.exp(1j * angle)]])
            assert _entry_bits(build(numerator, power)) == _entry_bits(expected), (
                numerator, power)


@pytest.mark.parametrize("power", [1100, 2000, 2**63 - 1, -1, -2000, -(2**63)])
def test_r1frac_extreme_powers_give_the_exact_phase(power):
    # A tiny angle rounds to the phase 1; a negative power makes the angle
    # an even multiple of pi.
    m = r1frac_matrix(3, power)
    assert m[1, 1] == 1.0


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_cached_adjoints_match_conjugate_transpose(name):
    assert np.max(np.abs(GATE_ADJOINTS[name] - FROZEN[name].conj().T)) <= 1e-12


def test_shared_gate_matrices_are_read_only():
    shared = [*GATE_MATRICES.values(), *GATE_ADJOINTS.values(), r1frac_matrix(1, 3)]
    for matrix in shared:
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0
    assert r1frac_matrix(1, 3) is r1frac_matrix(1, 3)


@pytest.mark.parametrize("name", ["I", "X", "Y", "Z", "H"])
def test_named_gates_are_self_inverse_except_t(name):
    g = FROZEN[name]
    assert np.max(np.abs(g @ g - FROZEN["I"])) <= 1e-12


def test_t_to_the_eighth_is_identity():
    g = np.linalg.matrix_power(FROZEN["T"], 8)
    assert np.max(np.abs(g - FROZEN["I"])) <= 1e-12


# ── Single-qubit application against the kron oracle ─────────────────────────


@pytest.mark.parametrize("gate", ["X", "Y", "Z", "H", "T"])
@pytest.mark.parametrize("pos", [0, 1, 2])
def test_apply_matches_full_operator(gate, pos):
    rng = np.random.default_rng(pos * 17 + len(gate))
    psi = haar_random_state(3, rng)
    sim = make_sim(3)
    sim.load(psi)
    sim.apply(FROZEN[gate], pos)
    expected = operator_at(3, pos, FROZEN[gate]) @ psi
    assert np.max(np.abs(sim.state - expected)) <= 1e-12


def test_apply_preserves_norm():
    rng = np.random.default_rng(5)
    sim = make_sim(4)
    sim.load(haar_random_state(4, rng))
    for gate, pos in [("H", 0), ("T", 3), ("Y", 2), ("H", 1), ("X", 0)]:
        sim.apply(FROZEN[gate], pos)
    assert abs(norm(sim) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    moves=st.lists(
        st.tuples(st.sampled_from(["X", "Y", "Z", "H", "T"]), st.integers(0, 2)),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**31),
)
def test_gate_sequence_then_reversed_inverse_restores_state(moves, seed):
    psi = haar_random_state(3, np.random.default_rng(seed))
    sim = make_sim(3)
    sim.load(psi)
    for gate, pos in moves:
        sim.apply(FROZEN[gate], pos)
    for gate, pos in reversed(moves):
        sim.apply(FROZEN[gate].conj().T, pos)
    assert np.max(np.abs(sim.state - psi)) <= 1e-9


# ── Controlled application ───────────────────────────────────────────────────


@pytest.mark.parametrize("controls,target", [((1,), 0), ((0,), 2), ((0, 2), 1)])
def test_controlled_apply_matches_direct_construction(controls, target):
    rng = np.random.default_rng(sum(controls) * 31 + target)
    psi = haar_random_state(3, rng)
    sim = make_sim(3)
    sim.load(psi)
    sim.apply(FROZEN["H"], target, control_ids=list(controls))
    expected = controlled_operator(3, controls, target, FROZEN["H"]) @ psi
    assert np.max(np.abs(sim.state - expected)) <= 1e-12


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def _gate_matrix(kind: str, angles: tuple[float, float, float]) -> np.ndarray:
    """Dense, diagonal or X-like 2x2 unitaries, including the exact entries
    the kernel branches on: zero off the diagonal, zero on it, and a 1 on it."""
    theta, phi, lam = angles
    if kind == "dense":
        return _u3(theta, phi, lam)
    if kind == "diagonal":
        return np.diag([cmath.exp(1j * phi), cmath.exp(1j * lam)])
    if kind == "phase":
        return np.diag([1.0, cmath.exp(1j * lam)]).astype(complex)
    if kind == "x_like":
        return np.array([[0, cmath.exp(1j * phi)], [cmath.exp(1j * lam), 0]])
    return FROZEN[kind].copy()


_ANGLE = st.floats(0.1, 2 * math.pi - 0.1)


@st.composite
def _circuits(draw):
    n = draw(qubit_counts(8))
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["dense", "diagonal", "phase", "x_like", "X", "H", "Z"]))
        matrix = _gate_matrix(kind, (draw(_ANGLE), draw(_ANGLE), draw(_ANGLE)))
        if draw(st.booleans()):
            matrix = matrix.conj().T
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        controls = draw(
            st.lists(st.sampled_from(others), unique=True, max_size=min(3, len(others)))
            if others
            else st.just([])
        )
        gates.append((matrix, target, controls))
    return n, gates, draw(st.integers(0, 2**31))


def _oracle_operator(n, target, controls, matrix):
    if controls:
        return controlled_operator(n, controls, target, matrix)
    return operator_at(n, target, matrix)


@settings(max_examples=150, deadline=None)
@given(circuit=_circuits())
def test_random_circuits_match_explicit_operators(circuit):
    n, gates, seed = circuit
    psi = haar_random_state(n, np.random.default_rng(seed))
    sim = make_sim(n)
    sim.load(psi)
    expected = psi
    for matrix, target, controls in gates:
        sim.apply(matrix, target, control_ids=controls)
        expected = _oracle_operator(n, target, controls, matrix) @ expected
    assert np.max(np.abs(sim.state - expected)) <= 1e-10
    assert_storage(sim)


@pytest.mark.parametrize("kind", ["dense", "diagonal", "phase", "x_like"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_controls_and_target_covering_every_qubit(kind, n):
    # Integer indices on every axis would give a 0-d copy and drop the write.
    matrix = _gate_matrix(kind, (0.7, 1.9, 2.6))
    psi = haar_random_state(n, np.random.default_rng(n))
    for target in range(n):
        controls = [q for q in range(n) if q != target]
        sim = make_sim(n)
        sim.load(psi)
        sim.apply(matrix, target, control_ids=controls)
        expected = _oracle_operator(n, target, controls, matrix) @ psi
        assert np.max(np.abs(sim.state - expected)) <= 1e-12


def test_cnot_truth_table():
    for a in (0, 1):
        sim = make_sim(2)
        if a:
            sim.apply(FROZEN["X"], 0)
        sim.apply(FROZEN["X"], 1, control_ids=[0])
        ids, amps = sim.amplitudes()
        index = int(np.argmax(np.abs(amps)))
        assert index == (a | (a << 1))


def test_gate_rejects_duplicate_qubits():
    sim = make_sim(3)
    duplicate = ("a qubit may appear only once among the controls and the "
                 "target of a gate (got {})")
    for target, controls, message in [
        (1, [1], duplicate.format([1])),
        (0, [2, 1, 2], duplicate.format([0, 1, 2])),
        (2, [0, 2, 1], duplicate.format([0, 1, 2])),
        (7, [], "qubit q7 is not allocated"),
        (7, [7], "qubit q7 is not allocated"),
        (0, [1, 9, 1], "qubit q9 is not allocated"),
    ]:
        with pytest.raises(SimulationError) as exc:
            sim.apply(FROZEN["X"], target, control_ids=controls)
        assert str(exc.value) == message


# ── Measurement, expectation, probing ────────────────────────────────────────


def test_expectation_matches_operator_oracle():
    rng = np.random.default_rng(9)
    psi = haar_random_state(3, rng)
    sim = make_sim(3)
    sim.load(psi)
    for bases, positions in [
        (["Z"], [0]),
        (["X", "X"], [0, 1]),
        (["Y", "Z"], [2, 0]),
        (["X", "Y", "Z"], [0, 1, 2]),
        (["I", "Z"], [0, 2]),
    ]:
        oracle = np.real(
            np.vdot(psi, pauli_product_operator(3, bases, positions) @ psi)
        )
        expectation = 2 * sim.probe_zero_probability(bases, positions) - 1
        assert abs(expectation - oracle) <= 1e-12


class _CountingRng:
    def __init__(self, value: float):
        self.value = value
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.value


@settings(max_examples=150, deadline=None)
@given(
    n=qubit_counts(5),
    letters=st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=5),
    draw=st.floats(0.0, 0.999999),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_pauli_measurement_matches_projector_oracle(n, letters, draw, seed, data):
    check_pauli_measurement(n, letters, draw, seed, data)


def check_pauli_measurement(n, letters, draw, seed, data):
    letters = letters[:n]
    positions = data.draw(st.permutations(range(n)))[: len(letters)]
    psi = haar_random_state(n, np.random.default_rng(seed))
    pauli = pauli_product_operator(n, letters, positions)
    plus = (np.eye(2**n) + pauli) / 2
    p_zero = float(np.linalg.norm(plus @ psi) ** 2)
    assume(abs(draw - p_zero) > 1e-9)
    outcome = 0 if draw < p_zero else 1
    projector = plus if outcome == 0 else np.eye(2**n) - plus
    probability = p_zero if outcome == 0 else 1.0 - p_zero
    collapsed = projector @ psi / math.sqrt(probability)

    sim = make_sim(n)
    sim.load(psi)
    assert abs(sim.probe_zero_probability(letters, positions) - p_zero) <= 1e-12
    assert np.array_equal(sim.state, psi)
    rng = _CountingRng(draw)
    assert sim.measure(letters, positions, rng) == outcome
    assert rng.draws == (0 if set(letters) == {"I"} else 1)  # the identity: no draw
    assert np.max(np.abs(sim.state - collapsed)) <= 1e-10
    assert_storage(sim)


# Before each of three seeded measurements, `probe_zero_probability` of every
# Pauli product in PIN_PROBES[n], then the measurement's outcome: floats taken
# bit for bit from the numpy storage. The list storage at n = SMALL_QUBITS
# must give the same, or a last-bit drift would show only as an outcome that
# flips in some later golden. A Bell pair needs two qubits.
PIN_PROBES = {1: ["X", "Y", "Z"], 2: ["XI", "IY", "ZZ", "XX", "ZY"]}
PIN_MEASURES = {1: ["X", "Y", "Z"], 2: ["IZ", "XX", "YI"]}
PIN_PREPARATIONS = {
    "plus": [("H", 0, [])],
    "minus": [("X", 0, []), ("H", 0, [])],
    "bell": [("H", 0, []), ("X", 1, [0])],
    "haar": [],
}
PIN_HAAR = {  # haar_random_state(n, np.random.default_rng(10 + n))
    1: [0.017995102771955096 + 0.6445509809996788j,
        0.7156132333662547 - 0.2685663966315829j],
    2: [-0.002358333854482142 + 0.5592116408497858j,
        0.3613936865522447 - 0.4164640778455163j,
        0.2561841914441991 - 0.21658385678427003j,
        0.25009319986563533 - 0.45622750749980284j],
}
PINNED = {
    ("plus", 1): [
        (1.0, 0.5000000000000002, 0.5000000000000001, 0),
        (1.0, 0.5000000000000003, 0.5000000000000002, 1),
        (0.5000000000000001, 2.220446049250313e-16, 0.5, 1),
    ],
    ("minus", 1): [
        (4.440892098500626e-16, 0.5000000000000002, 0.5000000000000001, 1),
        (4.440892098500626e-16, 0.5000000000000002, 0.5000000000000001, 1),
        (0.5000000000000001, 2.220446049250313e-16, 0.5, 1),
    ],
    ("haar", 1): [
        (0.33977279926696147, 0.03391790850894982, 0.4157697908314215, 1),
        (4.440892098500626e-16, 0.5000000000000002, 0.5000000000000001, 1),
        (0.5000000000000001, 1.1102230246251565e-16, 0.5, 1),
    ],
    ("plus", 2): [
        (1.0, 0.5000000000000002, 0.5000000000000001, 0.5000000000000002,
         0.5000000000000002, 0),
        (1.0, 0.5000000000000002, 0.5000000000000001, 0.5000000000000002,
         0.5000000000000002, 1),
        (1.0, 0.5000000000000001, 0.5, 2.220446049250313e-16,
         0.5000000000000001, 1),
    ],
    ("minus", 2): [
        (4.440892098500626e-16, 0.5000000000000002, 0.5000000000000001,
         0.5000000000000002, 0.5000000000000002, 0),
        (4.440892098500626e-16, 0.5000000000000002, 0.5000000000000001,
         0.5000000000000002, 0.5000000000000002, 1),
        (2.220446049250313e-16, 0.5000000000000001, 0.5, 2.220446049250313e-16,
         0.5000000000000001, 1),
    ],
    ("bell", 2): [
        (0.5000000000000002, 0.5000000000000002, 1.0, 1.0, 0.5000000000000002, 1),
        (0.5000000000000001, 0.5000000000000001, 1.0, 0.5000000000000001,
         0.5000000000000001, 1),
        (0.5000000000000002, 0.5000000000000002, 1.0, 4.440892098500626e-16,
         0.5000000000000002, 1),
    ],
    ("haar", 2): [
        (0.4291375900458759, 0.2965266880000832, 0.5834133682189944,
         0.42706520924452007, 0.417972501968922, 1),
        (0.9250237176966627, 0.5000000000000002, 0.7063403577134865,
         0.5000000000000002, 0.5000000000000002, 1),
        (0.9250237176966627, 0.5000000000000002, 0.7063403577134864,
         2.220446049250313e-16, 0.3363586355044118, 1),
    ],
}


def test_pinned_states_straddle_the_threshold():
    assert {n for _, n in PINNED} == {SMALL_QUBITS, SMALL_QUBITS + 1}


@pytest.mark.parametrize("name,n", sorted(PINNED))
def test_probabilities_at_the_threshold_are_pinned(name, n):
    sim = make_sim(n)
    if name == "haar":
        sim.load(PIN_HAAR[n])
    for gate, target, controls in PIN_PREPARATIONS[name]:
        sim.apply(FROZEN[gate], target, controls)
    rng = random.Random(5)
    qubits = list(range(n))
    seen = []
    for pauli in PIN_MEASURES[n]:
        probes = [sim.probe_zero_probability(list(p), qubits) for p in PIN_PROBES[n]]
        seen.append((*probes, sim.measure(list(pauli), qubits, rng)))
    assert seen == PINNED[name, n]


def test_probe_does_not_disturb_the_state():
    sim = make_sim(2)
    sim.apply(FROZEN["H"], 0)
    sim.apply(FROZEN["X"], 1, control_ids=[0])
    before = sim.state.copy()
    p = sim.probe_zero_probability(["Z", "Z"], [0, 1])
    assert abs(p - 1.0) <= 1e-12  # Bell state is a +1 eigenstate of ZZ
    assert np.array_equal(sim.state, before)


def test_deterministic_measurements_on_eigenstates():
    rng = random.Random(0)
    # |0> is the +1 eigenstate of Z
    sim = make_sim(1)
    assert sim.measure(["Z"], [0], rng) == 0
    # |1> is the -1 eigenstate of Z
    sim = make_sim(1)
    sim.apply(FROZEN["X"], 0)
    assert sim.measure(["Z"], [0], rng) == 1
    # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y
    sim = make_sim(1)
    sim.apply(FROZEN["H"], 0)
    sim.apply(r1frac_matrix(1, 1), 0)
    assert sim.measure(["Y"], [0], rng) == 0


def test_bell_state_parity_measurements():
    rng = random.Random(3)
    sim = make_sim(2)
    sim.apply(FROZEN["H"], 0)
    sim.apply(FROZEN["X"], 1, control_ids=[0])
    assert sim.measure(["X", "X"], [0, 1], rng) == 0
    assert sim.measure(["Z", "Z"], [0, 1], rng) == 0


def test_measurement_collapse_is_consistent_and_normalized():
    for seed in range(12):
        rng = random.Random(seed)
        sim = make_sim(1)
        sim.apply(FROZEN["H"], 0)
        first = sim.measure(["Z"], [0], rng)
        assert abs(norm(sim) - 1.0) <= 1e-12
        # The collapsed state must reproduce the outcome forever after.
        for _ in range(3):
            assert sim.measure(["Z"], [0], rng) == first


def test_collapse_projects_entangled_partner():
    rng = random.Random(1)
    sim = make_sim(2)
    sim.apply(FROZEN["H"], 0)
    sim.apply(FROZEN["X"], 1, control_ids=[0])
    outcome = sim.measure(["Z"], [0], rng)
    assert sim.measure(["Z"], [1], rng) == outcome


def test_born_frequencies_on_plus_state():
    rng = random.Random(1234)
    ones = 0
    shots = 2000
    for _ in range(shots):
        sim = make_sim(1)
        sim.apply(FROZEN["H"], 0)
        ones += sim.measure(["Z"], [0], rng)
    assert abs(ones / shots - 0.5) < 0.04


def test_measurement_argument_validation():
    sim = make_sim(2)
    duplicate = "a qubit may appear only once in a measurement register"
    for bases, ids, message in [
        (["Z", "Z"], [0], "measurement needs one Pauli basis per qubit, "
                          "got 2 bases for 1 qubits"),
        (["Z"], [0, 1], "measurement needs one Pauli basis per qubit, "
                        "got 1 bases for 2 qubits"),
        (["Z", "X"], [0, 0], duplicate),
        (["Z", "X"], [7, 7], duplicate),
        (["Z"], [7], "qubit q7 is not allocated"),
        (["I"], [7], "qubit q7 is not allocated"),
        (["I", "Z"], [0, 7], "qubit q7 is not allocated"),
    ]:
        with pytest.raises(SimulationError) as exc:
            sim.measure(bases, ids, random.Random(0))
        assert str(exc.value) == message
        with pytest.raises(SimulationError) as exc:
            sim.probe_zero_probability(bases, ids)
        assert str(exc.value) == message


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("basis", ["PauliZ", "", "XY"], ids=["PauliZ", "empty", "XY"])
def test_unknown_pauli_basis_is_rejected_before_any_draw(n, basis):
    sim = make_sim(n)
    sim.apply(FROZEN["H"], 0)
    state = sim.amplitudes()[1]
    rng = random.Random(0)
    drawn = rng.getstate()
    bases, ids = ["Z"] * (n - 1) + [basis], list(range(n))
    with pytest.raises(SimulationError, match=f"unknown Pauli basis {basis!r}"):
        sim.measure(bases, ids, rng)
    with pytest.raises(SimulationError, match=f"unknown Pauli basis {basis!r}"):
        sim.probe_zero_probability(bases, ids)
    assert rng.getstate() == drawn
    assert np.array_equal(sim.amplitudes()[1], state)


def test_duplicate_identity_slots_are_fine():
    # I entries do not touch their qubit, so repeats are harmless
    sim = make_sim(2)
    p = sim.probe_zero_probability(["I", "I"], [0, 0])
    assert abs(p - 1.0) <= 1e-12


class _FixedRng:
    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def test_zero_probability_collapse_raises():
    sim = make_sim(1)
    # |0> measured in Z: p(one) = 0; force the impossible branch
    with pytest.raises(SimulationError):
        sim.measure(["Z"], [0], _FixedRng(1.0))


# ── Allocation and release ───────────────────────────────────────────────────


def test_allocation_grows_state_in_zero_branch():
    sim = make_sim(0)
    sim.allocate(0)
    sim.apply(FROZEN["H"], 0)
    sim.allocate(1)
    ids, amps = sim.amplitudes()
    assert ids == [0, 1]
    # New qubit arrives in |0>: no amplitude on indices with bit 1 set.
    assert abs(amps[2]) == 0.0 and abs(amps[3]) == 0.0
    assert abs(amps[0] - SQ2) <= 1e-12 and abs(amps[1] - SQ2) <= 1e-12


def test_allocation_refuses_beyond_the_memory_budget(monkeypatch):
    # Four qubits fit: 2 x 16 bytes x 2^4 = 512. The fifth needs 1024.
    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 512)
    sim = make_sim(4)
    with pytest.raises(SimulationError, match="needs 1024 bytes"):
        sim.allocate(4)
    assert sim.num_qubits == 4 and len(sim.state) == 16
    assert_storage(sim)


def test_dirty_release_draws_once_and_keeps_the_surviving_slice():
    sim = make_sim(2)
    sim.apply(FROZEN["H"], 0)
    sim.apply(FROZEN["X"], 1, control_ids=[0])
    rng = _CountingRng(0.9)  # p(one) = 1/2, so the draw keeps |0>
    assert sim.release(1, strict=False, rng=rng) is True
    assert rng.draws == 1
    assert np.max(np.abs(sim.state - np.array([1.0, 0.0]))) <= 1e-12
    assert_storage(sim)


def test_double_allocation_rejected():
    sim = make_sim(1)
    with pytest.raises(SimulationError):
        sim.allocate(0)


def test_capacity_limit():
    sim = make_sim(2, capacity=2)
    with pytest.raises(SimulationError) as exc:
        sim.allocate(2)
    assert "max-qubits" in str(exc.value)


def test_strict_release_requires_zero_state():
    sim = make_sim(1)
    sim.apply(FROZEN["X"], 0)
    with pytest.raises(SimulationError):
        sim.release(0, strict=True)


def test_strict_release_of_zero_qubit_is_silent():
    sim = make_sim(2)
    sim.apply(FROZEN["X"], 1)
    was_reset = sim.release(0, strict=True)
    assert was_reset is False
    assert sim.num_qubits == 1


def test_permissive_release_measures_and_resets():
    rng = random.Random(7)
    sim = make_sim(1)
    sim.apply(FROZEN["X"], 0)
    was_reset = sim.release(0, strict=False, rng=rng)
    assert was_reset is True
    assert sim.num_qubits == 0
    assert abs(norm(sim) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_dirty_permissive_release_needs_a_generator(n):
    # Without a generator there is no draw to take: the release fails and
    # leaves the state and the bit positions as they were.
    sim = make_sim(n)
    sim.apply(FROZEN["H"], 0)
    before = np.array(sim.state, dtype=complex)
    positions = dict(sim.position)
    with pytest.raises(SimulationError, match="no random generator was given"):
        sim.release(0, strict=False)
    assert np.array_equal(np.array(sim.state, dtype=complex), before)
    assert sim.position == positions
    assert sim.num_qubits == n


def test_dirty_permissive_release_needs_a_generator_on_the_shot_log():
    # A shot that follows the log hands the release to its own simulator,
    # with the state brought up to date, and that release fails.
    def start_shot():
        stand_in = prefix.stand_in(make_sim(0))
        stand_in.allocate(0)
        stand_in.apply(FROZEN["H"], 0)
        return stand_in

    prefix = ShotPrefix()
    stand_in = start_shot()
    stand_in.release(0, strict=False, rng=random.Random(1))
    stand_in.commit()
    stand_in = start_shot()
    assert stand_in.release != stand_in.sim.release  # it follows the log
    with pytest.raises(SimulationError, match="no random generator was given"):
        stand_in.release(0, strict=False)
    sim = stand_in.sim
    assert stand_in.release == sim.release  # it left the log
    assert sim.position == {0: 0}
    assert np.allclose(np.array(sim.state, dtype=complex), [SQ2, SQ2], atol=1e-15)


def test_permissive_release_collapses_partner_consistently():
    # Releasing half of a Bell pair leaves the partner in the measured branch.
    for seed in range(8):
        rng = random.Random(seed)
        sim = make_sim(2)
        sim.apply(FROZEN["H"], 0)
        sim.apply(FROZEN["X"], 1, control_ids=[0])
        sim.release(0, strict=False, rng=rng)
        ids, amps = sim.amplitudes()
        assert ids == [1]
        branch = int(np.argmax(np.abs(amps)))
        assert abs(abs(amps[branch]) - 1.0) <= 1e-12
        assert abs(amps[1 - branch]) == 0.0


def test_release_compacts_positions():
    sim = make_sim(3)
    sim.apply(FROZEN["X"], 1)
    sim.release(0, strict=True)
    ids, amps = sim.amplitudes()
    assert ids == [1, 2]
    assert abs(amps[1] - 1.0) <= 1e-12  # bit 0 now tracks id 1
    sim.apply(FROZEN["X"], 2)
    ids, amps = sim.amplitudes()
    assert abs(amps[3] - 1.0) <= 1e-12


def _release_oracle(psi: np.ndarray, pos: int, draw: float) -> tuple[np.ndarray, bool]:
    """A permissive release as a projector on bit `pos`, then that bit
    dropped: the vector left, and whether the qubit had to be measured."""
    ones = (np.arange(len(psi)) >> pos) & 1 == 1
    p_one = float(np.sum(np.abs(psi[ones]) ** 2))
    dirty = p_one > qdsl.simulator.RELEASE_EPSILON
    assume(not dirty or abs(draw - p_one) > 1e-9)  # no tie for rounding to break
    keep_one = dirty and draw < p_one
    kept = psi[ones] if keep_one else psi[~ones]
    return kept / math.sqrt(p_one if keep_one else 1.0 - p_one), dirty


@st.composite
def _crossing_programs(draw, threshold: int):
    """Allocate threshold + 2 qubits, release them all in a drawn order and
    allocate threshold + 1 again, with a gate after each step: the live
    count crosses the threshold up, down and up again."""
    top = threshold + 2
    plan = [*range(top), *[None] * top, *range(top, 2 * top - 1)]  # None: release
    steps, live = [], []
    for qid in plan:
        if qid is None:
            released = draw(st.sampled_from(live))
            live.remove(released)
            steps.append(("release", released, draw(st.floats(0.0, 0.999999))))
        else:
            steps.append(("allocate", qid))
            live.append(qid)
        if not live:
            continue
        target = draw(st.sampled_from(live))
        others = [q for q in live if q != target]
        controls = draw(st.lists(st.sampled_from(others), unique=True, max_size=2)
                        if others else st.just([]))
        kind = draw(st.sampled_from(["dense", "diagonal", "x_like", "H"]))
        matrix = _gate_matrix(kind, (draw(_ANGLE), draw(_ANGLE), draw(_ANGLE)))
        steps.append(("gate", matrix, target, controls))
    return steps


@pytest.mark.parametrize("threshold", [SMALL_QUBITS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_allocations_and_releases_across_the_threshold_match_the_oracle(
    threshold, data
):
    check_crossing_program(data.draw(_crossing_programs(threshold)), threshold)


def check_crossing_program(steps, threshold: int) -> None:
    sim = StateVectorSimulator()
    order, psi = [], np.ones(1, dtype=complex)  # ids by bit position; the oracle
    for step in steps:
        if step[0] == "allocate":
            sim.allocate(step[1])
            order.append(step[1])
            psi = np.kron([1, 0], psi)
        elif step[0] == "release":
            _, qid, value = step
            psi, dirty = _release_oracle(psi, order.index(qid), value)
            rng = _CountingRng(value)
            assert sim.release(qid, strict=False, rng=rng) is dirty
            assert rng.draws == dirty
            order.remove(qid)
        else:
            _, matrix, target, controls = step
            positions = [order.index(c) for c in controls]
            sim.apply(matrix, target, control_ids=controls)
            psi = _oracle_operator(len(order), order.index(target), positions, matrix) @ psi
        assert type(sim.state) is (list if len(order) <= threshold else np.ndarray)
        assert_storage(sim)
        assert np.max(np.abs(sim.state - psi)) <= 1e-10


@st.composite
def _program_steps(draw):
    """Allocations, gates, probes, measurements and permissive releases on at
    most SMALL_QUBITS + 1 qubits, with the gates the intrinsics apply."""
    steps, live = [], []
    for qid in range(draw(st.integers(1, 30))):
        kinds = ["gate", "probe", "measure", "release"] if live else []
        if len(live) <= SMALL_QUBITS:
            kinds.append("allocate")
        kind = draw(st.sampled_from(kinds))
        if kind == "allocate":
            live.append(qid)
            steps.append(("allocate", qid))
        elif kind == "gate":
            matrix = draw(st.sampled_from([*GATE_MATRICES.values(), *GATE_ADJOINTS.values()])
                          | st.builds(r1frac_matrix, st.integers(-8, 8), st.integers(0, 4)))
            target = draw(st.sampled_from(live))
            controls = [q for q in live if q != target][: draw(st.integers(0, 1))]
            steps.append(("gate", matrix, target, controls))
        elif kind == "release":
            released = draw(st.sampled_from(live))
            live.remove(released)
            steps.append(("release", released, draw(st.floats(0.0, 0.999999))))
        else:
            qubits = draw(st.permutations(live))[: draw(st.integers(1, len(live)))]
            bases = [draw(st.sampled_from("IXYZ")) for _ in qubits]
            steps.append((kind, bases, qubits, draw(st.floats(0.0, 0.999999))))
    return steps


def _observed(steps) -> list:
    """Every result and the bytes of the amplitudes after every step."""
    sim, seen = StateVectorSimulator(), []
    for kind, *args in steps:
        try:
            if kind == "allocate":
                sim.allocate(*args)
            elif kind == "gate":
                sim.apply(*args)
            elif kind == "release":
                seen.append(sim.release(args[0], strict=False, rng=_FixedRng(args[1])))
            elif kind == "probe":
                seen.append(sim.probe_zero_probability(*args[:2]))
            else:
                seen.append(sim.measure(*args[:2], _FixedRng(args[2])))
        except SimulationError as error:  # a collapse onto probability zero
            return [*seen, str(error)]
        seen.append(sim.amplitudes()[1].tobytes())
    return seen


@settings(max_examples=150, deadline=None)
@given(steps=_program_steps())
def test_list_storage_gives_the_numpy_storage_bytes(steps):
    # Seeded output must not move: every probability, outcome and amplitude,
    # down to the sign of a zero, is the one the numpy storage computes.
    observed = _observed(steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qdsl.simulator, "SMALL_QUBITS", 0)
        assert _observed(steps) == observed


def test_release_unallocated_qubit_rejected():
    sim = make_sim(1)
    with pytest.raises(SimulationError):
        sim.release(5, strict=True)


# ── Amplitude ordering convention ────────────────────────────────────────────


def test_amplitude_index_bit_tracks_sorted_id_rank():
    sim = make_sim(3)
    sim.apply(FROZEN["X"], 2)
    ids, amps = sim.amplitudes()
    assert ids == [0, 1, 2]
    assert abs(amps[4] - 1.0) <= 1e-12

    sim = make_sim(3)
    sim.apply(FROZEN["X"], 0)
    _, amps = sim.amplitudes()
    assert abs(amps[1] - 1.0) <= 1e-12


def test_amplitudes_use_id_order_not_allocation_order():
    # Allocate out of id order: id 3 first (position 0), then id 1
    # (position 1). Index bit 0 must still follow the smaller id, 1.
    sim = StateVectorSimulator()
    sim.allocate(3)
    sim.allocate(1)
    sim.apply(FROZEN["X"], 1)  # flip qubit id 1
    ids, amps = sim.amplitudes()
    assert ids == [1, 3]
    assert abs(amps[1] - 1.0) <= 1e-12


def test_amplitudes_snapshot_is_independent_of_later_evolution():
    sim = make_sim(2)
    sim.apply(FROZEN["H"], 0)
    sim.apply(FROZEN["X"], 1, control_ids=[0])
    _, snapshot = sim.amplitudes()
    sim.release(1, strict=False, rng=random.Random(0))
    sim.release(0, strict=False, rng=random.Random(0))
    assert abs(snapshot[0] - SQ2) <= 1e-12
    assert abs(snapshot[3] - SQ2) <= 1e-12


def test_load_copies_into_the_selected_storage_and_checks_the_size():
    psi = haar_random_state(SMALL_QUBITS + 1, np.random.default_rng(4))
    for n in (SMALL_QUBITS, SMALL_QUBITS + 1):
        sim = make_sim(n)
        sim.load(psi[: 1 << n])
        assert_storage(sim)
        assert np.array_equal(sim.state, psi[: 1 << n])
        with pytest.raises(ValueError, match="need"):
            sim.load(psi[: 1 << (n - 1)])
    sim.state[0] = 0.0
    assert psi[0] != 0.0


def test_empty_register_amplitudes():
    sim = make_sim(0)
    ids, amps = sim.amplitudes()
    assert ids == []
    assert amps.shape == (1,)
    assert abs(amps[0] - 1.0) <= 1e-12


def test_simulation_error_is_a_program_failure():
    import qdsl
    import qdsl.runtime

    assert qdsl.QdslFailure is qdsl.runtime.QdslFailure
    with pytest.raises(SimulationError) as info:
        make_sim(0).release(0, strict=True)
    failure = info.value
    assert isinstance(failure, qdsl.QdslFailure)
    assert failure.message == "qubit q0 is not allocated" and failure.span is None
