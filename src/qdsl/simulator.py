"""Dense state-vector simulation backend.

The simulator stores one complex amplitude per basis state of the live
qubits. Indexing is little-endian over allocation order: the qubit that was
allocated into bit position p contributes bit p of the basis index, which is
axis n-1-p of the view `state.reshape((2,) * n)`. No 2^n x 2^n operator is
ever built.

The live-qubit count selects the storage where a state is made: by an
allocation, a release or `load`. Up to SMALL_QUBITS qubits the state is a
Python list of complex, where a gate or a measurement costs a few Python
operations; above it, a complex128 ndarray, where it costs a dozen numpy
calls whatever the size. An allocation or a release that crosses the
threshold converts the state. Every kernel follows the storage it finds: its
list branch serves the one-qubit state alone, with the arithmetic of its
numpy branch. numpy is imported where a state first needs an ndarray (an
allocation past SMALL_QUBITS, a load of such a state, or `amplitudes`), so a
run that never holds two qubits at once does not load it. The gate matrices
are read-only 2x2 `GateMatrix` objects of Python complex, not ndarrays.

Every kernel updates slices of that view in place. The controls and the
target select length-1 slices, never integer indices: indexing every axis
with an integer would return a 0-d copy, and a gate whose controls and
target cover every qubit would write into that copy. A gate whose
off-diagonal entries are zero (Z, T, R1Frac and their controlled and adjoint
forms) only scales the target=1 slice under the controls, and the target=0
slice too when its entry is not 1. Any other gate mixes the two target
slices from one saved copy.

Measurement of a Pauli product P conjugates P into Z on one pivot qubit
with gates applied in place, planned in the one pass over P that checks the
arguments. S^dagger turns each Y factor into X. If any factor is X, the
first is the pivot: CNOTs and CZs from it absorb every other factor, and one
H turns its X into Z. Otherwise CNOTs into the first Z factor fold the
parity of all Z factors into it, and a single Z factor conjugates nothing.
Either way at most one dense gate runs, however long P is. The probability
of the +1 outcome (reported as Zero) is the weight of the pivot=0 slice. A
number r drawn below it gives Zero, and `drawn` keeps both as (p, r). The
state collapses by zeroing the rejected slice and dividing the kept one by
the square root of its probability, and the gates are then undone in
reverse. A weight is summed in chunks of a fixed length, so its bits do not
depend on how many threads the BLAS library runs.
Assertions probe the same probability on a copy of the state, which a
state-vector backend can do because it is not bound by no-cloning.

The interpreter makes six calls: allocate, apply, release,
probe_zero_probability, measure and amplitudes. Each checks its arguments,
and a SimulationError is a QdslFailure. A `ShotPrefix` stand-in wraps a
shot's simulator and takes the same calls: after a first shot records them,
a later one computes no amplitude for as long as it repeats them exactly.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from typing import Sequence

from .values import QdslFailure

DEFAULT_CAPACITY = 24
RELEASE_EPSILON = 1e-9
BYTES_PER_AMPLITUDE = 16  # complex128

# The most live qubits a list state holds, read only where a state is made;
# the kernels dispatch on the storage they find. At one qubit every slice
# holds one amplitude, so the list branches compute each probability bit for
# bit as np.vdot does. Over two or more amplitudes OpenBLAS's zdotc sums with
# fused multiply-adds, which Python before 3.13 cannot reproduce, and a
# probability could differ in its last bit. Only 0 and 1 are valid: the list
# branches are written for one qubit.
SMALL_QUBITS = 1


def _physical_memory() -> float:
    """Bytes of physical memory, or of the process's address-space limit
    where that is lower; unbounded where the platform cannot say."""
    try:
        import resource

        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, AttributeError, ValueError, OSError):
        return math.inf
    return memory if limit == resource.RLIM_INFINITY else min(memory, limit)


# An allocation that doubles the state vector to 2^n amplitudes must leave
# room for the new vector and one kernel temporary of the same size. The
# runtime bounds a new array or string by the same budget.
MEMORY_BUDGET = _physical_memory()

_SQRT2_INV = 1.0 / math.sqrt(2.0)


np = None  # numpy, once `_load_numpy` has run


def _load_numpy() -> None:
    """Bind numpy to `np`: called where a state first needs an ndarray. Every
    other use of `np` runs on an ndarray state, so after it."""
    global np
    if np is None:
        import numpy as np


class GateMatrix:
    """A read-only 2x2 matrix whose rows are a tuple of two tuples of complex.

    The kernels unpack `tolist()`, the rows. `m[i, j]` reads an entry,
    `conj()` and `T` give new matrices, and numpy takes one as an array. The
    shot log matches a gate by its matrix's identity, so `copy()` gives
    another object with the same entries.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows) -> None:
        self._rows = tuple(tuple(map(complex, row)) for row in rows)

    def tolist(self) -> tuple:
        return self._rows

    def __getitem__(self, index: tuple[int, int]) -> complex:
        i, j = index
        return self._rows[i][j]

    def __setitem__(self, index, value) -> None:
        raise ValueError("a gate matrix is read-only")

    def copy(self) -> GateMatrix:
        return GateMatrix(self._rows)

    def conj(self) -> GateMatrix:
        return GateMatrix([x.conjugate() for x in row] for row in self._rows)

    @property
    def T(self) -> GateMatrix:
        return GateMatrix(zip(*self._rows))

    def __array__(self, dtype=None, copy=None):
        _load_numpy()
        return np.array(self._rows, dtype=dtype or complex)


GATE_MATRICES: dict[str, GateMatrix] = {
    "I": GateMatrix([[1, 0], [0, 1]]),
    "X": GateMatrix([[0, 1], [1, 0]]),
    "Y": GateMatrix([[0, -1j], [1j, 0]]),
    "Z": GateMatrix([[1, 0], [0, -1]]),
    "H": GateMatrix([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]]),
    "T": GateMatrix([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]),
}
GATE_ADJOINTS: dict[str, GateMatrix] = {
    name: matrix.conj().T for name, matrix in GATE_MATRICES.items()
}

_S = GateMatrix([[1, 0], [0, 1j]])
_S_DAG = GateMatrix([[1, 0], [0, -1j]])  # S^dagger Y S = X

_ZERO = slice(0, 1)
_ONE = slice(1, 2)


@functools.lru_cache(maxsize=1024)
def r1frac_matrix(numerator: int, power: int) -> GateMatrix:
    """Phase gate diag(1, exp(i pi numerator / 2^power)), shared read-only.

    ldexp scales by 2^-power bit for bit as a division by 2^power does, and a
    large power underflows to the phase 1 instead of overflowing. For a
    negative power the angle is a multiple of 2 pi.
    """
    angle = math.ldexp(math.pi * numerator, -power) if power >= 0 else 0.0
    return GateMatrix([[1, 0], [0, cmath.exp(1j * angle)]])


class SimulationError(QdslFailure):
    """A simulator check failed: a QdslFailure at the call or block it leaves."""


def _mix(out: np.ndarray, x: complex, other: np.ndarray, y: complex) -> None:
    """out <- x * out + y * other, in place."""
    if x == 0:
        np.multiply(other, y, out=out)
    else:
        out *= x
        out += y * other


# OpenBLAS splits a zdotc of more than 10,000 elements across its threads, so
# its bits would depend on the CPU count; a chunk this long is summed by one.
_WEIGHT_CHUNK = 8192


def _weight(view: np.ndarray) -> float:
    """Sum of |amplitude|^2 over a slice, chunk by chunk in a fixed order."""
    flat = view.ravel()  # vdot is slow on strided views; ravel copies them
    total = 0.0
    for start in range(0, len(flat), _WEIGHT_CHUNK):
        chunk = flat[start : start + _WEIGHT_CHUNK]
        total += np.vdot(chunk, chunk).real
    return float(total)


# ── List storage: the kernels' list branches repeat the numpy arithmetic ─────


def _divided(x: complex, scale: float) -> complex:
    """x / s, with scale = 1 / s, as numpy divides a complex by a real: by
    Smith's method with the ratio 0. x / s and x * scale differ from it in
    the last bit or in the sign of a zero."""
    return complex((x.real + x.imag * 0.0) * scale, (x.imag - x.real * 0.0) * scale)


class StateVectorSimulator:
    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.position: dict[int, int] = {}  # qubit id -> bit position
        self.state: list[complex] | np.ndarray = [1 + 0j]
        self.drawn: tuple[float, float] | None = None  # the last draw's (p, r)

    @property
    def num_qubits(self) -> int:
        return len(self.position)

    # ── Allocation ───────────────────────────────────────────────────────

    def allocate(self, qubit_id: int) -> None:
        if qubit_id in self.position:
            raise SimulationError(f"qubit q{qubit_id} is already allocated")
        self._check_limits(self.num_qubits)
        self.position[qubit_id] = self.num_qubits
        if self.num_qubits <= SMALL_QUBITS:
            self.state = self.state + [0j] * len(self.state)
        else:
            _load_numpy()
            self.state = np.concatenate([self.state, np.zeros_like(self.state)])

    def _check_limits(self, live: int) -> None:
        """Check that one more qubit fits next to `live` live ones: the qubit
        limit and the memory budget."""
        if live >= self.capacity:
            raise SimulationError(
                f"cannot allocate more than {self.capacity} qubits "
                "(raise the limit with --max-qubits)"
            )
        needed = 2 * BYTES_PER_AMPLITUDE * (2 << live)
        if needed > MEMORY_BUDGET:
            raise SimulationError(
                f"allocating qubit {live + 1} needs {needed} bytes "
                "(the doubled state vector and one kernel temporary), more "
                f"than the {MEMORY_BUDGET} bytes of physical memory"
            )

    def release(self, qubit_id: int, strict: bool, rng=None) -> bool:
        """Remove a qubit; returns True when it had to be reset first.

        In strict mode the qubit must already be in |0> up to
        RELEASE_EPSILON; otherwise it is measured with a draw from `rng`,
        which such a release needs, and the surviving slice, |0> or |1>,
        becomes the new state.
        """
        pos = self._position_of(qubit_id)
        p_one = self._weight_one(pos)
        dirty = p_one > RELEASE_EPSILON
        keep_one = False
        if dirty:
            if strict:
                raise SimulationError(
                    f"qubit q{qubit_id} was released with probability "
                    f"{p_one:.3g} of being |1>; qubits must be returned "
                    "to |0> before release"
                )
            if rng is None:
                raise SimulationError(
                    f"releasing q{qubit_id} with probability {p_one:.3g} of "
                    "being |1> measures it, and no random generator was given"
                )
            r = rng.random()
            self.drawn = (p_one, r)
            keep_one = r < p_one
        probability = p_one if keep_one else 1.0 - p_one
        if probability < 1e-300:
            raise SimulationError("projection onto a zero-probability subspace")
        if self.state.__class__ is list:
            self.state = [_divided(self.state[keep_one], 1.0 / math.sqrt(probability))]
        else:
            kept = (self._target_slices(pos)[keep_one] / math.sqrt(probability)).ravel()
            self.state = kept.tolist() if self.num_qubits == SMALL_QUBITS + 1 else kept
        # Free the bit position and close the gap it leaves.
        del self.position[qubit_id]
        for qid, p in self.position.items():
            if p > pos:
                self.position[qid] = p - 1
        return dirty

    def _position_of(self, qubit_id: int) -> int:
        if qubit_id not in self.position:
            raise SimulationError(f"qubit q{qubit_id} is not allocated")
        return self.position[qubit_id]

    # ── Gate application ─────────────────────────────────────────────────

    def apply(
        self,
        matrix: GateMatrix,
        target_id: int,
        control_ids: Sequence[int] = (),
    ) -> None:
        pos, controls = self._position_of(target_id), ()
        if control_ids:
            controls = [self._position_of(c) for c in control_ids]
            # Distinct qubits have distinct positions.
            if pos in controls or len(set(controls)) != len(controls):
                raise SimulationError(
                    "a qubit may appear only once among the controls and the "
                    f"target of a gate (got {sorted({target_id, *control_ids})})"
                )
        self._apply_at(matrix, pos, controls)

    def _target_slices(
        self, pos: int, controls: Sequence[int] = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """Views of the target=0 and target=1 slices where every control is 1."""
        n = self.num_qubits
        tensor = self.state.reshape((2,) * n)
        index = [slice(None)] * n
        for c in controls:
            index[n - 1 - c] = _ONE
        index[n - 1 - pos] = _ZERO
        lo = tensor[tuple(index)]
        index[n - 1 - pos] = _ONE
        return lo, tensor[tuple(index)]

    def _apply_at(
        self, matrix: GateMatrix, pos: int, controls: Sequence[int] = ()
    ) -> None:
        (a, b), (c, d) = matrix.tolist()
        state = self.state
        if state.__class__ is list:
            # The one-qubit state, with the same cases and products as below.
            # Its qubit is at position 0 and cannot have a control.
            lo, hi = state
            if b == 0 and c == 0:
                self.state = [lo if a == 1 else lo * a, hi if d == 1 else hi * d]
            else:
                self.state = [hi * b if a == 0 else lo * a + b * hi,
                              lo * c if d == 0 else hi * d + c * lo]
            return
        lo, hi = self._target_slices(pos, controls)
        if b == 0 and c == 0:
            if d != 1:
                hi *= d
            if a != 1:
                lo *= a
            return
        saved = lo.copy()
        _mix(lo, a, hi, b)
        _mix(hi, d, saved, c)

    def _weight_one(self, pos: int) -> float:
        """The weight of the slice where the qubit at `pos` is 1. On the
        one-qubit list state it is |x|^2 of the |1> amplitude as vdot
        computes it (abs(x)**2 goes through hypot and rounds differently)."""
        state = self.state
        if state.__class__ is list:
            x = state[1]
            return x.real * x.real + x.imag * x.imag
        return _weight(self._target_slices(pos)[1])

    # ── Measurement ──────────────────────────────────────────────────────

    def _conjugation(
        self, bases: Sequence[str], qubit_ids: Sequence[int]
    ) -> tuple[int, Sequence[tuple]] | None:
        """Check a measurement's arguments and plan the conjugation of P into
        Z on one pivot qubit (see module doc), in one pass over P.

        Returns None for the identity, else the pivot's bit position and the
        gates to apply, as (matrix, inverse, target, controls). A single Z
        needs none. The checks fail in a fixed order: the length, each basis,
        a repeated qubit, then an unallocated one.
        """
        if len(bases) != len(qubit_ids):
            raise SimulationError(
                f"measurement needs one Pauli basis per qubit, got "
                f"{len(bases)} bases for {len(qubit_ids)} qubits"
            )
        position = self.position
        if len(bases) == 1 and bases[0] == "Z" and qubit_ids[0] in position:
            return position[qubit_ids[0]], ()
        x_factors, y_factors, z_factors, unallocated = [], [], [], None
        for basis, qid in zip(bases, qubit_ids):
            if basis == "Z":
                z_factors.append(qid)
            elif basis == "X" or basis == "Y":
                x_factors.append(qid)
                if basis == "Y":
                    y_factors.append(qid)
            elif basis != "I":
                raise SimulationError(
                    f"unknown Pauli basis {basis!r}; expected I, X, Y or Z"
                )
            if unallocated is None and qid not in position:
                unallocated = qid
        active = x_factors + z_factors
        if len(set(active)) != len(active):
            raise SimulationError(
                "a qubit may appear only once in a measurement register"
            )
        if unallocated is not None:
            raise SimulationError(f"qubit q{unallocated} is not allocated")
        if not active:
            return None
        gates = [(_S_DAG, _S, position[q], ()) for q in y_factors]
        x, z, h = GATE_MATRICES["X"], GATE_MATRICES["Z"], GATE_MATRICES["H"]
        if x_factors:
            pivot = position[x_factors[0]]
            gates += [(x, x, position[q], (pivot,)) for q in x_factors[1:]]
            gates += [(z, z, position[q], (pivot,)) for q in z_factors]
            gates.append((h, h, pivot, ()))
        else:
            pivot = position[z_factors[0]]
            gates += [(x, x, pivot, (position[q],)) for q in z_factors[1:]]
        return pivot, gates

    def probe_zero_probability(
        self, bases: Sequence[str], qubit_ids: Sequence[int]
    ) -> float:
        """Probability of the +1 (Zero) outcome, without collapsing."""
        plan = self._conjugation(bases, qubit_ids)
        if plan is None:
            return 1.0  # the identity has the whole space as +1 eigenspace
        pivot, gates = plan
        state = self.state
        if gates:  # a single Z factor conjugates nothing, and reads the state in place
            self.state = state.copy()
        try:
            for matrix, _, target, controls in gates:
                self._apply_at(matrix, target, controls)
            return min(1.0, max(0.0, 1.0 - self._weight_one(pivot)))
        finally:
            self.state = state

    def measure(
        self, bases: Sequence[str], qubit_ids: Sequence[int], rng
    ) -> int:
        """Projective Pauli-product measurement; returns 0 for Zero, 1 for One."""
        plan = self._conjugation(bases, qubit_ids)
        if plan is None:
            self.drawn = None  # the identity gives Zero with no draw
            return 0
        pivot, gates = plan
        for matrix, _, target, controls in gates:
            self._apply_at(matrix, target, controls)
        try:
            p_zero = min(1.0, max(0.0, 1.0 - self._weight_one(pivot)))
            r = rng.random()
            self.drawn = (p_zero, r)
            outcome = 0 if r < p_zero else 1
            probability = p_zero if outcome == 0 else 1.0 - p_zero
            if probability < 1e-300:
                raise SimulationError(
                    "measurement collapsed onto an outcome of probability zero"
                )
            if self.state.__class__ is list:
                kept = _divided(self.state[outcome], 1.0 / math.sqrt(probability))
                self.state = [0j, kept] if outcome else [kept, 0j]
            else:
                lo, hi = self._target_slices(pivot)
                kept, rejected = (lo, hi) if outcome == 0 else (hi, lo)
                rejected[...] = 0.0
                kept /= math.sqrt(probability)
        finally:
            for _, inverse, target, controls in reversed(gates):
                self._apply_at(inverse, target, controls)
        return outcome

    # ── Inspection ───────────────────────────────────────────────────────

    def load(self, amplitudes) -> None:
        """Set the state to a copy of `amplitudes`, indexed by bit position,
        in the storage the live-qubit count selects."""
        if self.num_qubits <= SMALL_QUBITS:
            vector = list(map(complex, amplitudes))
            shape = (len(vector),)
        else:
            _load_numpy()
            vector = np.array(amplitudes, dtype=complex)
            shape = vector.shape
        if shape != (1 << self.num_qubits,):
            raise ValueError(
                f"{self.num_qubits} qubits need {1 << self.num_qubits} "
                f"amplitudes, got shape {shape}"
            )
        self.state = vector

    def amplitudes(self) -> tuple[list[int], np.ndarray]:
        """State vector with bit j of the index tracking the j-th smallest id."""
        _load_numpy()
        ids = sorted(self.position)
        n = len(ids)
        if n == 0:
            return ids, np.array(self.state, dtype=complex)
        perm = [0] * n
        for axis in range(n):
            j = n - 1 - axis
            perm[axis] = n - 1 - self.position[ids[j]]
        arr = np.asarray(self.state, dtype=complex).reshape((2,) * n).transpose(perm)
        # Always copy: callers keep snapshots past later in-place projections.
        return ids, np.array(arr, copy=True).reshape(-1)


# ── Shot prefix ──────────────────────────────────────────────────────────────

# Operations one log may hold (a few hundred bytes each), so a long program
# cannot grow its log without bound.
_MAX_LOG = 1 << 16


class ShotPrefix:
    """The simulator operations the shots of an entry point have in common.

    Each shot starts from |0...0>, and it makes the same calls with the same
    results as an earlier shot for as long as its draws give the earlier
    outcomes. The first shot that succeeds records its calls (the log), up
    to _MAX_LOG of them: allocations with the qubits live before them, gates
    with their matrix object, releases, probes with their results, and
    each measurement and dirty permissive release that draws with the
    probability and the number it drew. Every later shot follows the log as
    a cursor and computes no amplitude. A gate matches only the matrix
    object logged, which must not change while the log lives: the gate
    matrices are shared read-only objects, so every shot passes the same
    ones, and another array with the same entries leaves the log. A matched
    call fixes every qubit id and the order of every allocation and
    release, so of the checks only the qubit limit and the memory budget
    are run again. At a logged draw the shot draws as the real call would
    and goes on while the outcome is the logged one. A shot that leaves the
    log (another call or outcome, a dump, a strict release logged as dirty,
    or the end of the log) brings its state up to date and goes on from
    there without the log. Before the first draw it replays what it matched
    from |0...0>. At or after it, it
    loads the snapshot, the state and the qubit positions at the first draw,
    and replays the rest with the logged numbers, which give the logged
    outcomes and so the same state. The first such shot takes the snapshot
    by replaying the log from |0...0>, if the state, the snapshot and one
    kernel temporary fit in MEMORY_BUDGET.
    """

    def __init__(self) -> None:
        self.log: list | None = None  # (key, value) per operation
        self.first_draw = 0  # index of the log's first draw, or its length
        self.snapshot: tuple[tuple | np.ndarray, dict[int, int]] | None = None

    def stand_in(self, sim: StateVectorSimulator) -> _PrefixStandIn:
        """A stand-in for a shot's fresh `sim` that records or follows the log."""
        return _PrefixStandIn(self, sim)


class _Drawn:
    """A generator whose one number was drawn already."""

    def __init__(self, r: float) -> None:
        self.r = r

    def random(self) -> float:
        return self.r


class _PrefixStandIn:
    """Takes a shot's simulator calls until the shot leaves the log.

    While the entry has no log it records: each call goes to the shot's
    simulator and into `ops` as (key, value), where the value is a gate's
    matrix, an allocation's live-qubit count, a probe's result, or a draw's
    (probability, number), or None for a measurement that did not draw.
    Otherwise it follows the log, and `at` counts the operations matched. On
    leaving it binds the shot's simulator's methods onto itself, so every
    later call costs what it would cost with no log at all.
    """

    def __init__(self, prefix: ShotPrefix, sim: StateVectorSimulator) -> None:
        self.prefix, self.sim = prefix, sim
        self.log = prefix.log  # None while this shot records
        self.ops: list = []
        self.at = 0

    def commit(self) -> None:
        """Store a recorded log; call it once the shot has succeeded."""
        if self.log is None:
            self.prefix.log = self.ops
            self.prefix.first_draw = next(
                (i for i, (key, value) in enumerate(self.ops)
                 if key[0] in ("measure", "release") and value is not None),
                len(self.ops),
            )

    # ── The simulator calls the interpreter makes ────────────────────────

    def allocate(self, qubit_id: int) -> None:
        key = ("allocate", qubit_id)
        if self._follows(key):
            self.sim._check_limits(self.log[self.at][1])
            self.at += 1
            return
        live = self.sim.num_qubits
        self.sim.allocate(qubit_id)
        self._record(key, live)

    def apply(
        self, matrix: GateMatrix, target_id: int, control_ids: Sequence[int] = ()
    ) -> None:
        log = self.log
        if log is not None:
            # A logged gate is matched by its matrix's identity: the log holds
            # every matrix it names, so no other array takes its address.
            at = self.at
            if at < len(log):
                key, logged = log[at]
                if logged is matrix and key[1] == target_id and key[2] == control_ids:
                    self.at = at + 1
                    return
            self._leave()
        self.sim.apply(matrix, target_id, control_ids)
        self._record(("apply", target_id, list(control_ids) if control_ids else ()), matrix)

    def release(self, qubit_id: int, strict: bool, rng=None) -> bool:
        key = ("release", qubit_id)
        if self._follows(key):
            if self.log[self.at][1] is None:  # clean, in the log and here
                self.at += 1
                return False
            if strict or rng is None:
                self._leave()  # so that the real release raises its error
            else:
                r = rng.random()
                if self._redraw(r) is not None:
                    return True
                rng = _Drawn(r)
        dirty = self.sim.release(qubit_id, strict, rng)
        self._record(key, self.sim.drawn if dirty else None)
        return dirty

    def probe_zero_probability(
        self, bases: Sequence[str], qubit_ids: Sequence[int]
    ) -> float:
        key = ("probe", tuple(bases), tuple(qubit_ids))
        if self._follows(key):
            self.at += 1
            return self.log[self.at - 1][1]
        probability = self.sim.probe_zero_probability(bases, qubit_ids)
        self._record(key, probability)
        return probability

    def measure(self, bases: Sequence[str], qubit_ids: Sequence[int], rng) -> int:
        key = ("measure", tuple(bases), tuple(qubit_ids))
        if self._follows(key):
            if self.log[self.at][1] is None:  # the identity, in the log and here
                self.at += 1
                return 0
            r = rng.random()
            below = self._redraw(r)
            if below is not None:
                return 0 if below else 1
            rng = _Drawn(r)
        outcome = self.sim.measure(bases, qubit_ids, rng)
        self._record(key, self.sim.drawn)
        return outcome

    def amplitudes(self) -> tuple[list[int], np.ndarray]:
        if self.log is not None:
            self._leave()
        return self.sim.amplitudes()

    # ── Recording and following the log ──────────────────────────────────

    def _follows(self, key: tuple) -> bool:
        """Whether this shot follows the log and `key` is the call at its
        cursor. A shot that follows the log and makes another call leaves it."""
        if self.log is None:
            return False
        if self.at < len(self.log) and self.log[self.at][0] == key:
            return True
        self._leave()
        return False

    def _record(self, key: tuple, value) -> None:
        """Log a call that the shot's simulator has made, while recording."""
        if self.log is None:
            self.ops.append((key, value))
            if len(self.ops) == _MAX_LOG:
                self._leave()

    def _redraw(self, r: float) -> bool | None:
        """Match the logged draw at the cursor if `r`, drawn for it, gives
        the logged outcome, and return whether `r` falls below the logged
        probability. Otherwise leave the log and return None."""
        p, logged = self.log[self.at][1]
        if (r < p) != (logged < p):
            self._leave()
            return None
        self.at += 1
        return r < p

    def _leave(self) -> None:
        """Bring the shot's simulator up to date and pass it every later call."""
        sim = self.sim
        if self.log is not None:
            prefix, start = self.prefix, 0
            if self.at >= prefix.first_draw:
                start = prefix.first_draw
                if prefix.snapshot is None:
                    self._replay(0, start)
                    if 3 * BYTES_PER_AMPLITUDE * (1 << sim.num_qubits) <= MEMORY_BUDGET:
                        if sim.state.__class__ is list:
                            state = tuple(sim.state)
                        else:
                            state = np.array(sim.state, dtype=complex)
                            state.setflags(write=False)
                        prefix.snapshot = state, dict(sim.position)
                else:
                    state, positions = prefix.snapshot
                    sim.position = dict(positions)
                    sim.load(state)
            self._replay(start, self.at)
        self.allocate, self.apply, self.release = sim.allocate, sim.apply, sim.release
        self.probe_zero_probability, self.measure, self.amplitudes = (
            sim.probe_zero_probability, sim.measure, sim.amplitudes)

    def _replay(self, start: int, stop: int) -> None:
        """Make the logged calls start to stop on the shot's simulator."""
        sim = self.sim
        for key, value in self.log[start:stop]:
            if key[0] == "allocate":
                sim.allocate(key[1])
            elif key[0] == "apply":
                sim.apply(value, key[1], key[2])
            elif key[0] == "release":
                sim.release(key[1], strict=value is None,
                            rng=value and _Drawn(value[1]))
            elif key[0] == "measure":
                sim.measure(key[1], key[2], value and _Drawn(value[1]))
