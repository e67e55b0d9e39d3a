"""The :class:`Circuit` container — the package's central IR.

A circuit is an ordered list of :class:`~repro.circuits.instruction.Instruction`
objects over ``num_qubits`` wires.  Builder methods (``h``, ``cx``, ``rx`` …)
append gates fluently; structural methods (``compose``, ``remap``,
``inverse``, ``slice``) produce new circuits.  Measurement is *not* part of
the IR — backends measure every qubit at the end of a run, which matches the
paper's experiments (full computational-basis sampling) and keeps the cutter
simple.  Mid-circuit measurement is not needed for wire cutting: the cut
protocol's measurements always terminate the upstream fragment.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


from repro.circuits.gates import Gate, get_gate_def
from repro.circuits.instruction import Instruction
from repro.exceptions import CircuitError

__all__ = ["Circuit"]


class Circuit:
    """An n-qubit gate list with fluent builder methods.

    Examples
    --------
    >>> qc = Circuit(2).h(0).cx(0, 1)
    >>> qc.depth()
    2
    >>> len(qc)
    2
    """

    __slots__ = ("num_qubits", "_instructions", "name")

    def __init__(
        self,
        num_qubits: int,
        instructions: Iterable[Instruction] = (),
        name: str = "circuit",
    ) -> None:
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: list[Instruction] = []
        for inst in instructions:
            self._check(inst)
            self._instructions.append(inst)

    # ------------------------------------------------------------------ core
    def _check(self, inst: Instruction) -> None:
        if max(inst.qubits, default=-1) >= self.num_qubits:
            raise CircuitError(
                f"instruction {inst} exceeds circuit width {self.num_qubits}"
            )

    def append(self, inst: Instruction) -> "Circuit":
        """Append an instruction in place and return self (chainable)."""
        self._check(inst)
        self._instructions.append(inst)
        return self

    def add_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> "Circuit":
        """Append a gate by name; validates arity/parameters eagerly."""
        get_gate_def(name)  # raises for unknown names
        return self.append(Instruction(Gate(name, tuple(params)), tuple(qubits)))

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, i: int) -> Instruction:
        return self._instructions[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Circuit)
            and self.num_qubits == other.num_qubits
            and self._instructions == other._instructions
        )

    # -------------------------------------------------------- builder methods
    def _g1(self, name: str, q: int, *params: float) -> "Circuit":
        return self.add_gate(name, (q,), params)

    def _g2(self, name: str, a: int, b: int, *params: float) -> "Circuit":
        return self.add_gate(name, (a, b), params)

    def id(self, q: int) -> "Circuit":
        return self._g1("id", q)

    def x(self, q: int) -> "Circuit":
        return self._g1("x", q)

    def y(self, q: int) -> "Circuit":
        return self._g1("y", q)

    def z(self, q: int) -> "Circuit":
        return self._g1("z", q)

    def h(self, q: int) -> "Circuit":
        return self._g1("h", q)

    def s(self, q: int) -> "Circuit":
        return self._g1("s", q)

    def sdg(self, q: int) -> "Circuit":
        return self._g1("sdg", q)

    def t(self, q: int) -> "Circuit":
        return self._g1("t", q)

    def tdg(self, q: int) -> "Circuit":
        return self._g1("tdg", q)

    def sx(self, q: int) -> "Circuit":
        return self._g1("sx", q)

    def sxdg(self, q: int) -> "Circuit":
        return self._g1("sxdg", q)

    def rx(self, theta: float, q: int) -> "Circuit":
        return self._g1("rx", q, theta)

    def ry(self, theta: float, q: int) -> "Circuit":
        return self._g1("ry", q, theta)

    def rz(self, theta: float, q: int) -> "Circuit":
        return self._g1("rz", q, theta)

    def p(self, theta: float, q: int) -> "Circuit":
        return self._g1("p", q, theta)

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self._g1("u3", q, theta, phi, lam)

    def cx(self, control: int, target: int) -> "Circuit":
        return self._g2("cx", control, target)

    def cy(self, control: int, target: int) -> "Circuit":
        return self._g2("cy", control, target)

    def cz(self, a: int, b: int) -> "Circuit":
        return self._g2("cz", a, b)

    def ch(self, control: int, target: int) -> "Circuit":
        return self._g2("ch", control, target)

    def swap(self, a: int, b: int) -> "Circuit":
        return self._g2("swap", a, b)

    def iswap(self, a: int, b: int) -> "Circuit":
        return self._g2("iswap", a, b)

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self._g2("crz", control, target, theta)

    def cp(self, theta: float, a: int, b: int) -> "Circuit":
        return self._g2("cp", a, b, theta)

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self._g2("rzz", a, b, theta)

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        return self._g2("rxx", a, b, theta)

    def ryy(self, theta: float, a: int, b: int) -> "Circuit":
        return self._g2("ryy", a, b, theta)

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add_gate("ccx", (c1, c2, target))

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self.add_gate("cswap", (control, a, b))

    def barrier(self, *qubits: int) -> "Circuit":
        """Accepted for API compatibility; carries no semantics here."""
        return self

    # ----------------------------------------------------------- structure
    def compose(
        self, other: "Circuit", qubits: Sequence[int] | None = None
    ) -> "Circuit":
        """Append ``other`` onto this circuit (returns a new circuit).

        ``qubits[i]`` gives the wire of ``self`` that ``other``'s qubit ``i``
        maps to; default is the identity mapping.
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError("composed circuit is wider than target")
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise CircuitError("qubit mapping length mismatch in compose")
        out = self.copy()
        for inst in other:
            out.append(inst.remap(list(qubits)))
        return out

    def remap(self, mapping: Sequence[int], num_qubits: int | None = None) -> "Circuit":
        """Relabel qubits: wire ``i`` becomes ``mapping[i]``."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(n, name=self.name)
        for inst in self:
            out.append(inst.remap(list(mapping)))
        return out

    def inverse(self) -> "Circuit":
        """Adjoint circuit (reversed order, inverted gates)."""
        out = Circuit(self.num_qubits, name=f"{self.name}_dg")
        for inst in reversed(self._instructions):
            out.append(inst.inverse())
        return out

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, self._instructions, name=self.name)

    def slice(self, start: int, stop: int) -> "Circuit":
        """Sub-circuit of instructions ``start <= i < stop``."""
        return Circuit(self.num_qubits, self._instructions[start:stop], name=self.name)

    def filtered(self, predicate: Callable[[Instruction], bool]) -> "Circuit":
        """Circuit keeping only instructions for which ``predicate`` holds."""
        return Circuit(
            self.num_qubits,
            [i for i in self if predicate(i)],
            name=self.name,
        )

    # ----------------------------------------------------------- analysis
    def depth(self) -> int:
        """Critical-path length counting every gate as one time step."""
        level = [0] * self.num_qubits
        for inst in self:
            t = max(level[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                level[q] = t
        return max(level, default=0)

    def count_ops(self) -> dict[str, int]:
        """Histogram of gate names."""
        out: dict[str, int] = {}
        for inst in self:
            out[inst.name] = out.get(inst.name, 0) + 1
        return out

    def num_two_qubit_gates(self) -> int:
        return sum(1 for i in self if len(i.qubits) == 2)

    def qubits_used(self) -> tuple[int, ...]:
        used = sorted({q for inst in self for q in inst.qubits})
        return tuple(used)

    def is_real(self) -> bool:
        """True iff every gate matrix is real (preserves real amplitudes).

        Real circuits acting on ``|0...0⟩`` produce real statevectors, which
        is the structural origin of Y-golden cutting points (DESIGN.md §1).
        """
        return all(get_gate_def(i.name).real for i in self)

    def parameters(self) -> list[float]:
        """All gate parameters in program order (for ansatz workflows)."""
        return [p for inst in self for p in inst.params]

    def __str__(self) -> str:
        body = "; ".join(str(i) for i in self._instructions[:8])
        more = "" if len(self) <= 8 else f"; ... ({len(self)} ops)"
        return f"Circuit<{self.name}, {self.num_qubits}q>[{body}{more}]"

    __repr__ = __str__
