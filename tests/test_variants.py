"""Unit tests for measurement/preparation variant generation."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.cutting import (
    PREPARATION_STATES,
    downstream_init_tuples,
    tree_variant,
    upstream_setting_tuples,
)
from repro.cutting.variants import preparations_for_bases
from repro.exceptions import CutError
from repro.linalg.paulis import pauli_eigenpairs
from repro.sim import simulate_statevector

from tests.helpers import pair_tree


@pytest.fixture
def simple_tree(simple_cut_pair):
    """The single cut of the shared fixture as its 2-node tree."""
    qc, spec, _ = simple_cut_pair
    return pair_tree(qc, spec)


def _gates(circuit) -> int:
    """Number of real gates (barriers are fences, not operations)."""
    return sum(1 for inst in circuit if inst.name != "barrier")


class TestPreparationStates:
    """The six preparation codes must build the advertised eigenstates."""

    _EXPECT = {
        "Z+": ("Z", 0),
        "Z-": ("Z", 1),
        "X+": ("X", 0),
        "X-": ("X", 1),
        "Y+": ("Y", 0),
        "Y-": ("Y", 1),
    }

    @pytest.mark.parametrize("code", sorted(PREPARATION_STATES))
    def test_prepares_eigenstate(self, code):
        qc = Circuit(1)
        for g in PREPARATION_STATES[code]:
            qc.add_gate(g, (0,))
        state = simulate_statevector(qc).vector()
        basis, idx = self._EXPECT[code]
        _, ket = pauli_eigenpairs(basis)[idx]
        overlap = abs(np.vdot(ket, state))
        assert np.isclose(overlap, 1.0, atol=1e-12)

    def test_preparations_for_bases(self):
        assert preparations_for_bases(["I", "Z"]) == ("Z+", "Z-")
        assert len(preparations_for_bases(["I", "X", "Y", "Z"])) == 6
        assert len(preparations_for_bases(["I", "X", "Z"])) == 4  # Y dropped
        assert len(preparations_for_bases(["I", "X", "Y"])) == 6  # Z shared with I


class TestSettingTuples:
    def test_default_counts(self):
        assert len(upstream_setting_tuples(1)) == 3
        assert len(upstream_setting_tuples(2)) == 9
        assert len(downstream_init_tuples(1)) == 6
        assert len(downstream_init_tuples(2)) == 36

    def test_restricted(self):
        ts = upstream_setting_tuples(2, [("X", "Z"), ("Y",)])
        assert len(ts) == 2
        assert all(t[1] == "Y" for t in ts)

    def test_invalid_setting_rejected(self):
        with pytest.raises(CutError):
            upstream_setting_tuples(1, [("Q",)])
        with pytest.raises(CutError):
            upstream_setting_tuples(1, [()])


class TestMeasuringVariant:
    """The root of the single cut: body, fence, terminal rotations."""

    def test_measurement_basis_rotation(self, simple_tree):
        """Measuring the variant in Z == measuring the fragment in `basis`."""
        root = simple_tree.fragments[0]
        base = simulate_statevector(root.circuit)
        cut_q = root.cut_local[0]
        for basis in ("X", "Y", "Z"):
            var = tree_variant(simple_tree, 0, (), (basis,))
            probs = simulate_statevector(var).probabilities()
            # exact check: P(cut bit = 0) equals <P_+> of the basis on the
            # untouched fragment state
            _, ket = pauli_eigenpairs(basis)[0]
            proj = np.outer(ket, ket.conj())
            expect = base.expectation(proj, (cut_q,)).real
            p0 = sum(
                p for i, p in enumerate(probs) if not (i >> cut_q) & 1
            )
            assert np.isclose(p0, expect, atol=1e-10), basis

    def test_z_variant_adds_nothing(self, simple_tree):
        """Z appends no rotation gates — only the body/variant fence."""
        var = tree_variant(simple_tree, 0, (), ("Z",))
        assert _gates(var) == _gates(simple_tree.fragments[0].circuit)
        assert var[-1].name == "barrier"

    def test_wrong_tuple_length(self, simple_tree):
        with pytest.raises(CutError):
            tree_variant(simple_tree, 0, (), ("X", "Y"))

    def test_invalid_basis(self, simple_tree):
        with pytest.raises(CutError):
            tree_variant(simple_tree, 0, (), ("I",))


class TestPreparingVariant:
    """The leaf of the single cut: preparations, fence, body."""

    def test_prep_gates_prepended(self, simple_tree):
        leaf = simple_tree.fragments[1]
        var = tree_variant(simple_tree, 1, ("Y+",), ())
        assert _gates(var) == _gates(leaf.circuit) + 2  # h, s
        assert var[0].name == "h" and var[1].name == "s"
        assert var[0].qubits == (leaf.prep_local[0],)
        assert var[2].name == "barrier"  # preps fenced off from the body

    def test_zplus_adds_nothing(self, simple_tree):
        """Z+ prepends no gates — only the variant/body fence."""
        var = tree_variant(simple_tree, 1, ("Z+",), ())
        assert _gates(var) == _gates(simple_tree.fragments[1].circuit)
        assert var[0].name == "barrier"

    def test_invalid_code(self, simple_tree):
        with pytest.raises(CutError):
            tree_variant(simple_tree, 1, ("Q+",), ())

    def test_wrong_tuple_length(self, simple_tree):
        with pytest.raises(CutError):
            tree_variant(simple_tree, 1, (), ())
