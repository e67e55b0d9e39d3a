"""Count vectors from the sampler to the fragment record.

Backends return each variant's counts as a :class:`~repro.sim.sampler.Counts`
(one integer vector with a lazy bitstring-dict view); fragment records are
one transposing copy of ``counts / total``.  Pinned here:

* ``Counts`` behaves as the plain dict the sampler used to return;
* the vector paths of ``counts_to_probs`` / ``validate_execution_result``
  reject what the dict paths reject;
* records are bit-identical to the dict parse + index scatter oracles for
  ideal-sampled, ideal-exact and noisy fragments, in serial, thread and
  process modes and on the retry path;
* the bitstring dict is never built on the fragment-execution path.
"""

import pickle

import numpy as np
import pytest

from repro.backends import (
    FaultInjectionBackend,
    FaultPlan,
    FaultyBackendFactory,
    IdealBackend,
    fake_5q_device,
    validate_execution_result,
)
from repro.backends.base import ExecutionResult
from repro.cutting import AttemptLedger, RetryPolicy, partition_tree
from repro.cutting.execution import _split_joint_probs, run_tree_fragments
from repro.exceptions import CorruptedResultError, SimulationError
from repro.harness.scaling import tree_cut_circuit
from repro.parallel import run_tree_fragments_parallel
from repro.sim.sampler import Counts, counts_to_probs, probs_to_counts, sample_counts

from tests.oracles import counts_to_probs_reference, split_joint_probs_reference


def _tree(parents=(0, 0), seed=83):
    qc, specs = tree_cut_circuit(
        list(parents), 1, fresh_per_fragment=2, depth=2, seed=seed
    )
    return partition_tree(qc, specs)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCountsMapping:
    def _counts(self):
        return Counts(np.array([0, 5, 0, 3, 7, 0, 0, 1], dtype=np.int64), 3)

    def test_equals_the_plain_dict(self):
        plain = {"100": 5, "110": 3, "001": 7, "111": 1}
        c = self._counts()
        assert c == plain and plain == c
        assert dict(c) == plain
        assert c != {"100": 5}
        assert len(c) == 4
        assert c["001"] == 7
        assert "000" not in c

    def test_iterates_in_ascending_index_order(self):
        assert list(self._counts()) == ["100", "110", "001", "111"]
        assert list(self._counts().values()) == [5, 3, 7, 1]

    def test_counts_compare_by_vector(self):
        assert self._counts() == self._counts()
        bumped = self._counts().array.copy()
        bumped[1] += 1
        assert self._counts() != Counts(bumped, 3)
        assert Counts(np.zeros(4, dtype=np.int64), 2) != Counts(
            np.zeros(4, dtype=np.int64), 3
        )

    def test_pickle_round_trip(self):
        c = self._counts()
        back = pickle.loads(pickle.dumps(c))
        assert isinstance(back, Counts)
        assert back == c and back.num_qubits == 3
        assert _bitwise_equal(back.array, c.array)

    def test_sampler_returns_counts_equal_to_the_old_dicts(self):
        p = np.array([0.1, 0.0, 0.4, 0.5])
        counts = sample_counts(p, 1000, seed=7)
        draws = np.random.default_rng(7).multinomial(1000, p / p.sum())
        old = {format(i, "02b")[::-1]: int(draws[i]) for i in np.nonzero(draws)[0]}
        assert isinstance(counts, Counts) and counts == old
        assert probs_to_counts(np.array([0.25, 0.0, 0.0, 0.75]), 4) == {
            "00": 1,
            "11": 3,
        }


class TestSamplerValidation:
    def test_probs_to_counts_rejects_bad_length(self):
        with pytest.raises(SimulationError, match="2\\^n"):
            probs_to_counts(np.ones(3) / 3, 10)
        with pytest.raises(SimulationError, match="2\\^n"):
            probs_to_counts(np.ones(4) / 4, 10, num_qubits=3)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_probs_to_counts_rejects_non_positive_shots(self, shots):
        with pytest.raises(SimulationError, match="positive"):
            probs_to_counts(np.array([0.5, 0.5]), shots)

    def test_probs_to_counts_drops_negative_quasi_probabilities(self):
        counts = probs_to_counts(np.array([0.6, -0.1, 0.5, 0.0]), 10)
        assert counts == {"00": 6, "01": 5}
        assert counts.array.min() == 0

    def test_counts_to_probs_rejects_non_integer_counts(self):
        with pytest.raises(SimulationError, match="non-integer"):
            counts_to_probs({"00": 50.5, "11": 49.5}, 2)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([1, 2, 3], dtype=np.int64),  # not 2^n long
            np.array([1.0, 0.0, 0.0, 1.0]),  # float dtype
            np.array([3, -1, 0, 2], dtype=np.int64),  # negative entry
            np.zeros(4, dtype=np.int64),  # empty sample
        ],
    )
    def test_counts_to_probs_vector_path_rejects(self, array):
        with pytest.raises(SimulationError):
            counts_to_probs(Counts(array, 2), 2)

    def test_vector_path_matches_the_dict_oracle_bitwise(self, rng):
        for n in (1, 3, 6):
            p = rng.random(1 << n)
            counts = sample_counts(p / p.sum(), 997, seed=n)
            assert _bitwise_equal(
                counts_to_probs(counts, n),
                counts_to_probs_reference(dict(counts), n),
            )


class TestValidateCountVector:
    def _result(self, array, shots=100, exact=False):
        return ExecutionResult(
            counts=Counts(np.asarray(array), 2),
            shots=shots,
            num_qubits=2,
            metadata={"exact": exact},
        )

    def test_valid_vector_passes(self):
        validate_execution_result(self._result([60, 0, 0, 40]), 100, 2)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([60, 0, 40], dtype=np.int64),
            np.array([60.0, 0.0, 0.0, 40.0]),
            np.array([101, -1, 0, 0], dtype=np.int64),
            np.array([60, 0, 0, 41], dtype=np.int64),
        ],
        ids=["wrong-length", "float-dtype", "negative", "total-mismatch"],
    )
    def test_rejects(self, array):
        with pytest.raises(CorruptedResultError):
            validate_execution_result(self._result(array), 100, 2)

    def test_exact_mode_skips_only_the_total_check(self):
        validate_execution_result(self._result([60, 0, 0, 41], exact=True), 100, 2)
        with pytest.raises(CorruptedResultError):
            validate_execution_result(
                self._result([61, -1, 0, 40], exact=True), 100, 2
            )


class TestSplitJointProbs:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_scatter_oracle_bitwise(self, rng, dtype):
        for n, k in [(1, 0), (1, 1), (3, 1), (4, 2), (6, 3), (5, 5)]:
            perm = [int(q) for q in rng.permutation(n)]
            out_local, cut_local = perm[: n - k], perm[n - k :]
            p = rng.random(1 << n)
            got = _split_joint_probs(p, out_local, cut_local, dtype)
            assert got.flags.c_contiguous and got.flags.writeable
            assert _bitwise_equal(
                got, split_joint_probs_reference(p, out_local, cut_local, dtype)
            )

    def test_record_owns_its_data(self):
        # no view over a scratch array: one array object per record
        p = np.arange(8, dtype=np.float64)
        rec = _split_joint_probs(p, [2, 0], [1])
        assert rec.base is None and not np.shares_memory(rec, p)


def _spy_backend(backend, seen):
    """Record every result ``backend.run_tree_variants`` hands out."""
    inner = backend.run_tree_variants

    def run_tree_variants(tree, index, combos, **kwargs):
        results = inner(tree, index, combos, **kwargs)
        seen.extend((index, tuple(c), r) for c, r in zip(combos, results))
        return results

    backend.run_tree_variants = run_tree_variants
    return backend


def _reference_records(tree, seen, dtype=np.float64):
    records = [{} for _ in tree.fragments]
    for index, combo, res in seen:
        frag = tree.fragments[index]
        probs = counts_to_probs_reference(dict(res.counts), res.num_qubits)
        records[index][combo] = split_joint_probs_reference(
            probs, frag.out_local, frag.cut_local, dtype
        )
    return records


def _assert_records_bitwise(data, records):
    for got, want in zip(data.records, records):
        assert set(got) == set(want)
        for combo, rec in want.items():
            assert _bitwise_equal(got[combo], rec), combo


_BACKENDS = {
    "ideal-sampled": IdealBackend,
    "ideal-exact": lambda: IdealBackend(exact=True),
    "noisy": fake_5q_device,
}


class TestRecordsPinnedToOracles:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("flavour", sorted(_BACKENDS))
    def test_serial_records(self, flavour, dtype):
        tree = _tree()
        seen = []
        backend = _spy_backend(_BACKENDS[flavour](), seen)
        data = run_tree_fragments(tree, backend, shots=500, seed=4, dtype=dtype)
        assert len(seen) == data.num_variants
        _assert_records_bitwise(data, _reference_records(tree, seen, dtype))

    @pytest.mark.parametrize("flavour", sorted(_BACKENDS))
    def test_thread_and_process_records(self, flavour):
        tree = _tree()
        seen = []

        def spied():
            return _spy_backend(_BACKENDS[flavour](), seen)

        serial = run_tree_fragments_parallel(
            tree, spied, shots=400, seed=6, mode="serial"
        )
        reference = _reference_records(tree, seen)
        _assert_records_bitwise(serial, reference)
        thread = run_tree_fragments_parallel(
            tree, _BACKENDS[flavour], shots=400, seed=6, max_workers=2, mode="thread"
        )
        _assert_records_bitwise(thread, reference)
        if flavour == "ideal-exact":
            return  # a lambda factory does not pickle; the others cover it
        process = run_tree_fragments_parallel(
            tree, _BACKENDS[flavour], shots=400, seed=6, max_workers=2, mode="process"
        )
        _assert_records_bitwise(process, reference)

    @pytest.mark.parametrize("flavour", ["ideal-sampled", "noisy"])
    def test_retry_path_catches_corruptions(self, flavour):
        """Corrupted payloads (plain dicts) fail validation, are retried on
        their original streams, and the records match the oracle records
        of the fault-free run."""
        tree = _tree()
        seen = []
        clean = run_tree_fragments(
            tree, _spy_backend(_BACKENDS[flavour](), seen), shots=300, seed=9
        )
        reference = _reference_records(tree, seen)
        _assert_records_bitwise(clean, reference)
        plan = FaultPlan(seed=2, corrupt_rate=0.3, shortfall_rate=0.1)
        ledger = AttemptLedger()
        faulty = run_tree_fragments(
            tree,
            FaultInjectionBackend(_BACKENDS[flavour](), plan),
            shots=300,
            seed=9,
            retry=RetryPolicy(max_attempts=10),
            ledger=ledger,
        )
        outcomes = ledger.summary()["outcomes"]
        assert outcomes.get("corrupt", 0) > 0
        _assert_records_bitwise(faulty, reference)
        threaded = run_tree_fragments_parallel(
            tree,
            FaultyBackendFactory(IdealBackend, plan)
            if flavour == "ideal-sampled"
            else FaultyBackendFactory(fake_5q_device, plan),
            shots=300,
            seed=9,
            mode="thread",
            max_workers=2,
            retry=RetryPolicy(max_attempts=10),
        )
        assert threaded.metadata["retry"]["outcomes"].get("corrupt", 0) > 0


class TestNoBitstringDictOnTheHotPath:
    @pytest.mark.parametrize("flavour", sorted(_BACKENDS))
    def test_fragment_execution_never_formats_bitstrings(self, flavour, monkeypatch):
        import repro.sim.sampler as sampler

        calls = []
        real = sampler.format_bitstring

        def spy(index, num_qubits):
            calls.append(index)
            return real(index, num_qubits)

        monkeypatch.setattr(sampler, "format_bitstring", spy)
        tree = _tree()
        run_tree_fragments(tree, _BACKENDS[flavour](), shots=200, seed=1)
        run_tree_fragments_parallel(
            tree, _BACKENDS[flavour], shots=200, seed=1, mode="thread"
        )
        assert calls == []
        # the spy is live: reading counts as a mapping does format
        dict(sample_counts(np.array([0.5, 0.5]), 10, seed=0))
        assert calls


class TestExactModeStreams:
    def test_exact_mode_spawns_no_streams(self):
        tree = _tree()
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        IdealBackend(exact=True).run_tree_variants(
            tree, 0, [((), ("Z", "Z"))], shots=100, seed=gen
        )
        assert gen.bit_generator.state == state

    def test_supplied_stream_list_is_still_length_checked(self):
        tree = _tree()
        combos = [((), ("Z", "Z")), ((), ("X", "Z"))]
        with pytest.raises(ValueError, match="pre-built"):
            IdealBackend(exact=True).run_tree_variants(
                tree, 0, combos, shots=100, seed=[np.random.default_rng(0)]
            )
