"""Equivalence of multi-fragment chain cutting against brute-force references.

The PR that introduced :mod:`repro.cutting.chain`, the per-fragment cache
pool and the generalised einsum reconstruction must be exact physics plus a
pure performance change:

* the einsum contraction has to match the brute-force reference (a Python
  row-loop over the *full basis product across all cut groups*) to ≤ 1e-9,
  for 3- and 4-fragment chains, ideal and fake-hardware data, full and
  neglected basis pools;
* exact chain data has to reconstruct the uncut circuit's distribution
  exactly (hypothesis-driven over random chain circuits);
* the noisy chain fast path has to reproduce per-variant circuit execution
  bit-identically (counts, clock, metadata) while the cache pool performs
  exactly one body transpile per fragment;
* a two-fragment chain must agree with the pair viewed as a chain.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import IdealBackend
from repro.backends.base import Backend
from repro.backends.fake_hardware import FakeHardwareBackend
from repro.core.neglect import reduced_bases
from repro.core.pipeline import cut_and_run_chain
from repro.cutting import bipartition, chain_from_pair, partition_chain
from repro.cutting.execution import (
    _split_joint_probs,
    exact_chain_data,
    run_chain_fragments,
)
from repro.cutting.reconstruction import (
    build_chain_fragment_tensor,
    project_to_simplex,
    reconstruct_chain_distribution,
)
from repro.cutting.variants import chain_variant_tuples
from repro.harness.scaling import chain_cut_circuit
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.sim import simulate_statevector
from repro.transpile.coupling import CouplingMap
from repro.utils.rng import as_generator, derive_rng

from tests.oracles import (
    build_chain_fragment_tensor_reference,
    reconstruct_chain_distribution_reference,
)

TOL = 1e-9

_slow = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_chain(num_fragments, cuts_per_group, seed, **kwargs):
    qc, specs = chain_cut_circuit(
        num_fragments, cuts_per_group, fresh_per_fragment=2, depth=2,
        seed=seed, **kwargs,
    )
    return qc, partition_chain(qc, specs)


def make_noisy_device(num_qubits: int = 5) -> FakeHardwareBackend:
    nm = NoiseModel()
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    for q in range(num_qubits):
        nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return FakeHardwareBackend(
        CouplingMap.linear(num_qubits), nm, name="chain_test_5q"
    )


def noisy_chain_data(chain, dev, shots, seed, variants=None):
    """Chain data through the cached noisy fast path + cache pool."""
    pool = dev.make_chain_cache_pool(chain)
    return run_chain_fragments(
        chain, dev, shots=shots, variants=variants, seed=seed, pool=pool
    )


def neglected_bases(chain):
    """A mixed neglect pattern: first group Y-golden, last group X+Z-golden."""
    golden = [None] * chain.num_groups
    golden[0] = {0: "Y"}
    golden[-1] = {chain.group_sizes[-1] - 1: ("X", "Z")}
    return [
        reduced_bases(k, gm) if gm else [("I", "X", "Y", "Z")] * k
        for k, gm in zip(chain.group_sizes, golden)
    ]


def variants_for_bases(chain, bases):
    """Per-fragment (inits, setting) lists covering the given group pools."""
    from repro.cutting.variants import (
        downstream_init_tuples,
        upstream_setting_tuples,
    )

    out = []
    for i, frag in enumerate(chain.fragments):
        inits = (
            downstream_init_tuples(frag.num_prep, bases[i - 1])
            if frag.num_prep
            else [()]
        )
        settings = (
            upstream_setting_tuples(
                frag.num_meas,
                [tuple(m for m in pool if m != "I") for pool in bases[i]],
            )
            if frag.num_meas
            else [()]
        )
        out.append([(a, s) for a in inits for s in settings])
    return out


# ---------------------------------------------------------------------------
# einsum path vs brute-force reference
# ---------------------------------------------------------------------------


class TestEinsumMatchesBruteForce:
    @pytest.mark.parametrize(
        "num_fragments,cuts,seed",
        [(3, 1, 11), (3, 2, 12), (3, [1, 2], 13), (4, 1, 14), (4, [2, 1, 1], 15)],
    )
    def test_ideal_full_pools(self, num_fragments, cuts, seed):
        _, chain = make_chain(num_fragments, cuts, seed)
        data = exact_chain_data(chain)
        fast = reconstruct_chain_distribution(data, postprocess="raw")
        ref = reconstruct_chain_distribution_reference(data)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    @pytest.mark.parametrize(
        "num_fragments,cuts,seed", [(3, 2, 21), (4, 1, 22)]
    )
    def test_ideal_neglected_pools(self, num_fragments, cuts, seed):
        _, chain = make_chain(num_fragments, cuts, seed)
        bases = neglected_bases(chain)
        data = exact_chain_data(chain, variants=variants_for_bases(chain, bases))
        fast = reconstruct_chain_distribution(data, bases=bases, postprocess="raw")
        ref = reconstruct_chain_distribution_reference(data, bases=bases)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    @pytest.mark.parametrize("num_fragments,cuts,seed", [(3, 1, 31), (4, 1, 32)])
    def test_noisy_full_pools(self, num_fragments, cuts, seed):
        _, chain = make_chain(num_fragments, cuts, seed)
        dev = make_noisy_device()
        data = noisy_chain_data(chain, dev, shots=300, seed=seed)
        fast = reconstruct_chain_distribution(data, postprocess="raw")
        ref = reconstruct_chain_distribution_reference(data)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    def test_noisy_neglected_pools(self):
        _, chain = make_chain(3, 2, 33)
        bases = neglected_bases(chain)
        dev = make_noisy_device()
        data = noisy_chain_data(
            chain, dev, shots=200, seed=5,
            variants=variants_for_bases(chain, bases),
        )
        fast = reconstruct_chain_distribution(data, bases=bases, postprocess="raw")
        ref = reconstruct_chain_distribution_reference(data, bases=bases)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    def test_per_fragment_tensors_match_reference(self):
        _, chain = make_chain(3, [1, 2], 41)
        data = exact_chain_data(chain)
        for i in range(chain.num_fragments):
            fast, rp_f, rn_f = build_chain_fragment_tensor(data, i)
            ref, rp_r, rn_r = build_chain_fragment_tensor_reference(data, i)
            assert rp_f == rp_r and rn_f == rn_r
            np.testing.assert_allclose(fast, ref, atol=TOL)


# ---------------------------------------------------------------------------
# exactness against the uncut circuit
# ---------------------------------------------------------------------------


class TestChainExactness:
    @pytest.mark.parametrize(
        "num_fragments,cuts,seed",
        [(3, 1, 51), (3, 2, 52), (4, 1, 53), (4, [1, 2, 1], 54)],
    )
    def test_exact_data_reconstructs_truth(self, num_fragments, cuts, seed):
        qc, chain = make_chain(num_fragments, cuts, seed)
        data = exact_chain_data(chain)
        p = reconstruct_chain_distribution(data, postprocess="raw")
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=TOL)

    def test_two_fragment_chain_matches_pair_view(self):
        qc, specs = chain_cut_circuit(2, 2, fresh_per_fragment=2, depth=2, seed=61)
        pair = bipartition(qc, specs[0])
        chain = partition_chain(qc, specs)
        p_pair = reconstruct_chain_distribution(
            exact_chain_data(chain_from_pair(pair)), postprocess="raw"
        )
        p_chain = reconstruct_chain_distribution(
            exact_chain_data(chain), postprocess="raw"
        )
        np.testing.assert_allclose(p_chain, p_pair, atol=TOL)

    def test_chain_from_pair_view(self):
        qc, specs = chain_cut_circuit(2, 1, fresh_per_fragment=2, depth=2, seed=62)
        pair = bipartition(qc, specs[0])
        chain = chain_from_pair(pair)
        p_chain = reconstruct_chain_distribution(
            exact_chain_data(chain), postprocess="raw"
        )
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p_chain, truth, atol=TOL)

    def test_golden_neglect_stays_exact_on_golden_chain(self):
        """Y-golden chain circuit: neglecting Y per group costs no accuracy."""
        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=63, real_blocks=True
        )
        res = cut_and_run_chain(
            qc,
            IdealBackend(exact=True),
            specs,
            shots=1_000_000,
            golden="known",
            golden_maps=[{0: "Y"}, {0: "Y"}],
            seed=3,
            postprocess="raw",
        )
        truth = simulate_statevector(qc).probabilities()
        # exact=True backend rounds to integer counts at 1e6 shots
        np.testing.assert_allclose(res.probabilities, truth, atol=1e-5)
        full = cut_and_run_chain(
            qc, IdealBackend(exact=True), specs, shots=1_000_000, seed=3
        )
        assert res.total_executions < full.total_executions


# ---------------------------------------------------------------------------
# hypothesis property tests (satellite: random chain circuits)
# ---------------------------------------------------------------------------


class TestChainProperties:
    @_slow
    @given(
        seed=st.integers(0, 10_000),
        num_fragments=st.integers(3, 4),
        cuts=st.integers(1, 2),
    )
    def test_random_chain_reconstructs_uncut_distribution(
        self, seed, num_fragments, cuts
    ):
        """Fragment widths 2–4, 1–2 cuts per group: exact reconstruction."""
        if num_fragments == 4 and cuts == 2:
            cuts = [2, 1, 1]  # keep the row product small enough for CI
        qc, chain = make_chain(num_fragments, cuts, seed)
        assert all(2 <= f.num_qubits <= 4 for f in chain.fragments)
        data = exact_chain_data(chain)
        p = reconstruct_chain_distribution(data, postprocess="raw")
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-8)

    @_slow
    @given(seed=st.integers(0, 10_000))
    def test_simplex_projection_normalises_chain_output(self, seed):
        """Sampled chain data + simplex postprocess = a genuine distribution."""
        qc, chain = make_chain(3, 1, seed)
        dev = IdealBackend()
        data = run_chain_fragments(
            chain, dev, shots=64, seed=seed,
            pool=dev.make_chain_cache_pool(chain),
        )
        p = reconstruct_chain_distribution(data, postprocess="simplex")
        assert np.all(p >= 0)
        assert np.isclose(p.sum(), 1.0)
        # and the projection itself is idempotent on its output
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)


# ---------------------------------------------------------------------------
# noisy fast path: bit-identical to per-variant execution; pool call counts
# ---------------------------------------------------------------------------


class TestNoisyChainFastPath:
    def test_counts_clock_and_metadata_identical_to_execution(self):
        """Acceptance: every fragment's cached variants equal submitting the
        logical chain_variant circuits through ``run`` — bit for bit."""
        _, chain = make_chain(3, 1, 71)
        fast_dev = make_noisy_device()
        ref_dev = make_noisy_device()
        for i in range(chain.num_fragments):
            combos = chain_variant_tuples(chain, i)
            fast = fast_dev.run_chain_variants(
                chain, i, combos, shots=2000, seed=17 + i
            )
            ref = Backend.run_chain_variants(
                ref_dev, chain, i, combos, shots=2000, seed=17 + i
            )
            assert len(fast) == len(ref)
            for f, r in zip(fast, ref):
                assert f.counts == r.counts
                assert f.seconds == pytest.approx(r.seconds, rel=1e-12)
                assert (
                    f.metadata["transpiled_ops"] == r.metadata["transpiled_ops"]
                )
                assert f.metadata["layout"] == r.metadata["layout"]
        assert fast_dev.clock.now == pytest.approx(ref_dev.clock.now, rel=1e-12)
        assert [lbl for lbl, _ in fast_dev.clock.log] == [
            lbl for lbl, _ in ref_dev.clock.log
        ]

    def test_run_chain_fragments_matches_per_variant_records(self):
        """run_chain_fragments through the pool == per-variant submission."""
        _, chain = make_chain(3, 1, 72)
        dev = make_noisy_device()
        data = noisy_chain_data(chain, dev, shots=1500, seed=9)
        ref_dev = make_noisy_device()
        rng = as_generator(9)
        for i in range(chain.num_fragments):
            frag = chain.fragments[i]
            combos = chain_variant_tuples(chain, i)
            results = Backend.run_chain_variants(
                ref_dev, chain, i, combos, shots=1500,
                seed=derive_rng(rng, 0x60 + i),
            )
            for combo, res in zip(combos, results):
                np.testing.assert_array_equal(
                    data.records[i][combo],
                    _split_joint_probs(
                        res.probabilities(), frag.out_local, frag.cut_local
                    ),
                )
        assert data.modeled_seconds == pytest.approx(
            ref_dev.clock.now, rel=1e-12
        )

    @pytest.mark.parametrize("num_fragments", [3, 4])
    def test_pool_transpiles_once_per_fragment(self, num_fragments):
        """Acceptance: the cache pool does one body transpile/evolution bank
        per fragment, however many variants are served."""
        _, chain = make_chain(num_fragments, 1, 73)
        dev = make_noisy_device()
        pool = dev.make_chain_cache_pool(chain)
        noisy_chain_data(chain, dev, shots=100, seed=1)  # fresh pool inside
        data = run_chain_fragments(
            chain, dev, shots=100, seed=1, pool=pool
        )
        assert data.num_variants == sum(
            len(chain_variant_tuples(chain, i))
            for i in range(chain.num_fragments)
        )
        for i, cache in enumerate(pool):
            frag = chain.fragments[i]
            assert cache.stats["transpiles"] == 1
            assert cache.stats["body_evolutions"] == 4**frag.num_prep
            expected_rot = 3**frag.num_meas if frag.num_meas else 0
            assert cache.stats["rotation_evolutions"] == expected_rot
        # re-serving the same variants costs nothing new
        run_chain_fragments(chain, dev, shots=100, seed=2, pool=pool)
        for cache in pool:
            assert cache.stats["transpiles"] == 1

    def test_ideal_pool_shared_and_exactness_of_sampled_limit(self):
        """Ideal chain fast path converges to the exact reconstruction."""
        qc, chain = make_chain(3, 1, 74)
        dev = IdealBackend(exact=True)
        pool = dev.make_chain_cache_pool(chain)
        data = run_chain_fragments(
            chain, dev, shots=2_000_000, seed=0, pool=pool
        )
        p = reconstruct_chain_distribution(data, postprocess="raw")
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-5)

    def test_exact_chain_data_rejects_noisy_pool(self):
        """Exact data is an ideal notion: a noisy pool is refused loudly."""
        from repro.exceptions import CutError

        _, chain = make_chain(3, 1, 75)
        noisy_pool = make_noisy_device().make_chain_cache_pool(chain)
        with pytest.raises(CutError):
            exact_chain_data(chain, pool=noisy_pool)

    def test_exact_chain_data_rejects_foreign_chain_pool(self):
        """A pool built for another chain must raise, not silently serve the
        other chain's distributions."""
        from repro.exceptions import CutError

        _, chain_a = make_chain(3, 1, 76)
        _, chain_b = make_chain(3, 1, 77)
        pool_a = IdealBackend().make_chain_cache_pool(chain_a)
        with pytest.raises(CutError):
            exact_chain_data(chain_b, pool=pool_a)


# ---------------------------------------------------------------------------
# chain variance model
# ---------------------------------------------------------------------------


class TestChainVariance:
    def test_exact_data_has_zero_variance(self):
        from repro.cutting.variance import chain_reconstruction_variance

        _, chain = make_chain(3, 1, 91)
        var = chain_reconstruction_variance(exact_chain_data(chain))
        assert var.shape == (1 << len(chain.output_order()),)
        np.testing.assert_array_equal(var, 0.0)

    def test_prediction_tracks_empirical_variance(self):
        """The delta-method prediction tracks the true sampling variance of
        reconstructed entries within a small factor (aggregate)."""
        from repro.cutting.variance import (
            chain_predicted_stddev_tv,
            chain_reconstruction_variance,
        )

        _, chain = make_chain(3, 1, 93)
        dev = IdealBackend()
        shots = 400
        reps = []
        predicted = None
        for r in range(30):
            data = run_chain_fragments(
                chain, dev, shots=shots, seed=1000 + r,
                pool=dev.make_chain_cache_pool(chain),
            )
            reps.append(
                reconstruct_chain_distribution(data, postprocess="raw")
            )
            if predicted is None:
                predicted = chain_reconstruction_variance(data)
                assert chain_predicted_stddev_tv(data) > 0
        empirical = np.var(np.stack(reps), axis=0)
        ratio = predicted.sum() / empirical.sum()
        assert 0.3 < ratio < 3.0
