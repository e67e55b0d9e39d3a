"""Per-group golden detection for fragment chains — statistical calibration.

The chain generalisation of the Definition-1 machinery must be

* **exact**: ``chain_definition1_deviation`` equals a brute-force loop over
  (prep context × setting × outcome) and is exactly 0 on analytically
  golden constructions (hypothesis-driven);
* **conditional**: the analytic sweep finds joint goldenness a pointwise
  per-group test cannot (real chains are Y-golden only *because* the
  previous group neglects Y);
* **calibrated**: over many seeded pilot trials, planted golden bases are
  essentially never rejected (family-wise false-rejection rate ≤ α) while
  truly informative bases are flagged with power ≥ 0.9 at the benchmarked
  pilot budget;
* **profitable**: ``golden="detect"`` matches ``golden="known"`` pool
  sizes in ≥ 90 % of trials and beats ``golden="off"`` TV error at equal
  total shots, while the whole pilot+production pipeline still costs
  exactly N body transpiles (law pinned in
  ``test_noisy_fast_path_equivalence.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import IdealBackend
from repro.backends.devices import fake_device
from repro.core.detection import detect_chain_golden_bases
from repro.core.golden import (
    chain_definition1_deviation,
    find_chain_golden_bases_analytic,
    select_all_golden,
)
from repro.core.neglect import spanning_init_tuples
from repro.core.pipeline import cut_and_run_chain
from repro.cutting.chain import partition_chain
from repro.cutting.execution import exact_chain_data, run_chain_fragments
from repro.cutting.shots import allocate_chain_pilot_shots
from repro.cutting.variants import upstream_setting_tuples
from repro.exceptions import CutError, DetectionError
from repro.harness.scaling import chain_cut_circuit, golden_chain_circuit
from repro.metrics import total_variation
from repro.sim import simulate_statevector

#: calibration workload: 4-fragment chain, groups 0 and 1 planted X/Y-golden,
#: group 2 regular with analytically verified deviations ≥ 0.4 in every basis
#: (asserted below before the statistics rely on it).
_CAL_SEED = 13
_ALPHA = 1e-3
_PILOT = 2000


def _calibration_chain():
    qc, specs, planted = golden_chain_circuit(
        4, planted_groups=(0, 1), seed=_CAL_SEED
    )
    return qc, specs, planted


def _group_pilot_data(chain, group, contexts, shots=0, backend=None, seed=0):
    """Exact (shots=0) or sampled single-fragment data for one cut group."""
    combos = [
        (a, s)
        for a in contexts
        for s in upstream_setting_tuples(chain.fragments[group].num_meas)
    ]
    variants = [None] * chain.num_fragments
    variants[group] = combos
    if shots:
        return run_chain_fragments(
            chain, backend, shots=shots, variants=variants, seed=seed
        )
    return exact_chain_data(chain, variants=variants)


def _brute_force_deviation(data, group, cut, basis):
    """Reference semantics: a Python loop over every context."""
    K = data.chain.group_sizes[group]
    worst = 0.0
    for (inits, setting), A in data.records[group].items():
        if setting[cut] != basis:
            continue
        for b_out in range(A.shape[0]):
            for r in range(1 << K):
                if (r >> cut) & 1:
                    continue
                worst = max(
                    worst, abs(A[b_out, r] - A[b_out, r | (1 << cut)])
                )
    return worst


class TestChainDeviation:
    """Satellite: vectorised chain deviation == brute force, 0 on golden."""

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interior_matches_brute_force(self, seed):
        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=seed
        )
        chain = partition_chain(qc, specs)
        # interior fragment (group 1's upstream side) over the full 6^K
        # physical context pool times all settings
        from repro.cutting.variants import downstream_init_tuples

        data = _group_pilot_data(chain, 1, downstream_init_tuples(1))
        for cut in range(chain.group_sizes[1]):
            for basis in ("X", "Y", "Z"):
                fast = chain_definition1_deviation(data, 1, cut, basis)
                slow = _brute_force_deviation(data, 1, cut, basis)
                assert fast == pytest.approx(slow, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exactly_zero_on_planted_golden(self, seed):
        """X and Y deviations vanish identically on the planted group, for
        every entering preparation context (the unconditional plant)."""
        qc, specs, _ = golden_chain_circuit(3, planted_groups=(1,), seed=seed)
        chain = partition_chain(qc, specs)
        from repro.cutting.variants import downstream_init_tuples

        data = _group_pilot_data(chain, 1, downstream_init_tuples(1))
        assert chain_definition1_deviation(data, 1, 0, "X") == 0.0
        assert chain_definition1_deviation(data, 1, 0, "Y") == 0.0
        # Z reads the computational eigenstate: maximal information
        assert chain_definition1_deviation(data, 1, 0, "Z") > 0.1

    def test_first_group_matches_single_cut(self):
        """Group 0's fragment has no prep side: the chain deviation equals
        the single-cut (2-node tree) deviation on the same measuring root."""
        from repro.cutting.tree import partition_tree

        qc, specs, _ = golden_chain_circuit(3, planted_groups=(), seed=4)
        chain = partition_chain(qc, specs)
        data = _group_pilot_data(chain, 0, [()])
        pair = partition_tree(qc, specs[:1])
        pair_data = _group_pilot_data(pair, 0, [()])
        for basis in ("X", "Y", "Z"):
            assert chain_definition1_deviation(
                data, 0, 0, basis
            ) == pytest.approx(
                chain_definition1_deviation(pair_data, 0, 0, basis), abs=1e-9
            )

    def test_error_paths(self):
        qc, specs, _ = golden_chain_circuit(3, seed=1)
        chain = partition_chain(qc, specs)
        data = _group_pilot_data(chain, 1, spanning_init_tuples(1))
        with pytest.raises(DetectionError):
            chain_definition1_deviation(data, 1, 0, "I")
        with pytest.raises(DetectionError):
            chain_definition1_deviation(data, 5, 0, "Y")
        with pytest.raises(DetectionError):
            chain_definition1_deviation(data, 1, 3, "Y")
        with pytest.raises(DetectionError):
            # fragment 0 was skipped in this partial pass: no variants
            chain_definition1_deviation(data, 0, 0, "Y")


class TestAnalyticChainFinder:
    def test_planted_groups_found(self):
        qc, specs, planted = _calibration_chain()
        chain = partition_chain(qc, specs)
        found, selected = find_chain_golden_bases_analytic(chain)
        assert found[0][0] == ["X", "Y"]
        assert found[1][0] == ["X", "Y"]
        assert found[2][0] == []
        assert selected == [{0: ("X", "Y")}, {0: ("X", "Y")}, None]

    def test_conditional_sweep_beats_pointwise(self):
        """A real-amplitude chain is jointly Y-golden, but only because the
        sweep conditions group 1's contexts on group 0's neglect: fed the
        full context pool (including Y rows) the same fragment is *not*
        Y-golden.  This is the multi-group analogue of the Bell-pair
        subtlety in the pair finder."""
        for seed in (21, 22, 23):
            qc, specs = chain_cut_circuit(
                3, 1, fresh_per_fragment=2, depth=2, seed=seed,
                real_blocks=True,
            )
            chain = partition_chain(qc, specs)
            found, selected = find_chain_golden_bases_analytic(chain)
            assert "Y" in found[0][0]
            assert "Y" in found[1][0]
            # pointwise over the unconditioned (full) context pool, Y at
            # group 1 must fail for at least one seed's Y⊗Y-type context
            data = _group_pilot_data(chain, 1, spanning_init_tuples(1))
            dev_full = chain_definition1_deviation(data, 1, 0, "Y")
            if dev_full > 1e-6:
                return
        pytest.fail("every real chain accidentally pointwise-golden")

    def test_selection_policy_conditions_contexts(self):
        """A custom selection that keeps everything (neglects nothing)
        widens the next group's context pool — and on a real chain that
        kills group 1's Y-goldenness."""
        for seed in (21, 22, 23):
            qc, specs = chain_cut_circuit(
                3, 1, fresh_per_fragment=2, depth=2, seed=seed,
                real_blocks=True,
            )
            chain = partition_chain(qc, specs)
            found_all, _ = find_chain_golden_bases_analytic(chain)
            found_none, selected_none = find_chain_golden_bases_analytic(
                chain, select=lambda found: {}
            )
            assert selected_none == [None, None]
            assert found_none[0] == found_all[0]  # group 0 unconditioned
            if found_none[1][0] != found_all[1][0]:
                assert "Y" not in found_none[1][0]
                return
        pytest.fail("selection policy never changed the verdict")

    def test_select_all_golden_helper(self):
        assert select_all_golden({0: ["X", "Y"], 1: []}) == {0: ("X", "Y")}
        assert select_all_golden({0: []}) == {}

    def test_shares_ideal_pool(self):
        """Passing the pipeline's ideal pool costs no extra body sims."""
        qc, specs, _ = _calibration_chain()
        chain = partition_chain(qc, specs)
        backend = IdealBackend()
        pool = backend.make_chain_cache_pool(chain)
        found, _ = find_chain_golden_bases_analytic(chain, pool=pool)
        assert found[2][0] == []
        # the pool now serves production reads from the same cached bodies
        data = exact_chain_data(chain, pool=pool)
        assert data.num_variants > 0


def _family_truth(planted_groups):
    """candidate (group, basis) → is it truly golden in the plant?"""

    def truly_golden(group, basis):
        return group in planted_groups and basis in ("X", "Y")

    return truly_golden


class TestDetectionCalibration:
    """Satellite: seeded Monte-Carlo calibration of the chain detector."""

    TRIALS = 80

    @pytest.fixture(scope="class")
    def verified_chain(self):
        """The calibration chain, with the regular group's deviations
        analytically certified large enough for the pilot budget."""
        qc, specs, planted = _calibration_chain()
        chain = partition_chain(qc, specs)
        found, selected = find_chain_golden_bases_analytic(chain)
        assert selected[:2] == [{0: ("X", "Y")}, {0: ("X", "Y")}]
        data = _group_pilot_data(
            chain, 2, spanning_init_tuples(1, selected[1])
        )
        for basis in ("X", "Y", "Z"):
            assert chain_definition1_deviation(data, 2, 0, basis) > 0.4
        return qc, specs, planted

    def test_fwer_and_power(self, verified_chain):
        """Family-wise false-rejection rate ≤ α; power ≥ 0.9.

        Trials are seeded, so the observed counts are deterministic; the
        assertions are the statistical contract they must stay within.
        With exactly-zero planted deviations the Bonferroni construction
        keeps per-candidate rejection probability ≤ α, and the certified
        ≥ 0.4 deviations give z ≈ 18 at 2000 pilot shots, so both margins
        are wide.
        """
        qc, specs, planted = verified_chain
        backend = IdealBackend()
        truly_golden = _family_truth((0, 1))
        golden_candidates = 0
        false_rejections = 0
        powered_trials = 0
        for trial in range(self.TRIALS):
            res = cut_and_run_chain(
                qc, backend, specs, shots=50, golden="detect",
                pilot_shots=_PILOT, alpha=_ALPHA, exploit_all=True,
                seed=trial,
            )
            all_informative_flagged = True
            for group_results in res.detection:
                for r in group_results:
                    if truly_golden(r.group, r.basis):
                        golden_candidates += 1
                        if not r.is_golden:
                            false_rejections += 1
                    elif r.is_golden:
                        all_informative_flagged = False
            powered_trials += 1 if all_informative_flagged else 0
        # family-wise false-rejection rate over all golden candidates
        assert golden_candidates == self.TRIALS * 4  # X,Y × 2 planted groups
        assert false_rejections / golden_candidates <= _ALPHA
        # power: every truly informative basis flagged, per trial
        assert powered_trials / self.TRIALS >= 0.9

    def test_detect_matches_known_pool_sizes(self, verified_chain):
        """Acceptance: ≥ 90 % of seeded trials reproduce the known-mode
        variant pools exactly (3-fragment sub-criterion covered by the
        dedicated test below)."""
        qc, specs, planted = verified_chain
        backend = IdealBackend()
        known = cut_and_run_chain(
            qc, backend, specs, shots=50, golden="known",
            golden_maps=planted, seed=0,
        )
        matches = 0
        for trial in range(40):
            det = cut_and_run_chain(
                qc, backend, specs, shots=50, golden="detect",
                pilot_shots=_PILOT, alpha=_ALPHA, exploit_all=True,
                seed=trial,
            )
            if (
                det.costs["variants_per_fragment"]
                == known.costs["variants_per_fragment"]
                and det.golden_used
                == [dict((k, tuple(v) if not isinstance(v, str) else (v,))
                         for k, v in gm.items()) if gm else None
                    for gm in planted]
            ):
                matches += 1
        assert matches >= 36  # ≥ 90 %

    def test_group_field_and_thresholds(self, verified_chain):
        qc, specs, _ = verified_chain
        res = cut_and_run_chain(
            qc, IdealBackend(), specs, shots=50, golden="detect",
            pilot_shots=500, seed=3,
        )
        assert [len(d) for d in res.detection] == [3, 3, 3]
        for g, group_results in enumerate(res.detection):
            for r in group_results:
                assert r.group == g
                assert r.threshold > 0 and 0 <= r.p_value <= 1.0
        # interior groups test more contexts than group 0 (prep contexts
        # multiply the Bonferroni family)
        m0 = max(r.num_contexts for r in res.detection[0])
        m1 = max(r.num_contexts for r in res.detection[1])
        assert m1 > m0


class TestDetectAcceptance:
    """Acceptance criteria on a 3-fragment planted chain."""

    SEED = 0  # golden_chain_circuit(3, (0, 1)) — verified in the fixture

    @pytest.fixture(scope="class")
    def chain3(self):
        qc, specs, planted = golden_chain_circuit(
            3, planted_groups=(0, 1), seed=self.SEED
        )
        chain = partition_chain(qc, specs)
        found, _ = find_chain_golden_bases_analytic(chain)
        assert found[0][0] == ["X", "Y"] and found[1][0] == ["X", "Y"]
        return qc, specs, planted

    def test_pool_sizes_match_known(self, chain3):
        qc, specs, planted = chain3
        backend = IdealBackend()
        known = cut_and_run_chain(
            qc, backend, specs, shots=100, golden="known",
            golden_maps=planted, seed=0,
        )
        matches = 0
        trials = 30
        for trial in range(trials):
            det = cut_and_run_chain(
                qc, backend, specs, shots=100, golden="detect",
                pilot_shots=_PILOT, alpha=_ALPHA, exploit_all=True,
                seed=trial,
            )
            matches += (
                det.costs["variants_per_fragment"]
                == known.costs["variants_per_fragment"]
            )
        assert matches / trials >= 0.9

    def test_beats_off_at_equal_total_shots(self, chain3):
        """Detect (pilot included) vs off at the same total execution
        budget: neglecting the planted bases buys more shots per kept
        variant *and* fewer variance terms, so the TV error must drop."""
        qc, specs, planted = chain3
        truth = simulate_statevector(qc).probabilities()
        backend = IdealBackend()
        shots_det = 600
        tv_det = []
        totals = []
        for trial in range(5):
            det = cut_and_run_chain(
                qc, backend, specs, shots=shots_det, golden="detect",
                pilot_shots=_PILOT, alpha=_ALPHA, exploit_all=True,
                seed=100 + trial,
            )
            tv_det.append(total_variation(det.probabilities, truth))
            totals.append(det.total_executions + det.pilot_executions)
        # give "off" the *same* total budget, spread over its variants
        off_count = cut_and_run_chain(
            qc, backend, specs, shots=10, golden="off", seed=0
        ).costs["num_variants"]
        shots_off = int(np.mean(totals)) // off_count
        assert shots_off * off_count >= np.mean(totals) * 0.9  # fair fight
        tv_off = [
            total_variation(
                cut_and_run_chain(
                    qc, backend, specs, shots=shots_off, golden="off",
                    seed=100 + trial,
                ).probabilities,
                truth,
            )
            for trial in range(5)
        ]
        assert np.mean(tv_det) < np.mean(tv_off)

    def test_detect_on_fake_hardware(self, chain3):
        """The sweep runs end-to-end on the noisy backend (the transpile
        law is pinned in test_noisy_fast_path_equivalence.py)."""
        qc, specs, planted = chain3
        dev = fake_device(qc.num_qubits)
        res = cut_and_run_chain(
            qc, dev, specs, shots=600, golden="detect", pilot_shots=2500,
            seed=2, exploit_all=True,
        )
        assert res.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        assert res.device_seconds > 0
        # the planted X/Y goldenness survives hardware noise: the wire
        # stays in a computational eigenstate through diagonal noise-free
        # virtual-rz gates, so at least one planted group is exploited
        assert any(gm for gm in res.golden_used)


class TestChainGoldenModeErrors:
    """Satellite: error-path coverage for cut_and_run_chain golden modes."""

    def _chain_args(self):
        qc, specs, _ = golden_chain_circuit(3, seed=2)
        return qc, IdealBackend(), specs

    def test_invalid_mode_string_names_all_modes(self):
        qc, backend, specs = self._chain_args()
        with pytest.raises(CutError) as err:
            cut_and_run_chain(qc, backend, specs, golden="bogus")
        msg = str(err.value)
        assert '"off"/"known"/"analytic"/"detect"' in msg
        assert "bogus" in msg

    def test_known_requires_maps(self):
        qc, backend, specs = self._chain_args()
        with pytest.raises(CutError, match="requires golden_maps"):
            cut_and_run_chain(qc, backend, specs, golden="known")

    def test_wrong_length_golden_maps(self):
        qc, backend, specs = self._chain_args()
        with pytest.raises(CutError, match="one golden map"):
            cut_and_run_chain(
                qc, backend, specs, golden="known", golden_maps=[{0: "Y"}]
            )
        with pytest.raises(CutError, match="one golden map"):
            cut_and_run_chain(
                qc, backend, specs, golden="known",
                golden_maps=[{0: "Y"}, None, {0: "Y"}],
            )

    def test_invalid_map_content_rejected_eagerly(self):
        qc, backend, specs = self._chain_args()
        with pytest.raises(CutError):
            cut_and_run_chain(
                qc, backend, specs, golden="known",
                golden_maps=[{0: "Q"}, None],
            )
        with pytest.raises(CutError):
            cut_and_run_chain(
                qc, backend, specs, golden="known",
                golden_maps=[{5: "Y"}, None],
            )

    def test_detect_requires_positive_pilot(self):
        qc, backend, specs = self._chain_args()
        with pytest.raises(CutError, match="pilot_shots"):
            cut_and_run_chain(
                qc, backend, specs, golden="detect", pilot_shots=0
            )


class TestPlumbing:
    """Spanning contexts, pilot allocation, and the fragment-skip path."""

    def test_spanning_init_tuples_sizes(self):
        assert len(spanning_init_tuples(1)) == 4
        assert len(spanning_init_tuples(2)) == 16
        assert spanning_init_tuples(1, {0: "Y"}) == [
            ("Z+",), ("Z-",), ("X+",)
        ]
        assert spanning_init_tuples(1, {0: ("X", "Y")}) == [("Z+",), ("Z-",)]
        # Z-golden keeps the full spanning pool (I still needs Z±)
        assert len(spanning_init_tuples(1, {0: "Z"})) == 4
        assert spanning_init_tuples(0) == [()]

    def test_spanning_tuples_span_the_pool(self):
        """Every standard preparation state is a real linear combination of
        the spanning states' density matrices — the linearity argument the
        pilot leans on."""
        from repro.cutting.cache import PREPARATION_AMPLITUDES

        def rho(code):
            v = PREPARATION_AMPLITUDES[code]
            return np.outer(v, v.conj())

        span = [rho(c) for (c,) in spanning_init_tuples(1)]
        A = np.stack([m.ravel() for m in span], axis=1)
        for code in ("X-", "Y-"):
            coef, res, *_ = np.linalg.lstsq(A, rho(code).ravel(), rcond=None)
            rebuilt = (A @ coef).reshape(2, 2)
            np.testing.assert_allclose(rebuilt, rho(code), atol=1e-12)
            np.testing.assert_allclose(coef.imag, 0, atol=1e-12)

    def test_chain_pilot_combos_is_the_shared_pool(self):
        """The analytic finder, the pilot sweep and the benches all probe
        chain_pilot_combos; pin its shape so they cannot drift."""
        from repro.core.neglect import chain_pilot_combos

        assert chain_pilot_combos(0, 1) == [((), ("X",)), ((), ("Y",)), ((), ("Z",))]
        assert len(chain_pilot_combos(1, 1)) == 4 * 3
        assert len(chain_pilot_combos(1, 1, {0: ("X", "Y")})) == 2 * 3
        assert chain_pilot_combos(1, 0) == [
            (a, ()) for a in spanning_init_tuples(1)
        ]
        # the detect pipeline's pilot counts must equal the shared pool's
        qc, specs, _ = golden_chain_circuit(3, planted_groups=(0,), seed=6)
        res = cut_and_run_chain(
            qc, IdealBackend(), specs, shots=100, golden="detect",
            pilot_shots=1500, seed=0, exploit_all=True,
        )
        chain = partition_chain(qc, specs)
        expected = [
            len(
                chain_pilot_combos(
                    chain.fragments[g].num_prep,
                    chain.fragments[g].num_meas,
                    res.golden_used[g - 1] if g else None,
                )
            )
            for g in range(chain.num_groups)
        ] + [0]
        assert res.costs["pilot_variants_per_fragment"] == expected

    def test_allocate_chain_pilot_shots(self):
        pilot, report = allocate_chain_pilot_shots([3, 12, 0], 1000)
        assert pilot == 250
        assert report["pilot_executions"] == 250 * 15
        assert report["pilot_variants_per_fragment"] == [3, 12, 0]
        pilot, _ = allocate_chain_pilot_shots([3, 12, 0], 100)
        assert pilot == 100  # floor
        pilot, report = allocate_chain_pilot_shots(
            [3, 0, 0], 1000, pilot_shots=77
        )
        assert pilot == 77 and report["pilot_executions"] == 231

    def test_allocate_chain_pilot_shots_errors(self):
        with pytest.raises(CutError):
            allocate_chain_pilot_shots([3], 1000)
        with pytest.raises(CutError):
            allocate_chain_pilot_shots([0, 0], 1000)
        with pytest.raises(CutError):
            allocate_chain_pilot_shots([3, -1], 1000)
        with pytest.raises(CutError):
            allocate_chain_pilot_shots([3, 3], 0)
        with pytest.raises(CutError):
            allocate_chain_pilot_shots([3, 3], 1000, pilot_shots=-5)

    def test_skip_plumbing(self):
        qc, specs, _ = golden_chain_circuit(3, seed=5)
        chain = partition_chain(qc, specs)
        combos = [((), s) for s in upstream_setting_tuples(1)]
        data = run_chain_fragments(
            chain, IdealBackend(), shots=200,
            variants=[combos, None, None], seed=0,
        )
        assert data.records[1] == {} and data.records[2] == {}
        assert data.metadata["variants_per_fragment"] == [3, 0, 0]
        assert data.num_variants == 3
        exact = exact_chain_data(chain, variants=[combos, None, None])
        assert exact.records[1] == {}

    def test_skip_plumbing_parallel(self):
        """The threaded executor honours skipped fragments too, and serial
        equals threaded on the partial pass."""
        from repro.parallel.executor import run_chain_fragments_parallel

        qc, specs, _ = golden_chain_circuit(3, seed=5)
        chain = partition_chain(qc, specs)
        combos = [((), s) for s in upstream_setting_tuples(1)]
        runs = {
            m: run_chain_fragments_parallel(
                chain, IdealBackend, shots=200,
                variants=[combos, None, None], seed=9, mode=m,
            )
            for m in ("serial", "thread")
        }
        for data in runs.values():
            assert data.records[1] == {} and data.records[2] == {}
            assert len(data.records[0]) == 3
        for key in runs["serial"].records[0]:
            np.testing.assert_array_equal(
                runs["serial"].records[0][key], runs["thread"].records[0][key]
            )

    def test_skip_everything_rejected(self):
        qc, specs, _ = golden_chain_circuit(3, seed=5)
        chain = partition_chain(qc, specs)
        with pytest.raises(CutError, match="skipped"):
            run_chain_fragments(
                chain, IdealBackend(), shots=200,
                variants=[None, None, None],
            )

    def test_empty_list_still_rejected(self):
        qc, specs, _ = golden_chain_circuit(3, seed=5)
        chain = partition_chain(qc, specs)
        combos = [((), s) for s in upstream_setting_tuples(1)]
        with pytest.raises(CutError, match="empty variant set"):
            run_chain_fragments(
                chain, IdealBackend(), shots=200,
                variants=[combos, [], None],
            )

    def test_detector_rejects_exact_data(self):
        qc, specs, _ = golden_chain_circuit(3, seed=5)
        chain = partition_chain(qc, specs)
        data = _group_pilot_data(chain, 0, [()])
        with pytest.raises(DetectionError, match="finite-shot"):
            detect_chain_golden_bases(data, 0)

    def test_detector_group_bounds(self):
        qc, specs, _ = golden_chain_circuit(3, seed=5)
        chain = partition_chain(qc, specs)
        data = _group_pilot_data(
            chain, 0, [()], shots=100, backend=IdealBackend()
        )
        with pytest.raises(DetectionError, match="out of range"):
            detect_chain_golden_bases(data, 7)
        with pytest.raises(DetectionError, match="out of range"):
            detect_chain_golden_bases(data, 0, cuts=[4])
