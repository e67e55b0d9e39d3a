"""Pauli-basis wire cutting (the CutQC-style baseline of the paper).

This package implements the standard tomography-based reconstruction the
paper builds on (refs [16], [18]); the paper's contribution — golden cutting
points — lives in :mod:`repro.core` and reuses everything here with reduced
basis sets.
"""

from repro.cutting.cut import CutPoint, CutSpec, find_cuts
from repro.cutting.search import (
    CutSearchResult,
    find_cut_specs,
    search_cut_specs,
)
from repro.cutting.fragments import FragmentPair, bipartition
from repro.cutting.chain import (
    ChainFragment,
    FragmentChain,
    chain_from_pair,
    partition_chain,
)
from repro.cutting.tree import (
    FragmentTree,
    TreeFragment,
    partition_tree,
)
from repro.cutting.variants import (
    PREPARATION_STATES,
    chain_variant,
    chain_variant_tuples,
    downstream_init_tuples,
    tree_variant,
    tree_variant_tuples,
    upstream_setting_tuples,
)
from repro.cutting.cache import (
    ChainCachePool,
    ChainFragmentSimCache,
    TreeCachePool,
    TreeFragmentSimCache,
)
from repro.cutting.execution import (
    ChainFragmentData,
    TreeFragmentData,
    exact_chain_data,
    exact_tree_data,
    run_chain_fragments,
    run_tree_fragments,
)
from repro.cutting.noisy_cache import (
    NoisyChainFragmentSimCache,
    NoisyTreeFragmentSimCache,
)
from repro.cutting.reconstruction import (
    build_chain_fragment_tensor,
    build_tree_fragment_tensor,
    reconstruct_chain_distribution,
    reconstruct_counts,
    reconstruct_tree_distribution,
)
from repro.cutting.sparse import (
    PrunePolicy,
    SparseDistribution,
    postprocess_sparse,
    threshold,
    top_k,
)
from repro.cutting.io import TreeCheckpoint, tree_run_signature
from repro.cutting.resilience import (
    AttemptLedger,
    AttemptRecord,
    CircuitBreaker,
    RetryEngine,
    RetryPolicy,
    degradation_tv_penalty,
    plan_degradation,
    required_tree_variants,
    site_key,
)
from repro.cutting.pauli_cut import (
    cut_pauli_expectation,
    cut_pauli_sum_expectation,
    observable_diagonal,
    rotated_circuit,
)
from repro.cutting.shots import (
    allocate_chain_shots,
    allocate_shots,
    allocate_tree_shots,
    reallocate_shots,
)
from repro.cutting.variance import (
    chain_predicted_stddev_tv,
    chain_reconstruction_variance,
    tree_predicted_stddev_tv,
    tree_reconstruction_variance,
    tree_tv_bound,
)
from repro.cutting.fingerprint import (
    FragmentStore,
    backend_fingerprint,
    circuit_fingerprint,
    coupling_fingerprint,
    fragment_fingerprint,
    noise_fingerprint,
)

__all__ = [
    "FragmentStore",
    "backend_fingerprint",
    "circuit_fingerprint",
    "coupling_fingerprint",
    "fragment_fingerprint",
    "noise_fingerprint",
    "CutPoint",
    "CutSpec",
    "find_cuts",
    "CutSearchResult",
    "find_cut_specs",
    "search_cut_specs",
    "FragmentPair",
    "bipartition",
    "ChainFragment",
    "FragmentChain",
    "chain_from_pair",
    "partition_chain",
    "TreeFragment",
    "FragmentTree",
    "partition_tree",
    "PREPARATION_STATES",
    "upstream_setting_tuples",
    "downstream_init_tuples",
    "chain_variant",
    "chain_variant_tuples",
    "tree_variant",
    "tree_variant_tuples",
    "ChainFragmentData",
    "TreeFragmentData",
    "ChainFragmentSimCache",
    "TreeFragmentSimCache",
    "ChainCachePool",
    "TreeCachePool",
    "NoisyChainFragmentSimCache",
    "NoisyTreeFragmentSimCache",
    "run_chain_fragments",
    "run_tree_fragments",
    "exact_chain_data",
    "exact_tree_data",
    "build_chain_fragment_tensor",
    "build_tree_fragment_tensor",
    "reconstruct_chain_distribution",
    "reconstruct_tree_distribution",
    "reconstruct_counts",
    "PrunePolicy",
    "SparseDistribution",
    "postprocess_sparse",
    "threshold",
    "top_k",
    "TreeCheckpoint",
    "tree_run_signature",
    "AttemptLedger",
    "AttemptRecord",
    "CircuitBreaker",
    "RetryEngine",
    "RetryPolicy",
    "degradation_tv_penalty",
    "plan_degradation",
    "required_tree_variants",
    "site_key",
    "cut_pauli_expectation",
    "cut_pauli_sum_expectation",
    "rotated_circuit",
    "observable_diagonal",
    "allocate_shots",
    "allocate_chain_shots",
    "allocate_tree_shots",
    "reallocate_shots",
    "chain_reconstruction_variance",
    "tree_reconstruction_variance",
    "chain_predicted_stddev_tv",
    "tree_predicted_stddev_tv",
    "tree_tv_bound",
]
