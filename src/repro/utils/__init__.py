"""Shared low-level utilities: bit manipulation, RNG handling, timing."""

from repro.utils.bits import (
    bit_at,
    bits_to_index,
    bitstring_to_index,
    format_bitstring,
    index_to_bits,
    marginalize_probs,
    permute_probability_axes,
    split_index,
)
from repro.utils.rng import as_generator, derive_rng, spawn_rngs
from repro.utils.timing import Stopwatch, VirtualClock

__all__ = [
    "bit_at",
    "bits_to_index",
    "bitstring_to_index",
    "format_bitstring",
    "index_to_bits",
    "marginalize_probs",
    "permute_probability_axes",
    "split_index",
    "as_generator",
    "derive_rng",
    "spawn_rngs",
    "Stopwatch",
    "VirtualClock",
]
