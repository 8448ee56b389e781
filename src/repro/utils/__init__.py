"""Shared utilities: bit packing, chart output, and ASCII rendering."""

from repro.utils.bitops import (
    bits_from_bytes,
    bits_from_int,
    bits_to_bytes,
    chunk_bits,
    pack_chunks,
    random_message,
)
from repro.utils.results import render_table, write_chart

__all__ = [
    "bits_from_bytes",
    "bits_from_int",
    "bits_to_bytes",
    "chunk_bits",
    "pack_chunks",
    "random_message",
    "render_table",
    "write_chart",
]
