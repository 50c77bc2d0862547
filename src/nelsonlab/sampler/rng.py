"""Counter-based random streams for reproducible parallel sampling.

Every random number consumed by the sampler is a pure function of
``(master seed, stream tag, element index)``: each time step (and the
initial draw) owns a Philox stream keyed by ``(seed, tag)``, and the k-th
path reads element k of that stream.  A shard of paths ``[lo, hi)`` skips
ahead to its first element (``stream_at``: Philox emits four 64-bit words
per counter value, so it advances the counter by ``lo // 4`` and drops
``lo % 4`` words) and then draws only its own slice, block after block
from the one generator.  The slice is bit-equal to the same elements of
the full row, so the output is bit-identical for any partitioning of
paths over workers; this is the counter-based design of Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11).

Normals are produced via the inverse normal CDF applied to uniforms,
which consumes exactly one 64-bit draw per element (the rejection-based
ziggurat would make stream positions data dependent).
"""
from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from ..errors import InputError

INIT_TAG = np.uint64(2 ** 63)  # stream tag reserved for initial positions

_UNIFORM_LOW = 2.0 ** -64  # keep uniforms strictly inside (0, 1)
_UNIFORM_HIGH = 1.0 - 2 ** -53
_WORDS_PER_COUNTER = 4  # Philox4x64 yields four 64-bit words per counter


def stream_at(seed: int, tag: int | np.uint64, lo: int) -> Generator:
    """The (seed, tag) stream, positioned at element ``lo``.

    Successive draws from it read elements ``lo, lo + 1, ...`` in order,
    so a run of draws equals one draw of their total length.
    """
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"seed must be in [0, 2**64), got {seed}")
    lo = int(lo)  # Philox.advance rejects numpy integers
    key = np.array([np.uint64(seed), np.uint64(tag)], dtype=np.uint64)
    gen = Generator(Philox(key=key))
    gen.bit_generator.advance(lo // _WORDS_PER_COUNTER)
    skip = lo % _WORDS_PER_COUNTER
    if skip:
        gen.random(skip)
    return gen


def fill_normals(gen: Generator, out: np.ndarray) -> np.ndarray:
    """Overwrite ``out`` with the next ``out.size`` normals of ``gen``'s
    stream, one uniform clipped to (0, 1) per element; return ``out``."""
    gen.random(out=out)
    np.clip(out, _UNIFORM_LOW, _UNIFORM_HIGH, out=out)
    return ndtri(out, out=out)


def stream_uniforms(seed: int, tag: int | np.uint64, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from the (seed, tag) stream."""
    u = stream_at(seed, tag, 0).random(n)
    return np.clip(u, _UNIFORM_LOW, _UNIFORM_HIGH, out=u)


def step_normals(seed: int, step_index: int, n_paths: int,
                 lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Normals for paths [lo, hi) at one time step.

    Only the slice is generated, by skipping ahead in the step's stream;
    it is bit-equal to ``ndtri(stream_uniforms(seed, step_index,
    n_paths))[lo:hi]``, the normals of the step's full row.
    """
    hi = n_paths if hi is None else hi
    if not 0 <= lo <= hi <= n_paths:
        raise InputError(f"bad path slice [{lo}, {hi}) of {n_paths}")
    return fill_normals(stream_at(seed, step_index, lo), np.empty(hi - lo))
