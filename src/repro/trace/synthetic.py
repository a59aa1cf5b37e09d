"""Composable synthetic address-pattern generators.

The SPEC CPU2006 benchmark profiles (:mod:`repro.trace.spec2006`) are built
by composing these primitives.  Each pattern produces an infinite stream of
``(address, is_write)`` pairs; :func:`compose` welds a pattern to a
:class:`GapModel` to produce full access tuples ``(gap, address, is_write)``.

Patterns are seeded at construction and are deterministic: two patterns
built with equal arguments and equal RNGs emit equal streams.
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array
from typing import Iterator, List, Sequence, Tuple

from .record import AccessTuple

AddressPair = Tuple[int, bool]


class GapModel:
    """Produces instruction gaps between memory references.

    ``mean_gap`` controls memory intensity (smaller = more memory bound);
    ``jitter`` adds bounded uniform noise so requests do not arrive in
    lockstep.  Fractional means are honoured in the long-run average via
    error accumulation.
    """

    def __init__(self, mean_gap: float, jitter: float, rng: random.Random) -> None:
        if mean_gap < 0:
            raise ValueError("mean_gap must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.mean_gap = mean_gap
        self.jitter = jitter
        self._rng = rng
        self._carry = 0.0

    def next_gaps(self, count: int) -> List[int]:
        """Return the next ``count`` integer instruction gaps.

        Each gap is ``mean + carry`` (plus uniform jitter), truncated and
        clamped at zero; the remainder carries into the next gap.  The
        carry is bounded so runaway drift is impossible while leaving
        enough headroom to repay gaps clamped at zero (keeps the
        long-run mean unbiased even when jitter exceeds the mean).  At
        ``jitter`` 0 the noise drawn is 0.0, so the gaps are the
        jitter-free ones and only this model's own RNG advances.
        """
        mean = self.mean_gap
        jitter = self.jitter
        carry = self._carry
        bound = mean + jitter + 1.0
        neg_bound = -bound
        out: List[int] = []
        append = out.append
        uniform = self._rng.uniform
        neg_jitter = -jitter
        for _ in range(count):
            target = mean + carry + uniform(neg_jitter, jitter)
            gap = int(target)
            if gap < 0:
                gap = 0
            append(gap)
            carry = mean + carry - gap
            if carry > bound:
                carry = bound
            elif carry < neg_bound:
                carry = neg_bound
        self._carry = carry
        return out


#: References generated per batch by :func:`compose` / ``batches()``.
TRACE_CHUNK = 512


def compose(pattern: "AddressPattern",
            gaps: GapModel) -> Iterator[AccessTuple]:
    """Weld an address pattern and a gap model into a full access stream.

    Generation is chunked: :data:`TRACE_CHUNK` address pairs are pulled
    from the pattern, then as many gaps from the gap model.  Because a
    pattern and its gap model never share an RNG (each is seeded from
    its own stream — see ``repro.trace.spec2006``), the emitted tuples
    are identical to the historical one-reference-at-a-time
    interleaving while amortising generator resumptions across the
    batch.
    """
    next_gaps = gaps.next_gaps
    for pairs in pattern.batches(TRACE_CHUNK):
        if not pairs:
            return
        gap_list = next_gaps(len(pairs))
        for (address, is_write), gap in zip(pairs, gap_list):
            yield (gap, address, is_write)


class AddressPattern:
    """Base class for address-pattern primitives."""

    def stream(self) -> Iterator[AddressPair]:
        """Yield an infinite stream of (address, is_write) pairs."""
        raise NotImplementedError

    def batches(self, chunk: int) -> Iterator[List[AddressPair]]:
        """Yield the stream in lists of ``chunk`` pairs.

        Every pattern realises :meth:`stream` through one persistent
        iterator, so composite patterns (mixtures, hotspots, phases) keep
        their exact per-item RNG interleaving and each leaf pattern has
        one generator.  :class:`OffsetPattern` overrides this to shift
        its inner pattern's batches without one more generator
        resumption per reference.
        """
        stream = self.stream()
        islice = itertools.islice
        while True:
            batch = list(islice(stream, chunk))
            if not batch:
                return
            yield batch

    def take(self, count: int) -> List[AddressPair]:
        """Realise the first ``count`` pairs (testing helper)."""
        return list(itertools.islice(self.stream(), count))


class SequentialStream(AddressPattern):
    """Line-by-line sweep over a region, wrapping around (e.g. libquantum)."""

    def __init__(
        self,
        base: int,
        size: int,
        rng: random.Random,
        line_bytes: int = 64,
        write_fraction: float = 0.0,
    ) -> None:
        if size < line_bytes:
            raise ValueError("region smaller than one line")
        self.base = base
        self.size = size
        self.line_bytes = line_bytes
        self.write_fraction = write_fraction
        self._rng = rng

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        base, size, line = self.base, self.size, self.line_bytes
        wf = self.write_fraction
        rand = self._rng.random
        offset = 0
        while True:
            yield (base + offset, wf > 0 and rand() < wf)
            offset += line
            if offset + line > size:
                offset = 0


class StridedPattern(AddressPattern):
    """Fixed-stride sweep over a region (stencil codes: cactusADM, leslie3d)."""

    def __init__(
        self,
        base: int,
        size: int,
        stride: int,
        rng: random.Random,
        write_fraction: float = 0.0,
    ) -> None:
        if stride <= 0:
            raise ValueError("stride must be positive")
        if size <= stride:
            raise ValueError("region must cover at least one stride")
        self.base = base
        self.size = size
        self.stride = stride
        self.write_fraction = write_fraction
        self._rng = rng

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        base, size, stride = self.base, self.size, self.stride
        wf = self.write_fraction
        rand = self._rng.random
        offset = 0
        lane = 0
        while True:
            yield (base + offset, wf > 0 and rand() < wf)
            offset += stride
            if offset >= size:
                # Next interleaved lane through the same region.
                lane = (lane + 64) % stride
                offset = lane


class UniformRandom(AddressPattern):
    """Uniformly random line-granular accesses over a region (milc-like)."""

    def __init__(
        self,
        base: int,
        size: int,
        rng: random.Random,
        granularity: int = 64,
        write_fraction: float = 0.0,
    ) -> None:
        if size < granularity:
            raise ValueError("region smaller than one granule")
        self.base = base
        self.granules = size // granularity
        self.granularity = granularity
        self.write_fraction = write_fraction
        self._rng = rng

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        base, gran, granules = self.base, self.granularity, self.granules
        wf = self.write_fraction
        rng = self._rng
        rand = rng.random
        # ``Random._randbelow`` inlined (bit-identical getrandbits use):
        # one C call per draw instead of randrange's Python call chain.
        getrandbits = rng.getrandbits
        nbits = granules.bit_length()
        while True:
            j = getrandbits(nbits)
            while j >= granules:
                j = getrandbits(nbits)
            yield (base + j * gran, wf > 0 and rand() < wf)


class HotspotPattern(AddressPattern):
    """Concentrated reuse: a hot region absorbing most of the accesses.

    Models workloads whose working set is far smaller than their footprint
    (omnetpp's event heap, mcf's tree root levels).
    """

    def __init__(
        self,
        hot: AddressPattern,
        cold: AddressPattern,
        hot_fraction: float,
        rng: random.Random,
    ) -> None:
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must lie in [0, 1]")
        self.hot = hot
        self.cold = cold
        self.hot_fraction = hot_fraction
        self._rng = rng

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        hot_stream = self.hot.stream()
        cold_stream = self.cold.stream()
        hf = self.hot_fraction
        rand = self._rng.random
        while True:
            if rand() < hf:
                yield next(hot_stream)
            else:
                yield next(cold_stream)


class ZipfPattern(AddressPattern):
    """Zipf-distributed accesses over fixed-size blocks of a region.

    Block ranks are shuffled across the region so popularity is not spatially
    contiguous (which would trivially collapse into one DRAM row).
    """

    def __init__(
        self,
        base: int,
        size: int,
        rng: random.Random,
        alpha: float = 1.0,
        block_bytes: int = 4096,
        line_bytes: int = 64,
        write_fraction: float = 0.0,
    ) -> None:
        if size < block_bytes:
            raise ValueError("region smaller than one block")
        self.base = base
        self.block_bytes = block_bytes
        self.line_bytes = line_bytes
        self.write_fraction = write_fraction
        self._rng = rng
        num_blocks = size // block_bytes
        weights = [1.0 / (rank**alpha) for rank in range(1, num_blocks + 1)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        # Fisher-Yates with the rejection sampler inlined — consumes the
        # exact getrandbits() sequence of ``rng.shuffle`` (bit-identical)
        # without the per-swap _randbelow call chain.
        order = list(range(num_blocks))
        getrandbits = rng.getrandbits
        i = num_blocks - 1
        while i > 0:
            k = (i + 1).bit_length()
            band_floor = (1 << (k - 1)) - 2
            if band_floor < 0:
                band_floor = 0
            for i in range(i, band_floor, -1):
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                order[i], order[j] = order[j], order[i]
            i = band_floor
        self._block_order = order

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        rng = self._rng
        rand = rng.random
        cdf = self._cdf
        order = self._block_order
        base, block, line = self.base, self.block_bytes, self.line_bytes
        lines_per_block = block // line
        wf = self.write_fraction
        last = len(order) - 1
        bisect_left = bisect.bisect_left
        # ``Random._randbelow`` inlined (bit-identical getrandbits use).
        getrandbits = rng.getrandbits
        nbits = lines_per_block.bit_length()
        while True:
            rank = bisect_left(cdf, rand())
            if rank > last:
                rank = last
            j = getrandbits(nbits)
            while j >= lines_per_block:
                j = getrandbits(nbits)
            address = base + order[rank] * block + j * line
            yield (address, wf > 0 and rand() < wf)


#: Memo of Sattolo cycles keyed by (nodes, rng state at entry): the
#: permutation and the rng state after building it are pure functions of
#: the key, so identical PointerChase constructions (every run of an
#: experiment graph rebuilds the same traces) share one read-only cycle.
#: Bounded FIFO — each entry holds one successor view at 4 bytes per
#: node (1.3 MB for a 327,680-node mcf chase).  Sized so mcf's
#: program-lifetime build (one chase per episode, five episodes) plus
#: its episode-mode chase all stay resident.  astar builds two chases
#: per episode, so sixteen per lifetime, which never fit: each astar
#: lifetime build shuffles all sixteen again.
_SATTOLO_MEMO: dict = {}
_SATTOLO_MEMO_CAPACITY = 8


class PointerChase(AddressPattern):
    """Walk a random permutation cycle over a region (mcf, astar).

    Spatial locality is destroyed by construction; temporal locality exists
    only at the period of the full cycle.
    """

    def __init__(
        self,
        base: int,
        size: int,
        rng: random.Random,
        granularity: int = 64,
        write_fraction: float = 0.0,
    ) -> None:
        nodes = size // granularity
        if nodes < 2:
            raise ValueError("pointer chase needs at least two nodes")
        self.base = base
        self.granularity = granularity
        self.write_fraction = write_fraction
        self._rng = rng
        # The permutation (and the start draw) is a pure function of
        # (nodes, rng state), so identical rebuilds — every job of an
        # experiment graph reconstructs the same traces — reuse the cycle
        # and fast-forward the rng instead of re-shuffling.
        state = rng.getstate()
        cached = _SATTOLO_MEMO.get((nodes, state))
        if cached is not None:
            self._successor, self._start, post_state = cached
            rng.setstate(post_state)
            return
        # Sattolo's algorithm: a uniformly random single-cycle permutation.
        # The rejection loop is ``Random._randbelow`` inlined (bit-identical
        # getrandbits consumption): one bound method call per draw instead
        # of randrange's three-deep Python call chain, which dominates
        # trace construction for large footprints.  The outer loop walks
        # power-of-two bands so the draw width is computed once per band,
        # not once per node.  (Bulk-decoding the underlying 32-bit
        # Mersenne-Twister words was measured slower: at mcf footprints the
        # per-iteration interpreter overhead of the swap loop, not the
        # draw call, is the floor.)  The cycle is built in place in an
        # unsigned 4-byte array (a 256 GiB region at 64-byte nodes; past
        # that ``array`` raises OverflowError), which the signed
        # typecodes would slow down, and kept only as a read-only view
        # that every run sharing the memo entry may walk but none alter.
        successor = array("I", range(nodes))
        getrandbits = rng.getrandbits
        i = nodes - 1
        while i > 0:
            k = i.bit_length()
            band_floor = (1 << (k - 1)) - 1
            for i in range(i, band_floor, -1):
                j = getrandbits(k)
                while j >= i:
                    j = getrandbits(k)
                successor[i], successor[j] = successor[j], successor[i]
            i = band_floor
        self._successor = memoryview(successor).toreadonly()
        self._start = rng.randrange(nodes)
        if len(_SATTOLO_MEMO) >= _SATTOLO_MEMO_CAPACITY:
            del _SATTOLO_MEMO[next(iter(_SATTOLO_MEMO))]
        _SATTOLO_MEMO[(nodes, state)] = (self._successor, self._start,
                                         rng.getstate())

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        successor = self._successor
        base, gran = self.base, self.granularity
        wf = self.write_fraction
        rand = self._rng.random
        node = self._start
        while True:
            yield (base + node * gran, wf > 0 and rand() < wf)
            node = successor[node]


class OffsetPattern(AddressPattern):
    """Shift a sub-pattern's addresses by a fixed offset.

    Used to place a benchmark *episode* at its position within the
    program-lifetime footprint (see :mod:`repro.trace.spec2006`).
    """

    def __init__(self, inner: AddressPattern, offset: int) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.inner = inner
        self.offset = offset

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        offset = self.offset
        for address, is_write in self.inner.stream():
            yield (address + offset, is_write)

    def batches(self, chunk: int) -> Iterator[List[AddressPair]]:
        """Yield references grouped into dependence batches."""
        offset = self.offset
        if offset == 0:
            yield from self.inner.batches(chunk)
            return
        for batch in self.inner.batches(chunk):
            yield [(address + offset, is_write)
                   for address, is_write in batch]


class PhasedPattern(AddressPattern):
    """Cycle between sub-patterns every ``phase_length`` accesses.

    Phase behaviour is what separates dynamic management (DAS) from static
    profiling (SAS/CHARM): the hot set moves between phases.
    """

    def __init__(self, phases: Sequence[AddressPattern], phase_length: int) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        if phase_length <= 0:
            raise ValueError("phase_length must be positive")
        self.phases = list(phases)
        self.phase_length = phase_length

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        streams = [phase.stream() for phase in self.phases]
        length = self.phase_length
        while True:
            for stream in streams:
                for _ in range(length):
                    yield next(stream)


class MixturePattern(AddressPattern):
    """Probabilistic mixture of sub-patterns with fixed weights."""

    def __init__(
        self,
        weighted: Sequence[Tuple[float, AddressPattern]],
        rng: random.Random,
    ) -> None:
        if not weighted:
            raise ValueError("need at least one component")
        total = sum(weight for weight, _ in weighted)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        cumulative = 0.0
        self._cdf: List[float] = []
        self._patterns: List[AddressPattern] = []
        for weight, pattern in weighted:
            if weight < 0:
                raise ValueError("weights must be non-negative")
            cumulative += weight / total
            self._cdf.append(cumulative)
            self._patterns.append(pattern)
        self._rng = rng

    def stream(self) -> Iterator[AddressPair]:
        """Yield the infinite memory-reference stream."""
        streams = [pattern.stream() for pattern in self._patterns]
        cdf = self._cdf
        rand = self._rng.random
        while True:
            index = bisect.bisect_left(cdf, rand())
            if index >= len(streams):
                index = len(streams) - 1
            yield next(streams[index])
