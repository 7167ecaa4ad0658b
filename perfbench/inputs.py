"""Seeded benchmark inputs and their independent truth.

Everything here is derived from the workload seed alone: an ~8 Mbp
eukaryote-like genome, contigs cut from it by this module at recorded
coordinates, a held-out contig batch for the mutation workload, and HiFi
reads carrying the simulator's source interval and strand.

The truth is computed here from those coordinates, without
``repro.eval.truth`` and without the segment metadata the program attaches:
an end segment truly maps to a contig when their reference intervals
overlap by at least ``k`` bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.seq.io_fasta import write_fasta
from repro.seq.records import SequenceSet, SequenceSetBuilder
from repro.simulate import GenomeProfile, HiFiProfile, simulate_genome, simulate_hifi_reads

#: C. elegans-style repeat landscape (short, lightly diverged copies).
GENOME = GenomeProfile(
    length=8_000_000, repeat_fraction=0.07, repeat_divergence=0.01, repeat_length=400
)
CONTIG_MEDIAN_BP = 2_500
CONTIG_SIGMA = 0.5
CONTIG_MIN_BP = 600
GAP_BP = (50, 400)
#: 8x HiFi coverage of 10 kbp median reads: ~6,000 reads, more than the
#: server's 4,096-entry result cache, so a cyclic pass over them never hits.
READS = HiFiProfile(coverage=8.0)
#: contigs kept out of the saved index; ``add_contigs`` brings them in
HELD_OUT = 8
#: mapper constants the truth needs (the program's defaults)
K = 16
ELL = 1_000


@dataclass
class Inputs:
    """One seed's inputs; coordinates are half-open reference intervals."""

    seed: int
    contigs: SequenceSet
    contig_start: np.ndarray
    contig_end: np.ndarray
    held_out: SequenceSet
    held_start: np.ndarray
    held_end: np.ndarray
    reads: SequenceSet
    read_start: np.ndarray
    read_end: np.ndarray
    read_strand: np.ndarray

    def write(self, workdir: str) -> dict:
        """Write the files the program receives; returns their paths."""
        paths = {
            "contigs": f"{workdir}/contigs.fasta",
            "held_out": f"{workdir}/held_out.fasta",
            "reads": f"{workdir}/reads.fasta",
        }
        write_fasta(paths["contigs"], self.contigs)
        write_fasta(paths["held_out"], self.held_out)
        write_fasta(paths["reads"], self.reads)
        return paths


def _subset(seqs: SequenceSet, idx) -> SequenceSet:
    builder = SequenceSetBuilder()
    for i in idx:
        builder.add(seqs.names[i], seqs.codes_of(i))
    return builder.build()


def make_inputs(seed: int) -> Inputs:
    """Generate the inputs of one seed (same seed, same inputs)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A656D]))
    genome = simulate_genome(GENOME, rng)
    builder = SequenceSetBuilder()
    starts, ends = [], []
    pos = int(rng.integers(0, GAP_BP[1]))
    while True:
        length = max(
            CONTIG_MIN_BP,
            int(np.exp(rng.normal(np.log(CONTIG_MEDIAN_BP), CONTIG_SIGMA))),
        )
        if pos + length > genome.size:
            break
        builder.add(f"ctg{len(starts):05d}", genome[pos : pos + length])
        starts.append(pos)
        ends.append(pos + length)
        pos += length + int(rng.integers(*GAP_BP))
    cut = builder.build()
    starts_arr = np.asarray(starts, dtype=np.int64)
    ends_arr = np.asarray(ends, dtype=np.int64)
    n = len(cut)
    # held-out contigs of near-median length, spread along the genome, so
    # every seed's add/remove batch costs about the same
    lengths = ends_arr - starts_arr
    eligible = np.flatnonzero(np.abs(lengths - CONTIG_MEDIAN_BP) <= CONTIG_MEDIAN_BP // 5)
    held = [int(eligible[int((j + 0.5) * eligible.size / HELD_OUT)]) for j in range(HELD_OUT)]
    keep = np.setdiff1d(np.arange(n), held)
    reads = simulate_hifi_reads(genome, READS, rng, name_prefix="read")
    metas = reads.metas
    return Inputs(
        seed=seed,
        contigs=_subset(cut, keep),
        contig_start=starts_arr[keep],
        contig_end=ends_arr[keep],
        held_out=_subset(cut, held),
        held_start=starts_arr[held],
        held_end=ends_arr[held],
        reads=reads,
        read_start=np.array([m["ref_start"] for m in metas], dtype=np.int64),
        read_end=np.array([m["ref_end"] for m in metas], dtype=np.int64),
        read_strand=np.array([m["ref_strand"] for m in metas], dtype=np.int64),
    )


# -- truth -------------------------------------------------------------------


def segment_intervals(
    read_start: np.ndarray,
    read_end: np.ndarray,
    read_strand: np.ndarray,
    read_len: np.ndarray,
    ell: int = ELL,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference interval of every end segment, prefix then suffix per read.

    A segment covers ``min(ell, read length)`` bases.  On the forward
    strand the prefix sits at the source interval's start; a reverse read
    is the reverse complement of its source, so its prefix sits at the end.
    """
    span = np.minimum(np.minimum(ell, read_len), read_end - read_start)
    at_start = (read_start, read_start + span)
    at_end = (read_end - span, read_end)
    forward = read_strand > 0
    pre_s = np.where(forward, at_start[0], at_end[0])
    pre_e = np.where(forward, at_start[1], at_end[1])
    suf_s = np.where(forward, at_end[0], at_start[0])
    suf_e = np.where(forward, at_end[1], at_start[1])
    seg_s = np.empty(2 * read_start.size, dtype=np.int64)
    seg_e = np.empty_like(seg_s)
    seg_s[0::2], seg_s[1::2] = pre_s, suf_s
    seg_e[0::2], seg_e[1::2] = pre_e, suf_e
    return seg_s, seg_e


def true_ranges(
    seg_s: np.ndarray,
    seg_e: np.ndarray,
    contig_start: np.ndarray,
    contig_end: np.ndarray,
    k: int = K,
) -> tuple[np.ndarray, np.ndarray]:
    """``[lo, hi)`` positions of each segment's true contigs.

    Contigs are disjoint and sorted by start, so the contigs with
    ``end >= seg_start + k`` and ``start <= seg_end - k`` form one run; each
    of them overlaps the segment by at least ``k`` (every contig and every
    segment is itself at least ``k`` long).
    """
    lo = np.searchsorted(contig_end, seg_s + k, side="left")
    hi = np.searchsorted(contig_start, seg_e - k, side="right")
    return lo, np.maximum(hi, lo)


def read_segments(inputs: Inputs) -> tuple[np.ndarray, np.ndarray]:
    """Reference intervals of every read's two end segments."""
    return segment_intervals(
        inputs.read_start, inputs.read_end, inputs.read_strand,
        np.diff(inputs.reads.offsets),
    )


@dataclass(frozen=True)
class Quality:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0


class Truth:
    """Segment → contig truth over one contig set."""

    def __init__(
        self,
        seg_s: np.ndarray,
        seg_e: np.ndarray,
        names: list[str],
        contig_start: np.ndarray,
        contig_end: np.ndarray,
        k: int = K,
    ) -> None:
        order = np.argsort(contig_start, kind="stable")
        self._start = np.asarray(contig_start)[order]
        self._end = np.asarray(contig_end)[order]
        self._rank = {names[j]: r for r, j in enumerate(order)}
        self._lo, self._hi = true_ranges(seg_s, seg_e, self._start, self._end, k)

    @classmethod
    def for_reads(cls, inputs: Inputs) -> "Truth":
        """Truth of every read's end segments over the saved-index contigs."""
        return cls(
            *read_segments(inputs), list(inputs.contigs.names),
            inputs.contig_start, inputs.contig_end,
        )

    def has_truth(self, seg: int) -> bool:
        return bool(self._hi[seg] > self._lo[seg])

    def is_true(self, seg: int, contig: str) -> bool:
        rank = self._rank.get(contig)
        return rank is not None and self._lo[seg] <= rank < self._hi[seg]

    def score(self, answers) -> Quality:
        """Segment-level TP/FP/FN of ``answers`` (segment index, contig|None)."""
        tp = fp = fn = 0
        for seg, contig in answers:
            if contig is not None and self.is_true(seg, contig):
                tp += 1
                continue
            if contig is not None:
                fp += 1
            if self.has_truth(seg):
                fn += 1
        return Quality(tp, fp, fn)
