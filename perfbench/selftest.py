"""Self-tests of the benchmark's own truth and answer checker.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Exits 0 when every case passes, 1 otherwise.  The truth is checked on a
hand-built case with known answers; the checker is fed answers that are
right, altered, or name a contig removed before the read was sent.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from check import Timeline, altered, check_maps  # noqa: E402
from inputs import Truth, segment_intervals  # noqa: E402
from loadgen import Op, Record  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def truth_case() -> None:
    """Three contigs, four reads, ell = 100, k = 16; answers worked by hand.

    contigs: c0 [0,100)  c1 [150,300)  c2 [300,1000)

    * read A, forward [50,1200): prefix [50,150) overlaps c0 by 50 -> {c0};
      suffix [1100,1200) overlaps nothing.
    * read B, reverse [140,400): its prefix is the source's end, [300,400)
      -> {c2} (c1 touches it with 0 bases); suffix [140,240) -> {c1}.
    * read C, forward [84,500): prefix [84,184) overlaps c0 by exactly 16
      and c1 by 34 -> {c0, c1}.
    * read D, forward [85,600): prefix [85,185) overlaps c0 by only 15
      -> {c1}.
    """
    starts = np.array([50, 140, 84, 85])
    ends = np.array([1200, 400, 500, 600])
    strands = np.array([1, -1, 1, 1])
    lens = ends - starts
    seg_s, seg_e = segment_intervals(starts, ends, strands, lens, ell=100)
    expect(list(seg_s) == [50, 1100, 300, 140, 84, 400, 85, 500]
           and list(seg_e) == [150, 1200, 400, 240, 184, 500, 185, 600],
           "segment intervals follow the strand")
    truth = Truth(seg_s, seg_e, ["c1", "c0", "c2"], np.array([150, 0, 300]),
                  np.array([300, 100, 1000]), k=16)
    want = {0: {"c0"}, 1: set(), 2: {"c2"}, 3: {"c1"}, 4: {"c0", "c1"}, 5: {"c2"},
            6: {"c1"}, 7: {"c2"}}
    got = {seg: {c for c in ("c0", "c1", "c2") if truth.is_true(seg, c)} for seg in want}
    expect(got == want, f"true contigs per segment {got}")
    quality = truth.score([(0, "c0"), (1, None), (2, "c1"), (3, "c1"), (4, None)])
    expect((quality.tp, quality.fp, quality.fn) == (2, 1, 2),
           f"TP/FP/FN counted per segment {quality}")


def _record(read: int, answer, t_send=1.0, t_recv=2.0, conn=0) -> Record:
    pre_c, pre_h, suf_c, suf_h = answer
    return Record(conn, Op("map", b"", read), t_send, t_recv, {
        "id": read, "results": [{"contig": pre_c, "hits": pre_h},
                                {"contig": suf_c, "hits": suf_h}]})


def checker_case() -> None:
    refs = {"base": [("c1", 30, None, 0)], "added": [("n1", 28, None, 0)]}
    live = {"base": frozenset({"c1"}), "added": frozenset({"c1", "n1"})}
    pos = {7: 0}
    still = Timeline("base")
    expect(not check_maps([_record(7, ("c1", 30, None, 0))], refs, live, still, pos),
           "checker accepts the in-process answer")
    expect(bool(check_maps([altered(_record(7, ("c1", 30, None, 0)))], refs, live, still, pos)),
           "checker rejects an altered hit count")
    expect(bool(check_maps([_record(7, ("c2", 30, None, 0))], refs, live, still, pos)),
           "checker rejects an altered contig")
    # add sent at 10, acknowledged at 11; remove sent at 20, acknowledged at 21
    moving = Timeline("base", [(10.0, 11.0, "added"), (20.0, 21.0, "base")])
    expect(not check_maps([_record(7, ("n1", 28, None, 0), 10.5, 10.9)],
                          refs, live, moving, pos),
           "a read in flight during the add may see the added contig")
    expect(not check_maps([_record(7, ("c1", 30, None, 0), 10.5, 10.9)],
                          refs, live, moving, pos),
           "... or the state before it")
    expect(bool(check_maps([_record(7, ("c1", 30, None, 0), 12.0, 13.0)],
                           refs, live, moving, pos)),
           "a read sent after the add's acknowledgement must see it")
    errors = check_maps([_record(7, ("n1", 28, None, 0), 21.5, 22.0)],
                        refs, live, moving, pos)
    expect(bool(errors) and "removed" in errors[0],
           "no removed contig is named after the removal is acknowledged")


def main() -> int:
    truth_case()
    checker_case()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
