"""Output checks: served answers against in-process answers.

Every route that answers a map request must agree bit for bit with the
in-process :class:`~repro.core.mapper.JEMMapper` over the same contig set.
While the index mutates, a read may see any state that was live at some
instant between its send and its answer; a mutation's new state can take
effect from the moment the mutation is sent, and the old state is gone once
it is acknowledged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

#: (prefix contig, prefix hits, suffix contig, suffix hits); contig None = unmapped
Answer = tuple


def reference_answers(mapper, reads) -> list[Answer]:
    """In-process answer of every read (``JEMMapper.map_reads``)."""
    result = mapper.map_reads(reads)
    names = mapper.subject_names
    label = [names[int(s)] if s >= 0 else None for s in result.subject]
    hits = [int(h) for h in result.hit_count]
    return [
        (label[2 * i], hits[2 * i], label[2 * i + 1], hits[2 * i + 1])
        for i in range(len(reads))
    ]


def served_answer(response: dict) -> Answer:
    results = response["results"]
    if len(results) != 2:
        raise ValueError(f"expected 2 segment results, got {len(results)}")
    (pre, suf) = results
    return (pre["contig"], pre["hits"], suf["contig"], suf["hits"])


@dataclass
class Timeline:
    """Index states over time, as seen by the client.

    ``changes`` holds ``(t_send, t_ack, state)`` per mutation in send
    order; state *j* may serve reads from its mutation's send until the
    next mutation is acknowledged.
    """

    initial: str
    changes: list[tuple[float, float, str]] = field(default_factory=list)

    def admissible(self, t_send: float, t_recv: float) -> set[str]:
        states = set()
        starts = [float("-inf")] + [c[0] for c in self.changes]
        ends = [c[1] for c in self.changes] + [float("inf")]
        labels = [self.initial] + [c[2] for c in self.changes]
        for lo, hi, label in zip(starts, ends, labels):
            if lo <= t_recv and t_send <= hi:
                states.add(label)
        return states


def check_maps(
    records,
    references: dict[str, list[Answer]],
    live: dict[str, frozenset[str]],
    timeline: Timeline,
    read_pos: dict[int, int],
    limit: int = 5,
) -> list[str]:
    """Every map response against the states it may have been served from.

    ``references[state][read_pos[id]]`` is the in-process answer of a read
    over that state's contig set and ``live[state]`` the set's names.
    Returns up to ``limit`` error descriptions (empty when all pass).
    """
    errors: list[str] = []
    for rec in records:
        if rec.op.kind != "map":
            continue
        resp = rec.response
        where = f"conn {rec.conn} read {rec.op.key}"
        if resp.get("id") != rec.op.key:
            errors.append(f"{where}: response id {resp.get('id')!r}")
        elif "results" not in resp:
            continue  # a failed op: counted by the caller, not a wrong answer
        else:
            got = served_answer(resp)
            states = timeline.admissible(rec.t_send, rec.t_recv)
            allowed = frozenset().union(*(live[s] for s in states))
            named = {got[0], got[2]} - {None}
            if named - allowed:
                errors.append(
                    f"{where}: names {sorted(named - allowed)}, removed before "
                    f"the read was sent"
                )
            elif all(got != references[s][read_pos[rec.op.key]] for s in states):
                want = [references[s][read_pos[rec.op.key]] for s in sorted(states)]
                errors.append(f"{where}: served {got}, in-process {want}")
        if len(errors) >= limit:
            break
    return errors


def altered(record):
    """A copy of a map record whose prefix hit count is off by one."""
    bad = copy.deepcopy(record)
    bad.response["results"][0]["hits"] += 1
    return bad
