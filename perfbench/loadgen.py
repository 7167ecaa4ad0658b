"""Closed-loop NDJSON load over at most two TCP connections, on one thread.

Every request line is serialized before the clock starts.  Each connection
keeps up to ``window`` map requests in flight and sends the next one only
when a response comes back.  A mutation waits until the connection's reads
have all been answered, and the connection sends nothing more until the
mutation is acknowledged, so every read it sends afterwards was sent after
the acknowledgement.  The server answers each connection in request order,
so responses are matched to requests first in, first out.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass

#: A round that makes no progress for this long is a failed run.
STALL_S = 60.0
MAX_CONNECTIONS = 2


@dataclass(frozen=True)
class Op:
    """One planned request: ``kind`` is ``map`` or ``mutation``."""

    kind: str
    line: bytes
    key: object  # read index for maps, mutation op name for mutations


@dataclass
class Record:
    """One answered request; times are ``time.perf_counter`` instants."""

    conn: int
    op: Op
    t_send: float
    t_recv: float
    response: dict


class Connection:
    def __init__(self, cid: int, host: str, port: int, window: int) -> None:
        self.cid = cid
        self.window = window
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.plan: deque[Op] = deque()
        self.inflight: deque[tuple[Op, float]] = deque()
        self.out = bytearray()
        self.inbuf = bytearray()
        self.awaiting_ack = False

    @property
    def busy(self) -> bool:
        return bool(self.plan or self.inflight)

    def fill(self) -> None:
        while self.plan and not self.awaiting_ack:
            op = self.plan[0]
            if op.kind == "mutation":
                if self.inflight:
                    return  # the mutation goes alone, after every read's answer
                self.awaiting_ack = True
            elif len(self.inflight) >= self.window:
                return
            self.plan.popleft()
            self.inflight.append((op, time.perf_counter()))
            self.out += op.line

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def receive(self, records: list[Record]) -> None:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError(f"connection {self.cid} closed by the server")
        self.inbuf += data
        while True:
            end = self.inbuf.find(b"\n")
            if end < 0:
                return
            line = bytes(self.inbuf[:end])
            del self.inbuf[: end + 1]
            now = time.perf_counter()
            if not self.inflight:
                raise ConnectionError(f"unsolicited response on {self.cid}: {line[:200]!r}")
            op, t_send = self.inflight.popleft()
            if op.kind == "mutation":
                self.awaiting_ack = False
            records.append(Record(self.cid, op, t_send, now, json.loads(line)))

    def close(self) -> None:
        self.sock.close()


class LoadGenerator:
    """Drives whole rounds of planned ops over its connections."""

    def __init__(self, host: str, port: int, *, connections: int, window: int) -> None:
        if not 1 <= connections <= MAX_CONNECTIONS:
            raise ValueError(f"1..{MAX_CONNECTIONS} connections, got {connections}")
        self.conns = [Connection(i, host, port, window) for i in range(connections)]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)

    def run_round(self, plans: list[list[Op]], records: list[Record]) -> None:
        """Run one plan per connection to completion (every answer read)."""
        for conn, plan in zip(self.conns, plans):
            conn.plan.extend(plan)
        while any(conn.busy for conn in self.conns):
            for conn in self.conns:
                conn.fill()
                conn.flush()
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
                self.selector.modify(conn.sock, events, conn)
            ready = self.selector.select(STALL_S)
            if not ready:
                raise TimeoutError(f"no response for {STALL_S:.0f}s")
            for key, mask in ready:
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if mask & selectors.EVENT_READ:
                    conn.receive(records)

    def request(self, obj: dict, conn: int = 0) -> dict:
        """One round trip outside any round (metrics, stats, health)."""
        records: list[Record] = []
        self.run_round(
            [[Op("admin", (json.dumps(obj) + "\n").encode(), obj["op"])] if i == conn else []
             for i in range(len(self.conns))],
            records,
        )
        return records[0].response

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()


def map_line(read_idx: int, name: str, seq: str) -> bytes:
    return (json.dumps({"op": "map", "id": read_idx, "name": name, "seq": seq}) + "\n").encode()
