"""Load generation: a closed loop and an open loop over ``FairHMSClient``.

Both run in the benchmark's own process, one thread per connection, so
the serving process never shares the generator's interpreter lock.  No
request is retried: a shed or failed request counts as failed.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass


@dataclass
class Record:
    """The outcome of one sent op (times are ``perf_counter`` seconds)."""

    index: int
    kind: str
    due: float
    sent: float
    done: float
    data: object
    ok: bool
    request_id: str | None
    handed: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from when the op was due (its send time in a closed loop)."""
        return self.done - self.due


def _send(client, op, index, due, handed=0.0) -> Record:
    from repro.client import FairHMSError

    sent = time.perf_counter()
    try:
        resp = client.request(
            "POST", op.path, op.payload, retry=False, raise_for_error=False
        )
        ok = resp.error is None
        data = resp.data if ok else None
        request_id = (resp.meta or {}).get("request_id")
    except FairHMSError:
        ok, data, request_id = False, None, None
    return Record(index, op.kind, due if due else sent, sent,
                  time.perf_counter(), data, ok, request_id, handed)


def _client(port: int):
    from repro.client import FairHMSClient

    return FairHMSClient("127.0.0.1", port, timeout=120.0, retries=0)


def send_all(port: int, ops) -> list[Record]:
    """Send ``ops`` one after another (set-up priming, probes)."""
    with _client(port) as client:
        return [_send(client, op, i, 0.0) for i, op in enumerate(ops)]


def closed_loop(port: int, ops, *, connections: int, seconds: float) -> tuple:
    """Each connection sends its next op as soon as the previous one lands.

    Ops are claimed in stream order under a lock that also checks the
    deadline, so the sent ops are always a prefix of the stream.  Returns
    ``(records, t0)``.
    """
    records: list[Record] = []
    lock = threading.Lock()
    state = {"next": 0}
    start = threading.Barrier(connections + 1)
    t0_box = {}

    def worker():
        with _client(port) as client:
            start.wait()
            deadline = t0_box["deadline"]
            while True:
                with lock:
                    i = state["next"]
                    if i >= len(ops) or time.perf_counter() >= deadline:
                        return
                    state["next"] = i + 1
                rec = _send(client, ops[i], i, 0.0)
                with lock:
                    records.append(rec)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    t0_box["t0"] = time.perf_counter()
    t0_box["deadline"] = t0_box["t0"] + seconds
    start.wait()
    for t in threads:
        t.join()
    records.sort(key=lambda r: r.index)
    return records, t0_box["t0"]


def open_loop(port: int, ops, *, connections: int, seconds: float) -> tuple:
    """Ops are due at ``t0 + op.at``, whatever the server's progress.

    A dispatcher thread hands each op to the connections at its due time;
    its lateness (``handed - due``) shows whether the generator itself
    kept up.  Latency runs from the due time, so waiting for a free
    connection during a burst counts.  Returns ``(records, t0)``.
    """
    records: list[Record] = []
    lock = threading.Lock()
    inbox: queue.SimpleQueue = queue.SimpleQueue()

    def worker():
        with _client(port) as client:
            while True:
                item = inbox.get()
                if item is None:
                    return
                i, due, handed = item
                rec = _send(client, ops[i], i, due, handed)
                with lock:
                    records.append(rec)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    t0 = time.perf_counter() + 0.05
    for i, op in enumerate(ops):
        if op.at >= seconds:
            break
        due = t0 + op.at
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        inbox.put((i, due, time.perf_counter()))
    for _ in threads:
        inbox.put(None)
    for t in threads:
        t.join()
    records.sort(key=lambda r: r.index)
    return records, t0
