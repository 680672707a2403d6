"""The server side of the wire workloads, run as one child process.

Usage: ``python3 perfbench/server_child.py engine|cluster <index_cache_bytes>``

* ``engine``: a ``ServerEngine`` over a ``MemoryStore`` behind a
  ``TimeCryptTCPServer``.
* ``cluster``: the same engine over a ``StorageCluster`` of 3
  ``StorageNodeServer``s with replication factor 2, reached through
  ``RemoteKeyValueStore``.

The child prints ``{"port": ...}`` on stdout once it listens, then answers
one JSON command per stdin line with one JSON line on stdout:

* ``{"cmd": "trace", "on": true|false}`` installs or removes the wrappers;
* ``{"cmd": "mark"}`` snapshots the counters the report diffs against;
* ``{"cmd": "report", "trace_path": ...}`` writes the spans (when traced)
  and returns the counters;
* ``{"cmd": "stop"}`` shuts every server down and exits.

End of input also shuts it down, so the child never outlives the generator.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro.net.server import TimeCryptTCPServer  # noqa: E402
from repro.server.engine import ServerEngine  # noqa: E402
from repro.storage.cluster import StorageCluster  # noqa: E402
from repro.storage.memory import MemoryStore  # noqa: E402
from repro.storage.node import StorageNodeServer  # noqa: E402
from repro.storage.remote import RemoteKeyValueStore  # noqa: E402

import layers  # noqa: E402
from tracer import Patcher, Recorder  # noqa: E402

NUM_NODES = 3
REPLICATION_FACTOR = 2


class ServerSide:
    def __init__(self, kind: str, index_cache_bytes: int) -> None:
        self.nodes = []
        self.cluster = None
        if kind == "cluster":
            self.nodes = [StorageNodeServer(MemoryStore()).start() for _ in range(NUM_NODES)]
            addresses = {f"node-{index}": node.address for index, node in enumerate(self.nodes)}
            self.cluster = StorageCluster(
                num_nodes=NUM_NODES,
                replication_factor=REPLICATION_FACTOR,
                store_factory=lambda name: RemoteKeyValueStore(*addresses[name]),
            )
            self.engine = ServerEngine(store=self.cluster, index_cache_bytes=index_cache_bytes)
        elif kind == "engine":
            self.engine = ServerEngine(index_cache_bytes=index_cache_bytes)
        else:
            raise SystemExit(f"unknown topology '{kind}'")
        self.server = TimeCryptTCPServer(self.engine).start()
        self.recorder = None
        self.patcher = Patcher()
        self.before = None
        self.restored = True
        self.marks = self._counters()
        self.trace_marks = self.marks
        #: Per-node wire round trips made while traced (storage batches are
        #: counted from the traced spans, so the two cover the same ops).
        self.traced_node_round_trips = [0] * len(self.nodes)

    def _counters(self) -> dict:
        stats = self.engine.cache_stats()
        counters = {"cache_hits": stats.hits, "cache_misses": stats.misses, "node_round_trips": [],
                    "node_stalls_retries": 0}
        if self.cluster is not None:
            for name in self.cluster.node_names:
                wire = self.cluster.node_store(name).wire_stats
                counters["node_round_trips"].append(wire.round_trips)
                counters["node_stalls_retries"] += wire.credit_stalls + wire.overload_retries
        return counters

    def trace(self, on: bool) -> dict:
        if on:
            if self.recorder is None:
                self.recorder = Recorder(roots=layers.ROOT_NAMES)
            self.before = layers.patched_attributes([self.engine])
            layers.install(self.recorder, self.patcher, [self.engine])
            self.trace_marks = self._counters()
        else:
            self.patcher.restore()
            self.restored = self.restored and layers.unchanged(self.before)
            now = self._counters()["node_round_trips"]
            self.traced_node_round_trips = [
                total + after - before
                for total, after, before in zip(self.traced_node_round_trips, now, self.trace_marks["node_round_trips"])
            ]
        return {"ok": True}

    def mark(self) -> dict:
        self.marks = self._counters()
        return {"ok": True}

    def report(self, trace_path) -> dict:
        now = self._counters()
        if self.recorder is not None and trace_path:
            self.recorder.dump(trace_path)
        return {
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "storage_bytes": self.engine.storage_size_bytes(),
            "cache_hits": now["cache_hits"] - self.marks["cache_hits"],
            "cache_misses": now["cache_misses"] - self.marks["cache_misses"],
            "traced_node_round_trips": self.traced_node_round_trips,
            "node_stalls_retries": now["node_stalls_retries"] - self.marks["node_stalls_retries"],
            "restored": self.restored,
        }

    def stop(self) -> None:
        self.patcher.restore()
        self.server.stop()
        self.engine.close()
        if self.cluster is not None:
            self.cluster.close()
        for node in self.nodes:
            node.stop()


def main(argv) -> int:
    side = ServerSide(argv[1], int(argv[2]))
    try:
        print(json.dumps({"port": side.server.address[1]}), flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "stop":
                break
            if name == "trace":
                reply = side.trace(bool(command["on"]))
            elif name == "mark":
                reply = side.mark()
            elif name == "report":
                reply = side.report(command.get("trace_path"))
            else:
                reply = {"error": f"unknown command '{name}'"}
            print(json.dumps(reply), flush=True)
    finally:
        side.stop()
    try:
        print(json.dumps({"ok": True}), flush=True)
    except BrokenPipeError:
        pass  # the generator is already gone
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
