"""Which calls belong to which layer, and the per-layer table built from spans.

``TARGETS`` lists every public call the traced run wraps, by layer.  A
module-level function is patched in every ``repro`` module that imported it
(``repro.client.writer.aead_encrypt`` as well as ``repro.crypto.gcm``), since
Python looks the name up in the caller's module.  ``attr`` targets are
patched only in the named module.

``per_layer_metrics`` turns the spans of the generator and of the server
child into the metrics BENCHMARK.json lists under ``per_layer``.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from tracer import Patcher, Recorder, tally, wrap

LAYERS = ("core", "client", "timeseries", "crypto", "net", "server", "index", "storage")

#: Root span labels and the op kind they serve.
ROOT_KINDS = {
    "TimeCrypt.insert_records": "ingest",
    "TimeCrypt.get_stat_range": "stat",
    "TimeCrypt.get_range": "range",
    "dispatch.insert_chunk": "ingest",
    "dispatch.insert_chunks": "ingest",
    "dispatch.stat_range": "stat",
    "dispatch.get_range": "range",
}
ROOT_NAMES = ("TimeCrypt.insert_records", "TimeCrypt.get_stat_range", "TimeCrypt.get_range",
              "RequestDispatcher.dispatch")


#: Every per-layer metric: ``(name, unit, better)``.
PER_LAYER = (
    ("core.facade_self_us_per_record", "us", "lower"),
    ("core.insert_records_p99_ms", "ms", "lower"),
    ("core.get_stat_range_p99_ms", "ms", "lower"),
    ("core.get_range_p99_ms", "ms", "lower"),
    ("client.writer_self_us_per_chunk", "us", "lower"),
    ("client.reader_setup_us_per_query", "us", "lower"),
    ("client.reader_self_us_per_query", "us", "lower"),
    ("client.range_useful_point_ratio", "ratio", "higher"),
    ("timeseries.chunk_us_per_record", "us", "lower"),
    ("timeseries.compress_us_per_record", "us", "lower"),
    ("timeseries.decompress_us_per_point", "us", "lower"),
    ("timeseries.serialize_us_per_chunk", "us", "lower"),
    ("crypto.heac_encrypt_us_per_chunk", "us", "lower"),
    ("crypto.aead_us_per_chunk", "us", "lower"),
    ("crypto.heac_decrypt_us_per_query", "us", "lower"),
    ("crypto.leaves_derived_per_query", "count", "lower"),
    ("net.self_us_per_op", "us", "lower"),
    ("net.round_trips_per_op", "count", "lower"),
    ("net.bytes_per_op", "B", "lower"),
    ("net.stalls_and_retries_per_op", "count", "lower"),
    ("server.dispatch_us_per_op", "us", "lower"),
    ("server.engine_self_us_per_op", "us", "lower"),
    ("index.append_us_per_chunk", "us", "lower"),
    ("index.query_us_per_query", "us", "lower"),
    ("index.plan_nodes_per_query", "count", "lower"),
    ("index.cache_hit_ratio", "ratio", "higher"),
    ("storage.calls_per_op", "count", "lower"),
    ("storage.us_per_op", "us", "lower"),
    ("storage.max_node_round_trips_per_batch", "count", "lower"),
    ("storage.bytes_written_per_record", "B", "lower"),
    ("storage.node_failures", "count", "lower"),
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("unattributed_share", "ratio", "lower"),
    ("tracing_overhead_share", "ratio", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def _outermost(frame, layer: str) -> bool:
    return frame.parent is None or frame.parent.layer != layer


def _count_result(counter: str, layer: Optional[str] = None) -> Callable:
    """Count the result's length; with ``layer``, only at that layer's outermost call."""
    def hook(frame, _args, _kwargs, result):
        return {counter: len(result)} if layer is None or _outermost(frame, layer) else {}
    return hook


def _count_one(counter: str) -> Callable:
    return lambda _frame, _args, _kwargs, _result: {counter: 1}


def _plan_nodes(_frame, _args, _kwargs, result):
    return {"plan_nodes": result.num_nodes}


def _chunks_encrypted(_frame, args, _kwargs, _result):
    return {"chunks_encrypted": len(args[1])}


def _bytes_written(frame, args, kwargs, _result):
    if not _outermost(frame, "storage"):
        return {}
    if len(args) == 3:  # put(self, key, value)
        return {"bytes_written": len(args[1]) + len(args[2])}
    items = args[1] if len(args) > 1 else kwargs.get("items")
    if isinstance(items, (list, tuple)):
        return {"bytes_written": sum(len(key) + len(value) for key, value in items)}
    return {}


def _dispatch_label(args) -> str:
    return f"dispatch.{args[1].operation}"


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str
    owner: Optional[str] = None
    #: ``fn`` patches a function wherever it was imported; ``attr`` patches one
    #: module attribute; ``method`` patches a class attribute.
    kind: str = "method"
    tally: bool = False
    hook: Optional[Callable] = None
    label: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def _methods(layer: str, module: str, owner: str, attrs: Iterable[str], **options) -> List[Target]:
    return [Target(layer, module, attr, owner, **options) for attr in attrs]


_SERIALIZATION = "repro.timeseries.serialization"

TARGETS: Tuple[Target, ...] = (
    # core: the facade; its per-point DataPoint building runs inside the
    # writer's ChunkBuilder.extend, so the two names it looks up are tallied.
    *_methods("core", "repro.core.timecrypt", "TimeCrypt", ("insert_records", "get_stat_range")),
    Target("core", "repro.core.timecrypt", "get_range", "TimeCrypt",
           hook=_count_result("points_returned", "core")),
    Target("core", "repro.core.timecrypt", "DataPoint", kind="attr", tally=True),
    Target("core", "repro.core.timecrypt", "encode_value", kind="attr", tally=True),
    # client
    *_methods("client", "repro.client.writer", "StreamWriter", ("extend", "flush")),
    Target("client", "repro.client.writer", "encrypt_chunks", "StreamWriter", hook=_chunks_encrypted),
    Target("client", "repro.client.reader", "for_owner", "ConsumerReader", hook=_count_one("reader_setups")),
    *_methods("client", "repro.client.reader", "ConsumerReader", ("decrypt_statistics", "decrypt_series")),
    Target("client", "repro.client.reader", "decrypt_chunk", "ConsumerReader", hook=_count_one("chunks_read")),
    Target("client", "repro.client.reader", "decrypt_range", "ConsumerReader",
           hook=_count_result("points_decrypted", "client")),
    # timeseries (ChunkBuilder.append runs per point inside extend, which covers it)
    *_methods("timeseries", "repro.timeseries.chunk", "ChunkBuilder", ("extend", "flush")),
    *[Target("timeseries", "repro.timeseries.compression", "compress", codec)
      for codec in ("NoneCodec", "ZlibCodec", "DeltaCodec", "DeltaZlibCodec")],
    *[Target("timeseries", "repro.timeseries.compression", "decompress", codec,
             hook=_count_result("points_decompressed", "timeseries"))
      for codec in ("NoneCodec", "ZlibCodec", "DeltaCodec", "DeltaZlibCodec")],
    *[Target("timeseries", _SERIALIZATION, name, kind="fn")
      for name in ("encode_encrypted_chunk", "decode_encrypted_chunk",
                   "encode_digest_vector", "decode_digest_vector")],
    # crypto
    *_methods("crypto", "repro.crypto.heac", "HEACCipher",
              ("window_batch", "decrypt_ranges", "outer_pads", "chunk_payload_key")),
    *_methods("crypto", "repro.crypto.heac", "HEACWindowBatch", ("encrypt_vector", "chunk_payload_key")),
    *[Target("crypto", "repro.crypto.gcm", name, kind="fn") for name in ("aead_encrypt", "aead_decrypt")],
    Target("crypto", "repro.crypto.keytree", "leaf", "KeyDerivationTree", hook=_count_one("leaves")),
    Target("crypto", "repro.crypto.keytree", "leaf_range", "KeyDerivationTree",
           hook=_count_result("leaves")),
    # net: the client half; the server half is the child's dispatch spans
    *_methods("net", "repro.net.client", "RemoteServerClient",
              ("insert_chunk", "insert_chunks", "stat_range", "get_range")),
    # server
    Target("server", "repro.net.server", "dispatch", "RequestDispatcher", label=_dispatch_label),
    *_methods("server", "repro.server.engine", "ServerEngine",
              ("insert_chunk", "insert_chunks", "stat_range", "stat_range_windows", "get_range")),
    # index
    *_methods("index", "repro.index.tree", "AggregationIndex", ("append", "append_many", "query_range")),
    Target("index", "repro.index.tree", "plan", "AggregationIndex", hook=_plan_nodes),
    # storage: the engine's store
    *[Target("storage", module, op, owner)
      for module, owner in (("repro.storage.memory", "MemoryStore"), ("repro.storage.cluster", "StorageCluster"))
      for op in ("get", "multi_get")],
    *[Target("storage", module, op, owner, hook=_bytes_written)
      for module, owner in (("repro.storage.memory", "MemoryStore"), ("repro.storage.cluster", "StorageCluster"))
      for op in ("put", "multi_put")],
)

#: Failure points of the storage cluster, counted whichever thread hits them.
FAILURE_POINTS = (("repro.storage.cluster", "StorageCluster", "mark_down"),
                  ("repro.storage.cluster", "StorageCluster", "_mark_failed"))


def _resolve(target: Target) -> List[Tuple[Any, Any]]:
    """``(owner, original)`` pairs to patch for one target."""
    module = importlib.import_module(target.module)
    if target.kind == "attr":
        return [(module, vars(module)[target.attr])]
    if target.kind == "fn":
        function = vars(module)[target.attr]
        return [
            (loaded, function)
            for name, loaded in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and vars(loaded).get(target.attr) is function
        ]
    cls = vars(module)[target.owner]
    return [(cls, vars(cls).get(target.attr, getattr(cls, target.attr)))]


def _wrap_target(target: Target, original: Any, recorder: Recorder) -> Any:
    def make(fn):
        if target.tally:
            return tally(fn, recorder, target.layer, target.name)
        return wrap(fn, recorder, target.layer, target.name, hook=target.hook, label=target.label)

    if isinstance(original, classmethod):
        return classmethod(make(original.__func__))
    if isinstance(original, staticmethod):
        return staticmethod(make(original.__func__))
    return make(original)


def _failure_counter(fn, recorder: Recorder):
    def counted(*args, **kwargs):
        recorder.add("any", "node_failures")
        return fn(*args, **kwargs)
    return counted


def _bound_attributes(engines: Sequence[Any], owners: Sequence[Any]) -> List[Tuple[Any, str]]:
    """Instance attributes holding a callable bound before the traced run began.

    Each index binds the digest-vector codec at stream creation, and each
    stream writer binds its server's ``insert_chunk(s)``, so class and module
    patches do not reach them.
    """
    bound = []
    for engine in engines:
        for state in engine._streams.values():
            bound += [(state.index, "_encode_cells"), (state.index, "_decode_cells")]
    for owner in owners:
        for owned in owner._streams.values():
            bound += [(owned.writer, "sink"), (owned.writer, "batch_sink")]
    return bound


def install(recorder: Recorder, patcher: Patcher, engines: Sequence[Any] = (), owners: Sequence[Any] = ()) -> None:
    """Wrap every target, then the callables ``engines`` and ``owners`` bound earlier."""
    for target in TARGETS:
        for owner, original in _resolve(target):
            patcher.patch(owner, target.attr, _wrap_target(target, original, recorder))
    for module_name, owner_name, attr in FAILURE_POINTS:
        cls = vars(importlib.import_module(module_name))[owner_name]
        patcher.patch(cls, attr, _failure_counter(vars(cls)[attr], recorder))
    for instance, attr in _bound_attributes(engines, owners):
        value = vars(instance)[attr]
        if attr.endswith("_cells"):
            patcher.patch(instance, attr, wrap(value, recorder, "timeseries", value.__name__))
        elif value is not None:
            # Re-bind through the (now wrapped) class attribute.
            method = getattr(type(value.__self__), value.__func__.__name__)
            patcher.patch(instance, attr, method.__get__(value.__self__))


def patched_attributes(engines: Sequence[Any] = (), owners: Sequence[Any] = ()) -> List[Tuple[Any, str, bool, Any]]:
    """``(owner, attr, present, value)`` for every attribute ``install`` touches."""
    snapshot = []
    for target in TARGETS:
        for owner, _ in _resolve(target):
            namespace = vars(owner)
            snapshot.append((owner, target.attr, target.attr in namespace, namespace.get(target.attr)))
    for module_name, owner_name, attr in FAILURE_POINTS:
        cls = vars(importlib.import_module(module_name))[owner_name]
        snapshot.append((cls, attr, attr in vars(cls), vars(cls).get(attr)))
    for instance, attr in _bound_attributes(engines, owners):
        snapshot.append((instance, attr, True, vars(instance)[attr]))
    return snapshot


def unchanged(before: Sequence[Tuple[Any, str, bool, Any]]) -> bool:
    """Whether every attribute in ``before`` is present (or absent) and identical again."""
    return all(
        (attr in vars(owner)) == present and vars(owner).get(attr) is value
        for owner, attr, present, value in before
    )


# -- the per-layer table ----------------------------------------------------------------


def _sum(spans: Iterable[Dict], field: str, **match) -> int:
    names = match.pop("names", None)
    kinds = match.pop("kinds", None)
    total = 0
    for span in spans:
        if names is not None and span["name"] not in names:
            continue
        if kinds is not None and ROOT_KINDS.get(span["root"]) not in kinds:
            continue
        if any(span[key] != value for key, value in match.items()):
            continue
        total += span[field]
    return total


def _outer_dur(spans: Iterable[Dict], names: Sequence[str]) -> int:
    """Inclusive time of the outermost calls among ``names``."""
    return sum(span["dur_ns"] for span in spans if span["name"] in names and span["parent_name"] not in names)


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_self_ns(spans: Sequence[Dict], child_roots_ns: int = 0) -> Dict[str, int]:
    """Self time per layer; net's share excludes the server's dispatch time."""
    totals = {layer: _sum(spans, "self_ns", layer=layer) for layer in LAYERS}
    totals["net"] -= child_roots_ns
    return totals


def per_layer_metrics(
    gen_spans: Sequence[Dict],
    child_spans: Sequence[Dict],
    counts: Counter,
    ops: Dict[str, int],
    traced_wall_ns: int,
    tracing_overhead: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``ops`` holds the traced-block op counts (``ingest``, ``stat``, ``range``,
    ``records``); ``traced_wall_ns`` is the summed latency of every traced
    op; ``tracing_overhead`` is traced over untraced wall for equally many
    blocks, minus 1; ``extra`` carries metrics measured outside the spans.
    """
    spans = list(gen_spans) + list(child_spans)
    child_roots_ns = _sum(child_spans, "dur_ns", parent_name="")
    total_ops = ops["ingest"] + ops["stat"] + ops["range"]
    queries = ops["stat"] + ops["range"]
    records = ops["records"]
    chunks = ops["ingest"]

    def count(counter: str, kinds: Optional[Sequence[str]] = None) -> int:
        return sum(value for (root, name), value in counts.items()
                   if name == counter and (kinds is None or ROOT_KINDS.get(root) in kinds))

    us = 1e-3
    metrics: Dict[str, float] = {
        "core.facade_self_us_per_record": _per(_sum(
            spans, "self_ns", layer="core",
            names=("TimeCrypt.insert_records", "DataPoint", "encode_value")) * us, records),
        "client.writer_self_us_per_chunk": _per(_sum(
            spans, "self_ns", names=("StreamWriter.extend", "StreamWriter.flush", "StreamWriter.encrypt_chunks")
        ) * us, chunks),
        "client.reader_setup_us_per_query": _per(_outer_dur(spans, ("ConsumerReader.for_owner",)) * us, queries),
        "client.reader_self_us_per_query": _per(_sum(
            spans, "self_ns", layer="client", kinds=("stat", "range"),
            names=("ConsumerReader.decrypt_statistics", "ConsumerReader.decrypt_series",
                   "ConsumerReader.decrypt_range", "ConsumerReader.decrypt_chunk")) * us, queries),
        "client.range_useful_point_ratio": _per(count("points_returned"), count("points_decrypted")),
        "timeseries.chunk_us_per_record": _per(_sum(
            spans, "self_ns", names=("ChunkBuilder.extend", "ChunkBuilder.flush")) * us, records),
        "timeseries.compress_us_per_record": _per(_sum(
            spans, "self_ns", layer="timeseries",
            names=tuple(f"{codec}.compress" for codec in ("NoneCodec", "ZlibCodec", "DeltaCodec", "DeltaZlibCodec"))
        ) * us, records),
        "timeseries.decompress_us_per_point": _per(_sum(
            spans, "self_ns", layer="timeseries",
            names=tuple(f"{codec}.decompress" for codec in ("NoneCodec", "ZlibCodec", "DeltaCodec", "DeltaZlibCodec"))
        ) * us, count("points_decompressed")),
        "timeseries.serialize_us_per_chunk": _per(_sum(
            spans, "self_ns", names=("encode_encrypted_chunk", "decode_encrypted_chunk",
                                     "encode_digest_vector", "decode_digest_vector")) * us,
            chunks + count("chunks_read")),
        "crypto.heac_encrypt_us_per_chunk": _per(_outer_dur(
            spans, ("HEACCipher.window_batch", "HEACWindowBatch.encrypt_vector")) * us, chunks),
        "crypto.aead_us_per_chunk": _per(_outer_dur(spans, ("aead_encrypt", "aead_decrypt")) * us,
                                         count("chunks_encrypted") + count("chunks_read")),
        "crypto.heac_decrypt_us_per_query": _per(_outer_dur(
            spans, ("HEACCipher.decrypt_ranges", "HEACCipher.outer_pads")) * us, ops["stat"]),
        "crypto.leaves_derived_per_query": _per(count("leaves", ("stat", "range")), queries),
        "net.self_us_per_op": _per(
            (_sum(gen_spans, "self_ns", layer="net") - child_roots_ns) * us, total_ops
        ) if child_spans else 0.0,
        "server.dispatch_us_per_op": _per(_sum(spans, "self_ns", layer="server",
                                               names=("RequestDispatcher.dispatch",)) * us, total_ops),
        "server.engine_self_us_per_op": _per(_sum(
            spans, "self_ns", names=("ServerEngine.insert_chunk", "ServerEngine.insert_chunks",
                                     "ServerEngine.stat_range", "ServerEngine.stat_range_windows",
                                     "ServerEngine.get_range")) * us, total_ops),
        "index.append_us_per_chunk": _per(_sum(
            spans, "self_ns", names=("AggregationIndex.append", "AggregationIndex.append_many")) * us, chunks),
        "index.query_us_per_query": _per(_sum(
            spans, "self_ns", names=("AggregationIndex.query_range", "AggregationIndex.plan")) * us, ops["stat"]),
        "index.plan_nodes_per_query": _per(count("plan_nodes"), ops["stat"]),
        "storage.calls_per_op": _per(sum(
            1 for span in spans if span["layer"] == "storage" and span["parent_layer"] != "storage"), total_ops),
        "storage.us_per_op": _per(_sum(spans, "self_ns", layer="storage") * us, total_ops),
        "storage.bytes_written_per_record": _per(count("bytes_written"), records),
        "storage.node_failures": float(count("node_failures")),
    }
    metrics.update(extra)
    layer_ns = layer_self_ns(spans, child_roots_ns)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _per(layer_ns[layer], traced_wall_ns)
    metrics["unattributed_share"] = _per(traced_wall_ns - sum(layer_ns.values()), traced_wall_ns)
    metrics["tracing_overhead_share"] = tracing_overhead
    return metrics
