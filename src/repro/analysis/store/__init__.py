"""Content-addressed persistence for characterisation batches.

The adaptive subsystem's central invariant — batch ``k`` of a point is a
pure function of ``(spec, point, batch index)`` — makes per-batch results
cacheable on disk: once simulated, a batch's result never changes, so a
re-run can serve it from the store and simulate only the batch indices it
has never seen.  This module is that cache:

* :class:`ResultStore` is a directory of JSON-lines files, one per
  *experiment namespace* (see
  :meth:`repro.analysis.scenario.Experiment.store_digest`: the scenario
  content hash extended with constants, master seed entropy, batch
  quantum and runner identity).
* :class:`StoreView` is one namespace's read/append handle, keyed by
  ``(point spawn_key, batch index)`` — the same coordinates the seed
  derivation uses, so the key IS the random stream's identity.
* ``python -m repro.analysis.store ls|stats|gc`` is the maintenance CLI
  (see :func:`main`): list namespaces, show per-namespace content and
  hit/miss statistics, and garbage-collect stale curves.

Resume semantics
----------------
The store holds *batch* results, never rows: stopping decisions are
replayed by the trajectory from the (cached or fresh) batch counts, which
is what makes a warm run bit-for-bit identical to a cold one — packets
spent and stop reasons included — while a tighter
:class:`~repro.analysis.adaptive.StopRule` re-run simulates only the
missing batch indices.  Nothing about the stop rule, budget or executor
enters the namespace digest.

Durability and concurrency model
--------------------------------
Records are appended as exactly one JSON line per batch, written with a
single ``write(2)`` on an ``O_APPEND`` descriptor while holding a
per-namespace advisory lock (``flock``, where the platform has it).
Before appending, the writer folds any lines other writers appended since
its last read into its index and skips the write if the key is already
present — so several processes characterising overlapping sweeps into one
store race safely: complete lines never interleave, and no ``(point,
batch)`` key is ever stored twice.  Readers pick up concurrent appends
lazily (a lookup miss re-scans the file tail before being counted).

A truncated final line (e.g. a killed run) is dropped on load — with a
one-time :mod:`logging` warning naming the namespace and line number —
and the next locked append heals it by terminating the partial line
before writing, so no later record can merge into it.

Each namespace may carry a ``<digest>.jsonl.stats`` sidecar with
cumulative hit/miss counters and a last-used timestamp, written
best-effort by :meth:`StoreView.flush_stats` (the ``Experiment`` front
door and the characterisation service call it after each run).  The
sidecar only informs the maintenance CLI — it never affects results.

Values must be JSON-representable or numpy: arrays round-trip through a
tagged encoding that preserves dtype and shape bit for bit (floats
survive exactly — JSON rendering uses ``repr``-faithful shortest floats).
Tuples and arbitrary objects are rejected with an error naming the key:
silently coercing them would break the warm-equals-cold guarantee.
"""

import argparse
import json
import logging
import os
import sys
import time
from datetime import datetime

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.obs import metrics as obs_metrics

#: Store lookup/append latency in the process-global registry (store
#: views are created per request, so a per-instance registry would
#: scatter the series): ``op`` is get/put, ``outcome`` hit/miss for
#: lookups and written/duplicate for appends.
_STORE_SECONDS = obs_metrics.GLOBAL.histogram(
    "repro_store_seconds",
    "ResultStore operation latency by operation and outcome.",
    labelnames=("op", "outcome"))

#: On-disk format version, written to each file's header line.
FORMAT_VERSION = 1

#: Suffix of the per-namespace usage-statistics sidecar file.
STATS_SUFFIX = ".stats"

_SCALARS = (str, int, float)

_logger = logging.getLogger(__name__)

#: Namespace files already warned about in this process — the truncation
#: warning is one-time per file, not per load or per bad line.
_WARNED_TRUNCATED = set()


class StoreError(RuntimeError):
    """A result store file or record is unusable as asked."""


def _encode_value(value, key):
    """JSON-able encoding of one result value, ndarrays tagged."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biuf":
            raise StoreError(
                "result value for key %r is a %s array; only bool/int/float "
                "arrays have an exact JSON round-trip" % (key, value.dtype))
        return {"__ndarray__": value.tolist(),
                "dtype": str(value.dtype),
                "shape": list(value.shape)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, bool) or isinstance(value, _SCALARS):
        return value
    if isinstance(value, list):
        return [_encode_value(item, key) for item in value]
    if isinstance(value, dict):
        return {str(name): _encode_value(item, key)
                for name, item in value.items()}
    raise StoreError(
        "result value for key %r is not storable: %r (type %s); the store "
        "accepts JSON scalars, lists, dicts and numpy values — tuples and "
        "objects would not survive the round-trip bit for bit"
        % (key, value, type(value).__name__))


def _decode_value(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"],
                            dtype=value["dtype"]).reshape(value["shape"])
        return {name: _decode_value(item) for name, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def _normalise_point_key(point_key):
    try:
        return tuple(int(word) for word in point_key)
    except (TypeError, ValueError):
        raise StoreError("point_key must be a sequence of integers; got %r"
                         % (point_key,)) from None


def _lock(fd):
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX)


def _unlock(fd):
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_UN)


def read_sidecar_stats(path):
    """The usage-stats sidecar mapping for a namespace file (``{}`` if none).

    A missing or corrupt sidecar is simply empty — it is advisory
    metadata, so it must never make a namespace unreadable.
    """
    try:
        with open(path + STATS_SUFFIX, "r", encoding="utf-8") as handle:
            stats = json.load(handle)
    except (OSError, ValueError):
        return {}
    return stats if isinstance(stats, dict) else {}


class StoreView:
    """One experiment namespace of a :class:`ResultStore`.

    Records are keyed by ``(point spawn_key, batch index)``;
    :meth:`get` / :meth:`put` maintain an in-memory index over the
    append-only JSON-lines file.  ``hits`` and ``misses`` count this
    view's lookups — ``misses`` is exactly the number of batches a
    store-backed run had to simulate.

    The index folds in other writers' appends lazily: a lookup that would
    miss re-scans the file tail first, and :meth:`put` re-checks under the
    namespace lock, so concurrent views of one namespace (several
    processes, or several requests inside the characterisation service)
    converge on the same records without ever duplicating a key on disk.
    """

    def __init__(self, path, metadata=None):
        self.path = str(path)
        self.metadata = metadata
        #: Header metadata read back from the file (``None`` until a
        #: header line has been seen).
        self.stored_metadata = None
        self.hits = 0
        self.misses = 0
        self._index = None
        self._offset = 0   # bytes of the file already folded into the index
        self._lines = 0    # newline-terminated lines already folded
        self._flushed = (0, 0)

    @property
    def namespace(self):
        """The namespace digest this view's file is named after."""
        name = os.path.basename(self.path)
        return name[:-len(".jsonl")] if name.endswith(".jsonl") else name

    # ------------------------------------------------------------------ #
    def _ensure(self):
        if self._index is None:
            self._index = {}
            self._offset = 0
            self._lines = 0
            self._refresh()
        return self._index

    def _refresh(self):
        """Fold lines appended since the last read into the index.

        Only complete (newline-terminated) lines are consumed: appends
        are single ``O_APPEND`` writes, so a reader sees each record
        either not at all or whole, and a trailing partial line from a
        killed writer stays pending until a locked append heals it.
        """
        index = self._index
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return index
        if size <= self._offset:
            return index
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            blob = handle.read()
        end = blob.rfind(b"\n")
        if end < 0:
            return index
        self._offset += end + 1
        for raw in blob[:end].split(b"\n"):
            self._lines += 1
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._warn_unparseable(self._lines)
                continue
            if "format" in record:  # header line
                if record["format"] != FORMAT_VERSION:
                    raise StoreError(
                        "store file %s has format %r; this reader "
                        "understands %r"
                        % (self.path, record["format"], FORMAT_VERSION))
                if self.stored_metadata is None:
                    self.stored_metadata = record.get("metadata")
                continue
            key = (tuple(record["point"]), int(record["batch"]))
            # First writer wins, matching put()'s idempotence: a racing
            # duplicate (which the locked append prevents anyway) could
            # only ever carry the identical deterministic result.
            index.setdefault(key, record)
        return index

    def _warn_unparseable(self, line_number):
        path = os.path.abspath(self.path)
        if path in _WARNED_TRUNCATED:
            return
        _WARNED_TRUNCATED.add(path)
        _logger.warning(
            "result store namespace %s: dropping unparseable record at "
            "line %d of %s (truncated by a killed run?); the affected "
            "batch will be resimulated on demand",
            self.namespace, line_number, self.path)

    def _append_locked(self, key, record):
        """Append one record unless ``key`` landed on disk meanwhile.

        The whole check-and-append runs under the namespace's advisory
        lock; the record (plus the header, on first write, plus a healing
        newline after a truncated line) goes out in a single ``write(2)``
        on an ``O_APPEND`` descriptor, so concurrent writers can never
        interleave bytes or double-store a key.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = (json.dumps(record) + "\n").encode("utf-8")
        # O_RDWR, not O_WRONLY: the truncation check reads the last byte
        # back through the same descriptor.
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            _lock(fd)
            try:
                if key in self._refresh():
                    return False
                payload = b""
                size = os.fstat(fd).st_size
                if size == 0:
                    header = {"format": FORMAT_VERSION}
                    if self.metadata:
                        header["metadata"] = self.metadata
                    payload += (json.dumps(header) + "\n").encode("utf-8")
                elif os.pread(fd, 1, size - 1) != b"\n":
                    payload += b"\n"  # terminate a truncated trailing line
                os.write(fd, payload + line)
            finally:
                _unlock(fd)
        finally:
            os.close(fd)
        return True

    # ------------------------------------------------------------------ #
    def __len__(self):
        return len(self._ensure())

    def keys(self):
        """All stored ``(point spawn_key, batch index)`` keys."""
        return list(self._ensure())

    def known_batches(self, point_key):
        """Sorted batch indices stored for one point."""
        point_key = _normalise_point_key(point_key)
        return sorted(batch for point, batch in self._ensure()
                      if point == point_key)

    def get(self, point_key, batch_index, num_packets):
        """The stored result for one batch, or ``None`` (counted a miss).

        ``num_packets`` is verified against the stored record — a mismatch
        means the caller's namespace digest is wrong (or the file was
        tampered with), and serving the record anyway would silently break
        the chunk-invariance contract, so it raises instead.
        """
        t0 = time.perf_counter()
        result = self._get(point_key, batch_index, num_packets)
        _STORE_SECONDS.labels(
            op="get", outcome="miss" if result is None else "hit").observe(
                time.perf_counter() - t0)
        return result

    def _get(self, point_key, batch_index, num_packets):
        key = (_normalise_point_key(point_key), int(batch_index))
        record = self._ensure().get(key)
        if record is None:
            # Another process may have appended since our last read (two
            # services sharing one store): fold in any new complete lines
            # before declaring a miss.
            record = self._refresh().get(key)
        if record is None:
            self.misses += 1
            return None
        if int(record["num_packets"]) != int(num_packets):
            raise StoreError(
                "store %s holds batch %d of point %r at %d packets, but %d "
                "were requested; the experiment namespace digest should have "
                "separated these" % (self.path, key[1], key[0],
                                     record["num_packets"], num_packets))
        self.hits += 1
        return {name: _decode_value(value)
                for name, value in record["result"].items()}

    def peek(self, point_key, batch_index, num_packets):
        """Like :meth:`get`, but an absent batch is *not* counted a miss.

        Built for pollers — a lease-waiting service replica probing for
        another replica's result every fraction of a second would
        otherwise inflate :attr:`misses` (which usage accounting treats
        as "batches this view had to simulate") by orders of magnitude.
        A successful probe still counts a hit: the batch really was
        served from the store.
        """
        key = (_normalise_point_key(point_key), int(batch_index))
        record = self._ensure().get(key)
        if record is None:
            record = self._refresh().get(key)
        if record is None:
            return None
        misses = self.misses
        try:
            return self.get(point_key, batch_index, num_packets)
        finally:
            self.misses = misses  # a racing compaction cannot re-add one

    def put(self, point_key, batch_index, num_packets, result):
        """Append one batch result (idempotent for an existing key)."""
        t0 = time.perf_counter()
        key = (_normalise_point_key(point_key), int(batch_index))
        index = self._ensure()
        if key in index:
            _STORE_SECONDS.labels(op="put", outcome="duplicate").observe(
                time.perf_counter() - t0)
            return
        record = {
            "point": list(key[0]),
            "batch": key[1],
            "num_packets": int(num_packets),
            "result": {str(name): _encode_value(value, name)
                       for name, value in dict(result).items()},
        }
        self._append_locked(key, record)
        index.setdefault(key, record)
        _STORE_SECONDS.labels(op="put", outcome="written").observe(
            time.perf_counter() - t0)

    def flush_stats(self, now=None):
        """Best-effort merge of this view's lookup counters into the sidecar.

        Writes cumulative ``hits``/``misses``/``uses`` and a ``last_used``
        timestamp to ``<namespace>.jsonl.stats`` (atomic replace).  The
        ``Experiment`` front door and the characterisation service call
        this after each store-backed run; ``repro-store stats`` reports
        the numbers and ``repro-store gc --days N`` ages on ``last_used``.
        Racing writers may undercount — the sidecar informs maintenance
        and never affects results.  Returns the merged mapping, or
        ``None`` when there was nothing new to record.
        """
        delta_hits = self.hits - self._flushed[0]
        delta_misses = self.misses - self._flushed[1]
        if delta_hits == 0 and delta_misses == 0:
            return None
        stats = read_sidecar_stats(self.path)
        stats["hits"] = int(stats.get("hits", 0)) + delta_hits
        stats["misses"] = int(stats.get("misses", 0)) + delta_misses
        stats["uses"] = int(stats.get("uses", 0)) + 1
        stats["last_used"] = float(time.time() if now is None else now)
        scratch = "%s%s.%d" % (self.path, STATS_SUFFIX, os.getpid())
        try:
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(stats, handle)
            os.replace(scratch, self.path + STATS_SUFFIX)
        except OSError:
            try:
                os.remove(scratch)
            except OSError:
                pass
            return None
        self._flushed = (self.hits, self.misses)
        return stats

    def summary(self):
        """Content and usage summary of this namespace, for the CLI."""
        index = self._ensure()
        points = {point for point, _ in index}
        try:
            size = os.path.getsize(self.path)
            mtime = os.path.getmtime(self.path)
        except OSError:
            size, mtime = 0, None
        return {
            "namespace": self.namespace,
            "path": self.path,
            "points": len(points),
            "batches": len(index),
            "packets": sum(int(record["num_packets"])
                           for record in index.values()),
            "size_bytes": size,
            "mtime": mtime,
            "metadata": self.stored_metadata,
            "stats": read_sidecar_stats(self.path),
        }

    def __repr__(self):
        return "StoreView(%r, records=%d, hits=%d, misses=%d)" % (
            self.path, len(self._ensure()), self.hits, self.misses)


class ResultStore:
    """A directory of per-experiment-namespace JSON-lines batch caches.

    Parameters
    ----------
    root:
        Directory path; created on first write.  One
        ``<namespace digest>.jsonl`` file per experiment namespace.
    """

    def __init__(self, root):
        self.root = str(root)

    def path_for(self, digest):
        """The namespace file path for one digest (validated hex)."""
        if not digest or not all(c in "0123456789abcdef" for c in digest):
            raise StoreError(
                "namespace digest must be a hex string (from "
                "Experiment.store_digest()); got %r" % (digest,))
        return os.path.join(self.root, digest + ".jsonl")

    def view(self, digest, metadata=None):
        """The :class:`StoreView` for one namespace digest."""
        return StoreView(self.path_for(digest), metadata=metadata)

    def digests(self):
        """Sorted namespace digests already present under ``root``."""
        if not os.path.isdir(self.root):
            return []
        return sorted(name[:-len(".jsonl")] for name in os.listdir(self.root)
                      if name.endswith(".jsonl"))

    def remove(self, digest):
        """Delete one namespace file and its stats sidecar; bytes freed."""
        path = self.path_for(digest)
        freed = 0
        for victim in (path, path + STATS_SUFFIX):
            try:
                freed += os.path.getsize(victim)
                os.remove(victim)
            except OSError:
                pass
        return freed

    def __repr__(self):
        return "ResultStore(%r, namespaces=%d)" % (self.root, len(self.digests()))


# ---------------------------------------------------------------------- #
# The `repro-store` maintenance CLI
# ---------------------------------------------------------------------- #
def _format_when(timestamp):
    if timestamp is None:
        return "-"
    return datetime.fromtimestamp(timestamp).strftime("%Y-%m-%d %H:%M")


def _scenario_hash(summary):
    """The scenario content hash a namespace was filed under, or ``None``.

    Recomputed from the header metadata's declarative scenario; a
    namespace without metadata (hand-made files) simply has no scenario
    hash and never matches ``gc --scenario``.
    """
    metadata = summary.get("metadata") or {}
    scenario = metadata.get("scenario")
    if not isinstance(scenario, dict):
        return None
    from repro.analysis.scenario import Scenario

    try:
        return Scenario.from_dict(scenario).content_hash()
    except (TypeError, ValueError):
        return None


def _summaries(store, prefix=None):
    out = []
    for digest in store.digests():
        if prefix and not digest.startswith(prefix):
            continue
        out.append(store.view(digest).summary())
    return out


def _last_used(summary):
    """Best last-used estimate: the stats sidecar, else the file mtime."""
    stats = summary.get("stats") or {}
    last = stats.get("last_used")
    if isinstance(last, (int, float)):
        return float(last)
    return summary.get("mtime")


def _cmd_ls(store, args, out):
    rows = _summaries(store, args.prefix)
    print("%-18s %7s %8s %9s %10s  %-16s %s"
          % ("namespace", "points", "batches", "packets", "bytes",
             "modified", "last-used"), file=out)
    for summary in rows:
        stats = summary["stats"]
        print("%-18s %7d %8d %9d %10d  %-16s %s"
              % (summary["namespace"][:16] + "..", summary["points"],
                 summary["batches"], summary["packets"],
                 summary["size_bytes"], _format_when(summary["mtime"]),
                 _format_when(stats.get("last_used"))), file=out)
    print("%d namespace(s) under %s" % (len(rows), store.root), file=out)
    return 0


def _cmd_stats(store, args, out):
    rows = _summaries(store, args.prefix)
    for summary in rows:
        stats = summary["stats"]
        metadata = summary["metadata"] or {}
        print("namespace %s" % summary["namespace"], file=out)
        print("  scenario hash: %s" % (_scenario_hash(summary) or "-"),
              file=out)
        print("  runner:        %s" % metadata.get("runner", "-"), file=out)
        print("  batch quantum: %s packets"
              % metadata.get("batch_packets", "-"), file=out)
        print("  content:       %d point(s), %d batch(es), %d packet(s), "
              "%d bytes" % (summary["points"], summary["batches"],
                            summary["packets"], summary["size_bytes"]),
              file=out)
        print("  lookups:       %d hit(s), %d miss(es) over %d run(s)"
              % (stats.get("hits", 0), stats.get("misses", 0),
                 stats.get("uses", 0)), file=out)
        print("  last used:     %s   modified: %s"
              % (_format_when(_last_used(summary)),
                 _format_when(summary["mtime"])), file=out)
    if not rows:
        print("no namespaces match under %s" % store.root, file=out)
    return 0


def _cmd_gc(store, args, out):
    filtering = (args.days is not None or args.prefix or args.scenario)
    if not filtering and args.max_bytes is None:
        print("gc: nothing selected; pass --days N, --prefix HEX, "
              "--scenario HEX and/or --max-bytes N", file=out)
        return 2
    horizon = None
    if args.days is not None:
        horizon = time.time() - args.days * 86400.0
    victims, survivors = [], []
    for summary in _summaries(store):
        digest = summary["namespace"]
        selected = filtering
        if args.prefix and not digest.startswith(args.prefix):
            selected = False
        if selected and args.scenario:
            scenario_hash = _scenario_hash(summary)
            if not scenario_hash or not scenario_hash.startswith(args.scenario):
                selected = False
        if selected and horizon is not None:
            last = _last_used(summary)
            if last is not None and last >= horizon:
                selected = False
        (victims if selected else survivors).append(summary)
    if args.max_bytes is not None:
        # LRU byte budget over whatever the other selectors spared:
        # evict coldest namespaces (stats-sidecar last-used, mtime
        # fallback, never-used treated coldest of all) until the store
        # fits the budget.
        total = sum(summary["size_bytes"] for summary in survivors)
        survivors.sort(key=lambda summary: _last_used(summary) or 0.0)
        for summary in survivors:
            if total <= args.max_bytes:
                break
            victims.append(summary)
            total -= summary["size_bytes"]
    removed = freed = 0
    for summary in victims:
        digest = summary["namespace"]
        removed += 1
        if args.dry_run:
            freed += summary["size_bytes"]
            print("would remove %s (%d batches, %d bytes, last used %s)"
                  % (digest, summary["batches"], summary["size_bytes"],
                     _format_when(_last_used(summary))), file=out)
        else:
            freed += store.remove(digest)
            print("removed %s (%d batches)" % (digest, summary["batches"]),
                  file=out)
    verb = "would remove" if args.dry_run else "removed"
    print("gc: %s %d namespace(s), %d bytes" % (verb, removed, freed),
          file=out)
    return 0


def main(argv=None, out=None):
    """``repro-store``: the store maintenance command line.

    Run as ``python -m repro.analysis.store <command> <root> [...]``:

    ``ls``
        One line per namespace: points, batches, packets, size, modified
        and last-used times.
    ``stats``
        Per-namespace detail, including the scenario hash, the runner,
        and the cumulative hit/miss counters from the stats sidecar.
    ``gc``
        Remove namespaces unused for ``--days N``, and/or matching a
        ``--prefix`` of the namespace digest or a ``--scenario`` hash
        prefix; ``--max-bytes N`` additionally enforces an LRU byte
        budget, evicting the coldest surviving namespaces (by the usage
        sidecar's last-used, file mtime as fallback) until the store
        fits.  ``--dry-run`` previews without deleting.
    """
    out = sys.stdout if out is None else out
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.store",
        description="Inspect and maintain a characterisation ResultStore "
                    "directory.")
    commands = parser.add_subparsers(dest="command", required=True)

    ls = commands.add_parser("ls", help="list namespaces with content counts")
    ls.add_argument("root", help="store directory")
    ls.add_argument("--prefix", default=None,
                    help="only namespaces whose digest starts with this")

    stats = commands.add_parser("stats",
                                help="per-namespace content and hit/miss stats")
    stats.add_argument("root", help="store directory")
    stats.add_argument("--prefix", default=None,
                       help="only namespaces whose digest starts with this")

    gc = commands.add_parser("gc", help="remove stale or matching namespaces")
    gc.add_argument("root", help="store directory")
    gc.add_argument("--days", type=float, default=None,
                    help="remove namespaces unused for this many days")
    gc.add_argument("--prefix", default=None,
                    help="remove namespaces whose digest starts with this")
    gc.add_argument("--scenario", default=None,
                    help="remove namespaces whose scenario hash starts with this")
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="LRU byte budget: after the other selectors, evict "
                         "the coldest namespaces (by sidecar last-used) "
                         "until the store fits this many bytes")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")

    args = parser.parse_args(argv)
    store = ResultStore(args.root)
    command = {"ls": _cmd_ls, "stats": _cmd_stats, "gc": _cmd_gc}[args.command]
    return command(store, args, out)
