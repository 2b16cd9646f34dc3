"""Scrapeable exporters: Prometheus text exposition and sink reloading.

Three layers, all stdlib-only:

* :func:`prometheus_exposition` renders a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format (version 0.0.4): ``# TYPE`` families, one sample line
  per series, histograms expanded into cumulative ``_bucket``/``_sum``/
  ``_count`` samples.  Deterministic ordering, so goldens are stable.
* :func:`parse_exposition` is the matching validator/parser — CI scrapes
  the endpoint and round-trips the grammar through it.
* :class:`ExpositionServer` serves the exposition from a background
  :mod:`http.server` thread (``decor obs serve``); the source is a callable
  returning a registry, so it can serve the live global runtime or re-read
  an exported sink per request.

Sink reloading (:func:`load_registry`) accepts either format the CLI
writes — a ``--metrics`` JSON document or a ``--sample`` JSONL trajectory —
and folds it back into a registry.  Histogram bucket shapes and min/max are
not recoverable from sample rows (rows carry count/sum deltas only); the
reconstruction places the mass in the bucket containing the mean, so
quantiles on a reloaded sink report the mean.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ObservabilityError
from repro.obs.metrics import _BUCKET_EDGES, Histogram, MetricsRegistry

# http.server (and the ssl it loads) is imported by ExpositionServer.start,
# so importing the package (and the CLI) does not pay for it
if TYPE_CHECKING:  # pragma: no cover - typing only
    from http.server import ThreadingHTTPServer

__all__ = [
    "CONTENT_TYPE",
    "ExpositionServer",
    "load_registry",
    "parse_exposition",
    "prometheus_exposition",
    "registry_from_metrics_json",
    "registry_from_samples",
]

#: The exposition-format content type served and expected by scrapers.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"


def _escape(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _labels_text(labels: Iterable[tuple[str, object]]) -> str:
    pairs = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return f"{{{pairs}}}" if pairs else ""


def prometheus_exposition(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    >>> reg = MetricsRegistry()
    >>> reg.counter("decor_messages_total", kind="border").inc(3)
    >>> reg.gauge("health_coverage_fraction").set(0.75)
    >>> print(prometheus_exposition(reg), end="")
    # TYPE decor_messages_total counter
    decor_messages_total{kind="border"} 3
    # TYPE health_coverage_fraction gauge
    health_coverage_fraction 0.75
    """
    lines: list[str] = []
    current = ""
    for name, labels, kind, payload in registry.dump_state():
        if name != current:
            lines.append(f"# TYPE {name} {kind}")
            current = name
        ltext = _labels_text(labels)
        if kind == "histogram":
            acc = 0
            for i, n in enumerate(payload["buckets"]):
                acc += int(n)
                edge = (
                    "+Inf" if i == len(_BUCKET_EDGES)
                    else _fmt(float(_BUCKET_EDGES[i]))
                )
                blabels = _labels_text([*labels, ("le", edge)])
                lines.append(f"{name}_bucket{blabels} {acc}")
            lines.append(f"{name}_sum{ltext} {_fmt(payload['sum'])}")
            lines.append(f"{name}_count{ltext} {payload['count']}")
        else:
            lines.append(f"{name}{ltext} {_fmt(payload['value'])}")
    return "\n".join(lines) + "\n" if lines else "\n"


# ----------------------------------------------------------------------
# parsing / validation
# ----------------------------------------------------------------------
def _parse_labels(text: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0 or len(text) <= eq + 1 or text[eq + 1] != '"':
            raise ObservabilityError(
                f"exposition line {lineno}: malformed label set {text!r}"
            )
        key = text[i:eq]
        if not key or any(c not in _NAME_OK for c in key):
            raise ObservabilityError(
                f"exposition line {lineno}: bad label name {key!r}"
            )
        j = eq + 2
        value: list[str] = []
        while j < len(text) and text[j] != '"':
            if text[j] == "\\" and j + 1 < len(text):
                esc = text[j + 1]
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(esc, "\\" + esc)
                )
                j += 2
            else:
                value.append(text[j])
                j += 1
        if j >= len(text):
            raise ObservabilityError(
                f"exposition line {lineno}: unterminated label value"
            )
        labels[key] = "".join(value)
        i = j + 1
        if i < len(text):
            if text[i] != ",":
                raise ObservabilityError(
                    f"exposition line {lineno}: expected ',' in label set"
                )
            i += 1
    return labels


def parse_exposition(text: str) -> dict[str, Any]:
    """Parse/validate an exposition document.

    Returns ``{"families": {name: type}, "samples": [(name, labels, value),
    ...]}``; raises :class:`~repro.errors.ObservabilityError` naming the
    offending line on any grammar violation (unknown TYPE, malformed
    sample, bad metric/label name, non-numeric value).
    """
    families: dict[str, str] = {}
    samples: list[tuple[str, dict[str, str], float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ObservabilityError(
                        f"exposition line {lineno}: malformed TYPE comment"
                    )
                _, _, name, family = parts
                if family not in ("counter", "gauge", "histogram",
                                  "summary", "untyped"):
                    raise ObservabilityError(
                        f"exposition line {lineno}: unknown family {family!r}"
                    )
                families[name] = family
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ObservabilityError(
                    f"exposition line {lineno}: unbalanced braces"
                )
            name = line[:brace]
            labels = _parse_labels(line[brace + 1:close], lineno)
            rest = line[close + 1:].strip()
        else:
            name, _, rest = line.partition(" ")
            labels = {}
            rest = rest.strip()
        if not name or name[0].isdigit() or any(
            c not in _NAME_OK for c in name
        ):
            raise ObservabilityError(
                f"exposition line {lineno}: bad metric name {name!r}"
            )
        value_text = rest.split()[0] if rest else ""
        try:
            value = float(value_text)
        except ValueError:
            raise ObservabilityError(
                f"exposition line {lineno}: non-numeric value {value_text!r}"
            ) from None
        samples.append((name, labels, value))
    return {"families": families, "samples": samples}


# ----------------------------------------------------------------------
# sink reloading
# ----------------------------------------------------------------------
def _split_series_key(key: str) -> tuple[str, dict[str, str]]:
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name = key[:brace]
    body = key[brace + 1:-1]
    labels: dict[str, str] = {}
    if body:
        for pair in body.split(","):
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


def _synth_histogram_state(count: int, total: float) -> dict[str, Any]:
    """Mergeable state for a histogram known only by ``(count, sum)``.

    Sample rows carry count/sum deltas, not buckets, so the only honest
    reconstruction is the mean: all mass lands in the bucket containing
    it and ``min == max == mean``.  Quantiles on a reloaded sink then
    report the mean — previously the mass was parked in the open-ended
    bucket with ``max = 0.0``, which collapsed every quantile to zero.
    """
    buckets = [0] * (len(_BUCKET_EDGES) + 1)
    mean = total / count if count else 0.0
    index = len(_BUCKET_EDGES)
    for i, edge in enumerate(_BUCKET_EDGES):
        if mean <= edge:
            index = i
            break
    buckets[index] = count
    return {
        "count": count, "sum": total,
        "min": mean if count else math.inf,
        "max": mean if count else -math.inf,
        "buckets": buckets,
    }


def registry_from_samples(
    rows: Iterable[dict[str, Any]],
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Fold sampler rows back into a registry (counters/histograms sum
    their deltas, gauges keep the last reading)."""
    reg = registry if registry is not None else MetricsRegistry()
    hist: dict[str, tuple[int, float]] = {}
    for row in rows:
        if row.get("type") != "sample":
            continue
        for key, entry in row.get("series", {}).items():
            name, labels = _split_series_key(key)
            kind = entry.get("k")
            if kind == "counter":
                reg.counter(name, **labels).inc(entry["v"])
            elif kind == "gauge":
                reg.gauge(name, **labels).set(float(entry["v"]))
            elif kind == "histogram":
                c, s = hist.get(key, (0, 0.0))
                hist[key] = (c + int(entry["count"]), s + float(entry["sum"]))
            else:
                raise ObservabilityError(
                    f"sample row {row.get('seq')}: unknown series kind {kind!r}"
                )
    for key, (count, total) in sorted(hist.items()):
        name, labels = _split_series_key(key)
        reg.histogram(name, **labels).combine(
            _synth_histogram_state(count, total)
        )
    return reg


def registry_from_metrics_json(
    doc: dict[str, Any], registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Rebuild a registry from a ``--metrics`` JSON document
    (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict` format)."""
    reg = registry if registry is not None else MetricsRegistry()
    edge_index = {_f: i for i, _f in enumerate(f"{e:g}" for e in _BUCKET_EDGES)}
    for name, series in doc.items():
        for label_text, payload in series.items():
            _, labels = _split_series_key(
                f"{name}{{{label_text}}}" if label_text else name
            )
            kind = payload.get("type")
            if kind == "counter":
                reg.counter(name, **labels).inc(payload["value"])
            elif kind == "gauge":
                reg.gauge(name, **labels).set(float(payload["value"]))
            elif kind == "histogram":
                buckets = [0] * (len(_BUCKET_EDGES) + 1)
                for edge, n in payload.get("buckets", {}).items():
                    idx = (
                        len(_BUCKET_EDGES) if edge == "+inf"
                        else edge_index.get(edge)
                    )
                    if idx is None:
                        raise ObservabilityError(
                            f"metric {name!r}: unknown bucket edge {edge!r}"
                        )
                    buckets[idx] = int(n)
                count = int(payload["count"])
                reg.histogram(name, **labels).combine({
                    "count": count,
                    "sum": float(payload["sum"]),
                    "min": float(payload.get("min", 0.0 if count else math.inf)),
                    "max": float(
                        payload.get("max", 0.0 if count else -math.inf)
                    ),
                    "buckets": buckets,
                })
            else:
                raise ObservabilityError(
                    f"metric {name!r}: unknown instrument type {kind!r}"
                )
    return reg


def load_registry(path: str | Path) -> MetricsRegistry:
    """Load either CLI export format (metrics JSON or samples JSONL)."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        return MetricsRegistry()
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and doc.get("type") not in (
            "header", "sample"
        ):
            return registry_from_metrics_json(doc)
    except json.JSONDecodeError:
        pass
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    return registry_from_samples(rows)


# ----------------------------------------------------------------------
# the scrape endpoint
# ----------------------------------------------------------------------
class ExpositionServer:
    """Background HTTP thread serving ``GET /metrics``.

    ``source`` is called per request and must return the registry to
    render — pass ``lambda: OBS.metrics`` to serve the live runtime, or a
    loader closure to re-read an exported file on every scrape.
    """

    def __init__(
        self,
        source: Callable[[], MetricsRegistry],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.source = source
        self.host = host
        self.port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "ExpositionServer":
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        if self._httpd is not None:
            raise ObservabilityError("exposition server already started")
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path in ("/metrics", "/"):
                    try:
                        body = prometheus_exposition(outer.source())
                    except Exception as exc:  # noqa: BLE001 - served as 500
                        self.send_response(500)
                        self.end_headers()
                        self.wfile.write(str(exc).encode("utf-8"))
                        return
                    payload = body.encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                elif self.path == "/healthz":
                    self.send_response(200)
                    self.end_headers()
                    self.wfile.write(b"ok\n")
                else:
                    self.send_response(404)
                    self.end_headers()

            def log_message(self, format: str, *args: object) -> None:
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="obs-exposition",
            daemon=True,
        )
        self._thread.start()
        return self

    def wait(self) -> None:
        """Block until the server thread exits (``decor obs serve``)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ExpositionServer":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False
