"""HTTP delivery service for packed image collections.

Endpoints:
    GET /image?title=<t>&page=<p>  -> image bytes, 404 unknown, 400 malformed
    GET /health                    -> 200

Every image response carries ``X-RacLib-Source: cache|library`` and
``X-RacLib-Millis`` so cache behaviour is observable from the outside.

Connections are HTTP/1.1 and persistent: every response carries
``Content-Length``, so a client may send any number of requests on one
connection, each served by that connection's handler thread. Nagle's
algorithm is off on accepted sockets, so a response is never held back
waiting for the client's delayed ACK. A connection idle for
``IDLE_TIMEOUT_S`` is closed, which frees its thread. A response after
which the connection closes carries ``Connection: close``; a request that
declares a body, which no endpoint reads, ends its connection.

``DeliveryServer.server_close`` ends every open connection: a handler
waiting for its next request sees end of input, a request in flight is
answered with ``Connection: close``, and the call returns only when every
handler thread has finished, so the resolver may be closed after it.
"""

from __future__ import annotations

import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .cache import BucketCache, DeliveryRequest, ImageResolver
from .config import Config
from .errors import NotFoundError
from .pack import CollectionSet

logger = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 5.0  # Apache's default KeepAliveTimeout

_MAGIC_TYPES = [
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"GIF87a", "image/gif"),
    (b"GIF89a", "image/gif"),
]


def sniff_content_type(payload: bytes) -> str:
    for magic, content_type in _MAGIC_TYPES:
        if payload.startswith(magic):
            return content_type
    return "image/jpeg"


class DeliveryHandler(BaseHTTPRequestHandler):
    server: "DeliveryServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def do_GET(self):
        if "Content-Length" in self.headers or "Transfer-Encoding" in self.headers:
            # No endpoint reads a request body; on a kept-alive connection it
            # would be parsed as the next request, so close instead.
            self.close_connection = True
        parts = urlsplit(self.path)
        if parts.path == "/health":
            self._send(200, b"ok\n", "text/plain")
        elif parts.path == "/image":
            self._serve_image(parse_qs(parts.query))
        else:
            self._send(404, b"not found\n", "text/plain")

    def _serve_image(self, params):
        try:
            request = DeliveryRequest(
                title=params.get("title", [""])[0],
                page=params.get("page", [""])[0],
            )
        except ValueError as exc:
            self._send(400, f"bad request: {exc}\n".encode(), "text/plain")
            return
        try:
            result = self.server.resolver.resolve(request)
        except NotFoundError:
            self._send(404, b"unknown title/page\n", "text/plain")
            return
        except Exception:  # a corrupt library or index must not drop the connection
            logger.exception("delivery failed for %s", self.path)
            self._send(500, b"internal error\n", "text/plain")
            return
        self._send(
            200,
            result.payload,
            sniff_content_type(result.payload),
            extra={
                "X-RacLib-Source": result.source,
                "X-RacLib-Millis": f"{result.fetch_millis:.1f}",
            },
        )

    def _send(self, status: int, body: bytes, content_type: str, extra: dict | None = None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        if self.server.closing:
            self.close_connection = True
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s - %s", self.address_string(), format % args)


class DeliveryServer(ThreadingHTTPServer):
    """Thread-per-connection server; ``server_close`` waits for its handlers."""

    daemon_threads = False  # ThreadingMixIn joins only non-daemon handlers on close

    def __init__(self, address: tuple[str, int], resolver: ImageResolver):
        super().__init__(address, DeliveryHandler)
        self.resolver = resolver
        self.closing = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def close_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().close_request(request)

    def server_close(self):
        with self._connections_lock:
            self.closing = True
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)  # wakes a handler waiting to read
                except OSError:
                    pass  # the client has already gone
        super().server_close()  # closes the listening socket and joins the handlers


def build_resolver(config: Config) -> ImageResolver:
    """Wire the collections under library_dir to a rotating cache."""
    collections = CollectionSet.load_dir(config.library_dir)
    cache = BucketCache(
        config.cache_root,
        bucket_width=config.bucket_width_seconds,
        bucket_ttl=config.bucket_ttl_seconds,
    )
    return ImageResolver(collections.fetch, cache, close=collections.close)


def serve(config: Config) -> None:
    """Run the delivery service until interrupted."""
    server = DeliveryServer(("", config.port), build_resolver(config))
    logger.info("serving %s on port %d", config.library_dir, config.port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.resolver.close()
