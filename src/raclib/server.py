"""HTTP delivery service for packed image collections.

Endpoints:
    GET /image?title=<t>&page=<p>  -> image bytes, 404 unknown, 400 malformed
    GET /health                    -> 200

``respond`` chooses every status, header and body; ``DeliveryHandler`` only
writes them. Every image response carries ``X-RacLib-Source: cache|library``
and ``X-RacLib-Millis``, the time its resolve took.

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

import _signal  # signal's core, loaded by the interpreter: importing signal costs memory
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .cache import BucketCache, DeliveryRequest, ImageResolver
from .config import Config
from .errors import NotFoundError
from .pack import CollectionSet
from .store import closed_on_error

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


_TEXT = (("Content-Type", "text/plain"),)


def respond(resolver: ImageResolver, target: str) -> tuple[int, tuple[tuple[str, str], ...], bytes]:
    """The ``(status, headers, body)`` that answer ``GET target``; headers are (name, value) pairs.

    ``X-RacLib-Millis`` is the time ``resolver.resolve`` took. A resolver
    failure other than NotFoundError is logged and answered with 500, so a
    corrupt library or index never drops the connection.
    """
    parts = urlsplit(target)
    if parts.path == "/health":
        return 200, _TEXT, b"ok\n"
    if parts.path != "/image":
        return 404, _TEXT, b"not found\n"
    params = parse_qs(parts.query)
    try:
        request = DeliveryRequest(title=params.get("title", [""])[0], page=params.get("page", [""])[0])
    except ValueError as exc:
        return 400, _TEXT, f"bad request: {exc}\n".encode()
    started = time.perf_counter()
    try:
        result = resolver.resolve(request)
    except NotFoundError:
        return 404, _TEXT, b"unknown title/page\n"
    except Exception:
        logger.exception("delivery failed for %s", target)
        return 500, _TEXT, b"internal error\n"
    millis = (time.perf_counter() - started) * 1000
    headers = (("Content-Type", sniff_content_type(result.payload)), ("X-RacLib-Source", result.source),
               ("X-RacLib-Millis", f"{millis:.1f}"))
    return 200, headers, result.payload


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
        status, headers, body = respond(self.server.resolver, self.path)
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection or self.server.closing:
            self.send_header("Connection", "close")  # which also sets close_connection
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
    with closed_on_error(CollectionSet.load_dir(config.library_dir)) as collections:
        return ImageResolver(collections.fetch, BucketCache(config.cache_root), close=collections.close)


def serve(config: Config) -> None:
    """Run the delivery service until interrupted (SIGINT or SIGTERM), then close it."""
    server = DeliveryServer(("", config.port), build_resolver(config))
    _signal.signal(_signal.SIGTERM, _signal.default_int_handler)  # a service manager's stop, taken as ^C
    try:
        logger.info("serving %s on port %d", config.library_dir, config.port)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.resolver.close()
