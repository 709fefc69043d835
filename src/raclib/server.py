"""HTTP delivery service for packed image collections.

Endpoints:
    GET /image?title=<t>&page=<p>  -> image bytes, 404 unknown, 400 malformed
    GET /health                    -> 200

``respond`` chooses the status, headers and body of every request read;
``DeliveryHandler`` only writes them. An image response carries
``X-RacLib-Source: cache|library`` and ``X-RacLib-Millis``, its resolve time.

The HTTP/1.1 loop is raclib's own, on ``socketserver``: ``http.server``
would load ``http.client``, ``email`` and ``ssl``, which no request needs.
Each request's line and headers are read once with ``readline``, and each
response (status line, headers, ``Date``, ``Content-Length`` and body) goes
out in one ``send``, or in as many as a slow client takes. A request past
http.server's limits, or one that breaks the syntax, is answered with its
own status and its connection closed:
414 for a request line over ``MAX_LINE`` bytes, 431 for a header line over
``MAX_LINE`` or more than ``MAX_HEADERS`` of them, 400 for a malformed
request or header line (an obs-fold line included), 505 for a version other
than HTTP/1.0 or HTTP/1.1, and 501 for a method other than GET.

Connections are HTTP/1.1 and persistent: every response carries
``Content-Length``, so a client may send any number of requests on one
connection, each served by that connection's handler thread. Nagle's
algorithm is off on accepted sockets, so a response is never held back
waiting for the client's delayed ACK. A connection that makes no progress
for ``IDLE_TIMEOUT_S``, no request read and no response byte taken, is
closed, which frees its thread. At the descriptor limit, accepting pauses
for ``ACCEPT_PAUSE_S`` rather than retrying at once. A response after
which the connection closes carries ``Connection: close``: the client asked
for it, spoke HTTP/1.0 without ``Connection: keep-alive``, sent a request
the loop rejects, or declared a body, which no endpoint reads.

``DeliveryServer`` owns its resolver, which owns its library. ``server_close``
ends every open connection (a handler waiting for its next request sees end
of input, a request in flight is answered with ``Connection: close``), waits
for every handler thread, then closes the resolver; so does a failed bind.
"""

from __future__ import annotations

import _signal  # signal's core, loaded by the interpreter: importing signal costs memory
import errno
import logging
import re
import socket
import socketserver
import threading
import time
from urllib.parse import parse_qs, urlsplit

from .cache import BucketCache, DeliveryRequest, ImageResolver
from .config import Config
from .errors import NotFoundError
from .pack import CollectionSet
from .store import closed_on_error

logger = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 5.0  # Apache's default KeepAliveTimeout
ACCEPT_PAUSE_S = 0.1  # after accept fails for want of a descriptor, which leaves the listening socket readable
MAX_LINE = 65536  # bytes in a request or header line, CRLF included: http.server's limit
MAX_HEADERS = 100  # header lines in a request; http.server counted the blank line that ends them too

_BLANK = (b"\r\n", b"\n")
_VERSIONS = {b"HTTP/1.0": "HTTP/1.0", b"HTTP/1.1": "HTTP/1.1"}
_VERSION = re.compile(rb"HTTP/[0-9]+\.[0-9]+")
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 414: "URI Too Long",
            431: "Request Header Fields Too Large", 500: "Internal Server Error", 501: "Not Implemented",
            505: "HTTP Version Not Supported"}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

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


class _RequestError(Exception):
    """A request the loop cannot serve: answered with ``status`` and ``body``, then its connection closes."""

    def __init__(self, status: int, body: bytes):
        super().__init__(status, body)
        self.status, self.body = status, body


class DeliveryHandler(socketserver.StreamRequestHandler):
    """Serves one connection: reads each request, has ``respond`` answer it, sends the answer in one write."""

    server: "DeliveryServer"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def handle(self):
        self.close_connection = False
        try:
            while not self.close_connection:
                try:
                    if not self.read_request():
                        return
                except _RequestError as err:
                    self.close_connection = True
                    self.send(err.status, _TEXT, err.body)
                else:
                    self.do_GET()
        except (TimeoutError, ConnectionError):
            pass  # idle for IDLE_TIMEOUT_S, or the client went away

    def read_request(self) -> bool:
        """Read one GET request's line and headers; False at end of input.

        Sets ``path``, ``request_version``, ``headers`` (by lower-cased name)
        and ``close_connection``. Raises _RequestError for a request that
        breaks a limit or the syntax, or whose method is not GET.
        """
        readline = self.rfile.readline
        line = readline(MAX_LINE + 1)
        if line in _BLANK:
            line = readline(MAX_LINE + 1)  # one empty line before a request is ignored (RFC 9112 §2.2)
        if not line:
            return False
        if len(line) > MAX_LINE:
            raise _RequestError(414, b"request line too long\n")
        words = line.split()
        if len(words) != 3:
            raise _RequestError(400, b"malformed request line\n")
        method, target, version = words
        if version not in _VERSIONS:
            raise _RequestError(505 if _VERSION.fullmatch(version) else 400, b"only HTTP/1.0 and HTTP/1.1 are served\n")
        headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = readline(MAX_LINE + 1)
            if line in _BLANK or not line:
                break
            if len(line) > MAX_LINE:
                raise _RequestError(431, b"header line too long\n")
            name, colon, value = line.partition(b":")
            if not colon or not name or name[0] in b" \t" or name[-1] in b" \t":
                # A line folded onto the last (obs-fold), or a name with no colon
                # or with space before it, which RFC 9112 §5 says to reject.
                raise _RequestError(400, b"malformed header line\n")
            headers[name.lower().decode("latin-1")] = value.strip().decode("latin-1")
        else:
            raise _RequestError(431, b"too many header lines\n")
        if method != b"GET":
            raise _RequestError(501, b"only GET is served\n")
        self.path = target.decode("latin-1")
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")  # as http.server does: not a netloc to urlsplit
        self.request_version, self.headers = _VERSIONS[version], headers
        tokens = {token.strip() for token in headers.get("connection", "").lower().split(",")}
        if self.request_version == "HTTP/1.1":
            self.close_connection = "close" in tokens
        else:
            self.close_connection = "keep-alive" not in tokens
        if "content-length" in headers or "transfer-encoding" in headers:
            # No endpoint reads a request body; on a kept-alive connection it
            # would be parsed as the next request, so close instead.
            self.close_connection = True
        return True

    def do_GET(self):
        self.send(*respond(self.server.resolver, self.path))

    def send(self, status: int, headers: tuple[tuple[str, str], ...], body: bytes) -> None:
        """Send the status line, ``headers``, Date, Content-Length and Connection, and ``body``, in one write.

        Each ``send`` waits at most ``timeout`` for room, so only a client that takes nothing for that long
        is dropped; ``sendall`` would bound the whole response by it, cutting off a slow client."""
        if self.server.closing:
            self.close_connection = True
        head = [f"HTTP/1.1 {status} {_REASONS[status]}\r\nDate: {self.server.date()}\r\n"]
        head.extend(f"{name}: {value}\r\n" for name, value in headers)
        head.append(f"Content-Length: {len(body)}\r\n")
        if self.close_connection:
            head.append("Connection: close\r\n")
        elif self.request_version == "HTTP/1.0":
            head.append("Connection: keep-alive\r\n")
        head.append("\r\n")
        data = memoryview("".join(head).encode("latin-1") + body)
        while data:
            data = data[self.connection.send(data):]


class DeliveryServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection server that owns its resolver; ``server_close`` waits for its handlers, then closes it."""

    allow_reuse_address = True
    daemon_threads = False  # ThreadingMixIn joins only non-daemon handlers on close

    def __init__(self, address: tuple[str, int], resolver: ImageResolver):
        self.resolver = resolver  # this and the rest before TCPServer.__init__, whose failed bind calls server_close
        self.closing = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._date = (0, "")
        with closed_on_error(resolver):  # when socket() fails, before TCPServer.__init__ would call server_close
            super().__init__(address, DeliveryHandler)

    def date(self) -> str:
        """The ``Date`` header's value (RFC 9110 §5.6.7), formatted again only when the second changes."""
        second, text = self._date
        now = int(time.time())
        if now != second:
            t = time.gmtime(now)
            text = (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
                    f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")
            self._date = (now, text)
        return text

    def get_request(self):
        try:
            return super().get_request()
        except OSError as error:
            if error.errno in (errno.EMFILE, errno.ENFILE):
                time.sleep(ACCEPT_PAUSE_S)  # the pending connection keeps the socket readable: no busy retry
            raise

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
        self.resolver.close()


def build_resolver(config: Config) -> ImageResolver:
    """Wire the collections under library_dir to a rotating cache; the cache is made first, so a bad root opens nothing."""
    return ImageResolver(cache=BucketCache(config.cache_root), library=CollectionSet.load_dir(config.library_dir))


def serve(config: Config) -> None:
    """Run the delivery service until interrupted (SIGINT or SIGTERM), then close it."""
    with DeliveryServer(("", config.port), build_resolver(config)) as server:
        try:
            _signal.signal(_signal.SIGTERM, _signal.default_int_handler)  # a service manager's stop, taken as ^C
            logger.info("serving %s on port %d", config.library_dir, config.port)
            server.serve_forever()
        except KeyboardInterrupt:
            pass
