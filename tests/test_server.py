import email.utils
import errno
import http.client
import logging
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from helpers import open_fd_count

from raclib.cache import BucketCache, DeliveryRequest, DeliveryResult, ImageResolver
from raclib.config import Config
from raclib.pack import Collection, pack_directory
from raclib.server import (IDLE_TIMEOUT_S, MAX_HEADERS, MAX_LINE, DeliveryHandler, DeliveryServer, build_resolver,
                           sniff_content_type)

from test_pack import NEW_SIZES, OLD_SIZES, make_pages, repack_over, write_members
from test_respond import FakeResolver


def test_sniff_content_type():
    assert sniff_content_type(b"\xff\xd8\xff\xe0rest") == "image/jpeg"
    assert sniff_content_type(b"\x89PNG\r\n\x1a\nrest") == "image/png"
    assert sniff_content_type(b"GIF89a___") == "image/gif"
    assert sniff_content_type(b"whoknows") == "image/jpeg"


def pack_pages(tmp_path):
    """Three pages packed into ``lib/yearbooks``, and one index line that no store can serve."""
    pages = make_pages(tmp_path / "in", 3)
    pack_directory(tmp_path / "in", "yearbooks", tmp_path / "lib").close()
    with open(tmp_path / "lib" / "yearbooks.index", "a", encoding="ascii") as f:
        f.write("Broken 0001 0 2 1\n")  # two records cannot hold 1 byte: read_payload raises ValueError
    return pages


@pytest.fixture
def service(tmp_path):
    pages = pack_pages(tmp_path)
    config = Config(library_dir=tmp_path / "lib", cache_root=tmp_path / "cache")
    server = DeliveryServer(("127.0.0.1", 0), build_resolver(config))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", pages
    server.shutdown()
    server.server_close()


def get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, dict(response.headers), response.read()


def get_error(url):
    """Status and body of a request that must fail, its response closed."""
    with pytest.raises(urllib.error.HTTPError) as err:
        get(url)
    with err.value:
        return err.value.code, err.value.read()


def test_health(service):
    base, _ = service
    status, _, _ = get(base + "/health")
    assert status == 200


def test_image_library_then_cache(service):
    base, pages = service
    url = base + "/image?title=TallyHo1965&page=0002"
    status, headers, body = get(url)
    assert status == 200
    assert headers["X-RacLib-Source"] == "library"
    assert headers["Content-Type"] == "image/jpeg"
    assert float(headers["X-RacLib-Millis"]) >= 0
    assert body == pages["TallyHo1965", "0002"]

    status, headers, body2 = get(url)
    assert headers["X-RacLib-Source"] == "cache"
    assert body2 == body


def test_repack_renamed_under_a_running_server_serves_the_pack_it_opened(tmp_path):
    old = write_members(tmp_path / "in", OLD_SIZES, seed=1)
    pack_directory(tmp_path / "in", "T", tmp_path / "lib").close()
    config = Config(library_dir=tmp_path / "lib", cache_root=tmp_path / "cache")
    server = DeliveryServer(("127.0.0.1", 0), build_resolver(config))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}/image?title=T&page="
        new = repack_over(tmp_path, tmp_path / "lib", NEW_SIZES)
        for key, body in old.items():
            status, headers, served = get(base + key)
            assert (status, headers["X-RacLib-Source"], served) == (200, "library", body)
        for key in new.keys() - old.keys():
            assert get_error(base + key)[0] == 404
    finally:
        server.shutdown()
        server.server_close()


def test_unknown_image_404(service):
    base, _ = service
    assert get_error(base + "/image?title=NoSuchTitle&page=0001")[0] == 404


@pytest.mark.parametrize(
    "query", ["", "title=OnlyTitle", "page=0001", "title=a%20b&page=1"]
)
def test_malformed_request_400(service, query):
    base, _ = service
    assert get_error(base + "/image?" + query)[0] == 400


def test_every_name_pack_accepts_is_served_and_cached_in_its_bucket(tmp_path):
    (tmp_path / "in").mkdir()
    body = bytes(range(256)) * 5
    (tmp_path / "in" / "p.jpg").write_bytes(body)
    (tmp_path / "members.tsv").write_text("p.jpg\tSmith/Jones\t0001\n")
    pack_directory(tmp_path / "in", "c", tmp_path / "lib", manifest=tmp_path / "members.tsv").close()
    config = Config(library_dir=tmp_path / "lib", cache_root=tmp_path / "cache")
    server = DeliveryServer(("127.0.0.1", 0), build_resolver(config))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}/image"
        for source in ("library", "cache"):
            status, headers, served = get(base + "?title=Smith%2FJones&page=0001")
            assert (status, headers["X-RacLib-Source"], served) == (200, source, body)
        assert get_error(base + "?title=..%2F..%2Fup&page=0001")[0] == 404
    finally:
        server.shutdown()
        server.server_close()
    buckets = [path for path in (tmp_path / "cache").iterdir() if path.is_dir()]
    assert len(buckets) == 1
    assert [path.name for path in buckets[0].iterdir()] == ["Smith%2FJones_0001.jpg"]
    assert (buckets[0] / "Smith%2FJones_0001.jpg").read_bytes() == body


def test_unknown_path_404(service):
    base, _ = service
    assert get_error(base + "/nope")[0] == 404


def test_corrupt_index_line_answers_500_and_server_keeps_serving(service, caplog):
    base, pages = service
    with caplog.at_level(logging.ERROR, logger="raclib.server"):
        status, body = get_error(base + "/image?title=Broken&page=0001")
    assert (status, body) == (500, b"internal error\n")
    assert "delivery failed" in caplog.text
    status, _, body = get(base + "/image?title=TallyHo1965&page=0001")
    assert (status, body) == (200, pages["TallyHo1965", "0001"])


def test_missing_library_dir_fails_startup(tmp_path):
    config = Config(library_dir=tmp_path / "missing", cache_root=tmp_path / "cache")
    with pytest.raises(FileNotFoundError):
        build_resolver(config)


def test_unmakeable_cache_root_fails_startup_holding_no_fd(tmp_path):
    make_pages(tmp_path / "in", 2)
    pack_directory(tmp_path / "in", "yearbooks", tmp_path / "lib").close()
    (tmp_path / "file").write_bytes(b"")
    config = Config(library_dir=tmp_path / "lib", cache_root=tmp_path / "file" / "cache")
    before = open_fd_count()
    with pytest.raises(NotADirectoryError):
        build_resolver(config)
    assert open_fd_count() == before


def test_a_busy_port_fails_startup_with_its_oserror_holding_no_fd(tmp_path):
    pack_pages(tmp_path)
    config = Config(library_dir=tmp_path / "lib", cache_root=tmp_path / "cache")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        before = open_fd_count()
        resolver = build_resolver(config)
        with pytest.raises(OSError) as err:
            DeliveryServer(("127.0.0.1", port), resolver)
        assert err.value.errno == errno.EADDRINUSE
        assert_closed(resolver.library.collections[0])
        assert open_fd_count() == before  # the listening socket too
        served = subprocess.run([sys.executable, "-m", "raclib.cli", "serve", "--port", str(port),
                                 "--library-dir", str(config.library_dir), "--cache-root", str(config.cache_root)],
                                capture_output=True, text=True, timeout=60)
    assert (served.returncode, served.stderr) == (
        1, f"raclib: error: [Errno {errno.EADDRINUSE}] {os.strerror(errno.EADDRINUSE)}\n")


def test_a_socket_that_cannot_be_made_closes_the_resolver(tmp_path, monkeypatch):
    pack_pages(tmp_path)
    resolver = build_resolver(Config(library_dir=tmp_path / "lib", cache_root=tmp_path / "cache"))

    def no_descriptor(*args, **kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(socket, "socket", no_descriptor)
    with pytest.raises(OSError) as err:
        DeliveryServer(("127.0.0.1", 0), resolver)
    assert err.value.errno == errno.EMFILE
    assert_closed(resolver.library.collections[0])


class CountingConnection(http.client.HTTPConnection):
    """An ``http.client`` connection that counts the TCP connections it opens."""

    def __init__(self, port):
        super().__init__("127.0.0.1", port, timeout=10)
        self.connects = 0

    def connect(self):
        self.connects += 1
        super().connect()

    def get(self, path):
        self.request("GET", path)
        with self.getresponse() as response:
            return response.status, response.getheader("X-RacLib-Source"), response.read()


@pytest.fixture
def counted_server(tmp_path):
    """A server over one packed collection whose I/O counters the test can read."""
    pages = pack_pages(tmp_path)
    collection = Collection.open(tmp_path / "lib" / "yearbooks.raclib")
    server = DeliveryServer(("127.0.0.1", 0), ImageResolver(collection, BucketCache(tmp_path / "cache")))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = CountingConnection(server.server_address[1])
    yield server, conn, collection, pages
    conn.close()
    server.shutdown()
    server.server_close()


@pytest.fixture
def counted(counted_server):
    return counted_server[1:]


def assert_closed(collection):
    """Both files of ``collection`` are closed: asking either for its status fails with EBADF."""
    for store in (collection.store, collection.index.records):
        with pytest.raises(OSError) as err:
            store.fstat()
        assert err.value.errno == errno.EBADF


def image_path(title, page):
    return f"/image?title={title}&page={page}"


def test_library_fetch_reads_exactly_the_body(counted):
    conn, collection, pages = counted
    for (title, page), payload in pages.items():
        collection.index.counters.reset()
        collection.store.counters.reset()
        status, source, body = conn.get(image_path(title, page))
        assert (status, source, body) == (200, "library", payload)
        assert collection.index.counters.reads == 1
        assert collection.store.counters.reads == 1
        assert collection.store.counters.bytes_read == len(body)
        assert len(body) % collection.store.record_size  # padding was there to skip


def test_one_connection_carries_every_status(counted):
    conn, _, pages = counted
    with pytest.raises(ValueError) as bad:
        DeliveryRequest(title="OnlyTitle", page="")
    first, second = pages["TallyHo1965", "0001"], pages["TallyHo1965", "0002"]
    script = [
        (image_path("TallyHo1965", "0001"), 200, "library", first),
        (image_path("TallyHo1965", "0001"), 200, "cache", first),
        (image_path("NoSuchTitle", "0001"), 404, None, b"unknown title/page\n"),
        ("/image?title=OnlyTitle", 400, None, f"bad request: {bad.value}\n".encode()),
        (image_path("Broken", "0001"), 500, None, b"internal error\n"),
        ("/nope", 404, None, b"not found\n"),
        ("/health", 200, None, b"ok\n"),
        (image_path("TallyHo1965", "0002"), 200, "library", second),
        (image_path("TallyHo1965", "0001"), 200, "cache", first),
    ]
    for path, *expected in script:
        assert list(conn.get(path)) == expected, path
    assert conn.connects == 1


def test_responses_are_not_held_back_by_nagle(counted):
    # With Nagle on, each body segment waits for the client's delayed ACK
    # (~40 ms on Linux), so 50 responses would take >= 2 s.
    conn, _, pages = counted
    path, payload = image_path("TallyHo1965", "0003"), pages["TallyHo1965", "0003"]
    conn.get(path)
    started = time.perf_counter()
    for _ in range(50):
        assert conn.get(path) == (200, "cache", payload)
    assert time.perf_counter() - started < 1.0
    assert conn.connects == 1


def test_idle_connection_is_closed_after_timeout(counted, monkeypatch):
    assert DeliveryHandler.timeout == IDLE_TIMEOUT_S
    monkeypatch.setattr(DeliveryHandler, "timeout", 0.2)
    conn, _, pages = counted
    path, payload = image_path("TallyHo1965", "0001"), pages["TallyHo1965", "0001"]
    assert conn.get(path) == (200, "library", payload)
    conn.sock.settimeout(5)
    started = time.perf_counter()
    assert conn.sock.recv(1) == b"", "the server closes the idle connection"
    assert 0.15 < time.perf_counter() - started < 4
    conn.close()
    assert conn.get(path) == (200, "cache", payload)
    assert conn.connects == 2


def test_request_with_a_body_ends_its_connection(counted):
    conn, _, pages = counted
    smuggled = b"GET /image?title=TallyHo1965&page=0002 HTTP/1.1\r\nHost: x\r\n\r\n"
    with socket.create_connection(("127.0.0.1", conn.port), timeout=5) as raw:
        raw.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(smuggled) + smuggled)
        with raw.makefile("rb") as replies:
            answered = replies.read()  # until the server closes
    head, body = answered.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 200 ") and b"\r\nConnection: close" in head
    assert body == b"ok\n", "the body was not served as a second request"

    conn.request("GET", image_path("TallyHo1965", "0001"), body=b"x")
    with conn.getresponse() as response:
        assert (response.status, response.read()) == (200, pages["TallyHo1965", "0001"])
    assert conn.get("/health") == (200, None, b"ok\n")
    assert conn.connects == 2


def test_close_ends_an_idle_connection_before_the_store_closes(counted_server):
    server, conn, collection, pages = counted_server
    assert conn.get(image_path("TallyHo1965", "0001")) == (200, "library", pages["TallyHo1965", "0001"])
    server.shutdown()
    started = time.perf_counter()
    server.server_close()
    assert time.perf_counter() - started < 1.0, "the idle connection did not hold up the close"
    assert_closed(collection)
    # The kept-alive connection is gone: no answer from the closed store.
    with pytest.raises((http.client.RemoteDisconnected, ConnectionError)):
        conn.get(image_path("TallyHo1965", "0002"))
    assert conn.connects == 1


def test_close_answers_the_request_in_flight_then_ends_its_connection(counted_server, monkeypatch):
    server, conn, collection, pages = counted_server
    entered, release = threading.Event(), threading.Event()
    read_payload = collection.store.read_payload

    def held_read(ref):
        entered.set()
        release.wait(5)
        return read_payload(ref)

    monkeypatch.setattr(collection.store, "read_payload", held_read)
    answers = []

    def client():
        conn.request("GET", image_path("TallyHo1965", "0003"))
        with conn.getresponse() as response:
            answers.append((response.status, response.getheader("Connection"), response.read()))

    requester = threading.Thread(target=client)
    requester.start()
    assert entered.wait(5)
    server.shutdown()
    closer = threading.Thread(target=server.server_close)
    closer.start()
    closer.join(0.3)
    assert closer.is_alive(), "server_close waits for the request in flight"
    release.set()
    closer.join(5)
    requester.join(5)
    assert not closer.is_alive() and not requester.is_alive()
    assert answers == [(200, "close", pages["TallyHo1965", "0003"])]
    assert_closed(collection)
    assert conn.connects == 1


def read_response(replies):
    """The next response on ``replies``: (status line, headers by name, body), read by its Content-Length."""
    status = replies.readline().rstrip(b"\r\n")
    headers = {}
    while (line := replies.readline()) not in (b"\r\n", b""):
        name, value = line.rstrip(b"\r\n").split(b": ", 1)
        assert name not in headers, name
        headers[name] = value
    return status, headers, replies.read(int(headers[b"Content-Length"]))


def exchange(port, data):
    """Every response to ``data``, sent in one write on a new connection, read until the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as raw:
        raw.sendall(data)
        with raw.makefile("rb") as replies:
            answers = []
            while replies.peek(1):
                answers.append(read_response(replies))
    return answers


def test_http_1_0_closes_unless_kept_alive(counted):
    conn, _, _ = counted
    [(status, headers, body)] = exchange(conn.port, b"GET /health HTTP/1.0\r\n\r\n")
    assert (status, headers[b"Connection"], body) == (b"HTTP/1.1 200 OK", b"close", b"ok\n")
    with socket.create_connection(("127.0.0.1", conn.port), timeout=5) as raw, raw.makefile("rb") as replies:
        for _ in range(2):
            raw.sendall(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            status, headers, body = read_response(replies)
            assert (status, headers[b"Connection"], body) == (b"HTTP/1.1 200 OK", b"keep-alive", b"ok\n")


def test_pipelined_requests_are_answered_in_order(counted_server):
    server, conn, _, pages = counted_server
    started = time.time()
    first, second = image_path("TallyHo1965", "0002"), image_path("TallyHo1965", "0001")
    answers = exchange(conn.port, f"GET {first} HTTP/1.1\r\nHost: x\r\n\r\n"
                                  f"GET {second} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode())
    assert [(status, body) for status, _, body in answers] == [
        (b"HTTP/1.1 200 OK", pages["TallyHo1965", "0002"]), (b"HTTP/1.1 200 OK", pages["TallyHo1965", "0001"])]
    assert [headers.get(b"Connection") for _, headers, _ in answers] == [None, b"close"]
    dates = {email.utils.formatdate(second, usegmt=True).encode() for second in (int(started), int(time.time()))}
    for _, headers, _ in answers:
        assert headers[b"Date"] in dates
        assert b"Server" not in headers


GET_HEALTH = b"GET /health HTTP/1.1\r\n"
LONG_TARGET = b"/" + b"a" * (MAX_LINE - len(b"GET / HTTP/1.1\r\n"))  # a request line of MAX_LINE bytes


@pytest.mark.parametrize("request_bytes, status", [
    # At the limits, served.
    (b"GET " + LONG_TARGET + b" HTTP/1.1\r\nConnection: close\r\n\r\n", 404),
    (GET_HEALTH + b"X: " + b"a" * (MAX_LINE - 5) + b"\r\nConnection: close\r\n\r\n", 200),
    (GET_HEALTH + b"X: y\r\n" * (MAX_HEADERS - 1) + b"Connection: close\r\n\r\n", 200),
    # Served: one empty line before the request line is skipped, and a target of "//image" is not a netloc.
    (b"\r\n" + GET_HEALTH + b"Connection: close\r\n\r\n", 200),
    (b"GET //image?title=TallyHo1965&page=0002 HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
    # Past them, or broken; each request is whole as far as the server reads before it answers.
    (b"GET /" + b"a" * (MAX_LINE - 4), 414),
    (GET_HEALTH + b"X: " + b"a" * (MAX_LINE - 2), 431),
    (GET_HEALTH + b"X: y\r\n" * (MAX_HEADERS + 1), 431),
    (b"GET /health\r\n", 400),
    (b"GET /health HTTP/1.1 extra\r\n", 400),
    (b"GET /health HTTP/x\r\n", 400),
    (GET_HEALTH + b"Host: x\r\n folded\r\n", 400),
    (GET_HEALTH + b"Host x\r\n", 400),
    (GET_HEALTH + b"Content-Length : 0\r\n", 400),
    (b"HEAD /health HTTP/1.1\r\n\r\n", 501),
    (b"POST /health HTTP/1.1\r\n\r\n", 501),
    (b"GET /health HTTP/2.0\r\n", 505),
    (b"GET /health HTTP/0.9\r\n", 505),
], ids=["line-at-limit", "header-at-limit", "headers-at-limit", "empty-line-first", "double-slash", "line-too-long",
        "header-too-long", "too-many-headers", "two-words", "four-words", "bad-version", "obs-fold", "no-colon",
        "space-before-colon", "head", "post", "http-2", "http-0.9"])
def test_each_rejected_request_has_its_status_and_ends_its_connection(counted, request_bytes, status):
    conn, _, _ = counted
    [(status_line, headers, _)] = exchange(conn.port, request_bytes)
    assert re.fullmatch(rb"HTTP/1\.1 %d [A-Za-z ]+" % status, status_line), status_line
    assert headers[b"Connection"] == b"close"


def test_a_response_is_sent_in_one_write(counted, monkeypatch):
    conn, _, pages = counted
    writes = []
    for name in ("send", "sendall", "sendmsg", "sendfile"):
        def counting(sock, *args, real=getattr(socket.socket, name), name=name, **kwargs):
            if sock.getsockname()[1] == conn.port:  # a socket the server accepted
                writes.append(name)
            return real(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, name, counting)
    request = f"GET {image_path('TallyHo1965', '0003')} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
    with socket.create_connection(("127.0.0.1", conn.port), timeout=5) as raw, raw.makefile("rb") as replies:
        for source in (b"library", b"cache"):
            raw.sendall(request)
            status, headers, body = read_response(replies)
            assert (status, headers[b"X-RacLib-Source"], body) == (b"HTTP/1.1 200 OK", source, pages["TallyHo1965", "0003"])
            assert writes == ["send"]
            writes.clear()


@pytest.fixture
def big_server(monkeypatch):
    """A server whose every image is 16 MiB, more than the loopback socket buffers hold, with a 0.5 s
    timeout on each read or send of a connection; and that image."""
    monkeypatch.setattr(DeliveryHandler, "timeout", 0.5)
    payload = b"\xff\xd8\xff" + bytes(16 << 20)
    server = DeliveryServer(("127.0.0.1", 0), FakeResolver(DeliveryResult(payload, "library")))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, payload
    server.shutdown()
    server.server_close()


def ask_for_image(server):
    """A connection whose client buffers 256 KiB, having sent one image request."""
    raw = socket.socket()
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 256 << 10)  # fixed, so it does not grow to hold the body
    raw.settimeout(5)
    raw.connect(server.server_address)
    raw.sendall(f"GET {image_path('T', '1')} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    return raw


def test_a_slow_client_gets_the_whole_response(big_server):
    # About 10 MB/s: the response takes over a second to drain, each send far less than the timeout.
    server, payload = big_server
    received = bytearray()
    with ask_for_image(server) as raw:
        started = time.perf_counter()
        while (end := received.find(b"\r\n\r\n")) < 0 or len(received) < end + 4 + len(payload):
            if not (chunk := raw.recv(512 << 10)):
                break
            received += chunk
            time.sleep(0.05)
        elapsed = time.perf_counter() - started
    head, _, body = bytes(received).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n") and b"\r\nContent-Length: %d" % len(payload) in head
    assert body == payload, f"{len(body)} of {len(payload)} B arrived"
    assert elapsed > 2 * DeliveryHandler.timeout


def test_a_client_that_stops_reading_is_dropped(big_server):
    server, payload = big_server
    with ask_for_image(server) as raw:
        raw.recv(1, socket.MSG_PEEK)  # the response has begun, so the server holds the connection
        deadline = time.perf_counter() + 5
        while server._connections and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not server._connections, "the connection was kept"
        received = 0
        try:
            while chunk := raw.recv(1 << 20):
                received += len(chunk)
        except ConnectionResetError:
            pass
    assert received < len(payload)


ACCEPTOR = """
import resource, sys, threading, time
from raclib.server import DeliveryServer

class StubResolver:
    def close(self):
        pass

server = DeliveryServer(("127.0.0.1", 0), StubResolver())
resource.setrlimit(resource.RLIMIT_NOFILE, (16, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
threading.Thread(target=server.serve_forever, daemon=True).start()
print(server.server_address[1], flush=True)
for _ in sys.stdin:  # each line asks for the CPU time the process has used
    print(time.process_time(), flush=True)
server.shutdown()
server.server_close()
"""


def test_the_acceptor_does_not_spin_at_the_descriptor_limit():
    # 16 descriptors hold about a dozen connections; the rest wait to be accepted, which keeps the listening
    # socket readable while accept fails with EMFILE.
    with subprocess.Popen([sys.executable, "-c", ACCEPTOR], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as child:
        clients = []
        try:
            port = int(child.stdout.readline())

            def cpu_seconds():
                child.stdin.write("\n")
                child.stdin.flush()
                return float(child.stdout.readline())

            for _ in range(40):
                client = socket.socket()
                clients.append(client)
                client.setblocking(False)
                client.connect_ex(("127.0.0.1", port))  # idle: no request, so each accepted one holds a handler
            time.sleep(0.5)
            before = cpu_seconds()
            time.sleep(2)
            assert cpu_seconds() - before < 0.3
            for client in clients:
                client.close()
            with socket.create_connection(("127.0.0.1", port), timeout=5) as raw, raw.makefile("rb") as replies:
                raw.sendall(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert read_response(replies)[0] == b"HTTP/1.1 200 OK"
        finally:
            for client in clients:
                client.close()
            child.stdin.close()
            assert child.wait(timeout=10) == 0
