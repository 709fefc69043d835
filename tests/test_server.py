import http.client
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from helpers import open_fd_count

from raclib.cache import BucketCache, DeliveryRequest, ImageResolver
from raclib.config import Config
from raclib.pack import Collection, pack_directory
from raclib.server import IDLE_TIMEOUT_S, DeliveryHandler, DeliveryServer, build_resolver, sniff_content_type

from test_pack import NEW_SIZES, OLD_SIZES, make_pages, repack_over, write_members


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
    server.resolver.close()


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
        server.resolver.close()


def test_unknown_image_404(service):
    base, _ = service
    assert get_error(base + "/image?title=NoSuchTitle&page=0001")[0] == 404


@pytest.mark.parametrize(
    "query", ["", "title=OnlyTitle", "page=0001", "title=a%20b&page=1", "title=..%2Fup&page=1"]
)
def test_malformed_request_400(service, query):
    base, _ = service
    assert get_error(base + "/image?" + query)[0] == 400


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
    resolver = ImageResolver(collection.fetch, BucketCache(tmp_path / "cache"), close=collection.close)
    server = DeliveryServer(("127.0.0.1", 0), resolver)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = CountingConnection(server.server_address[1])
    yield server, conn, collection, pages
    conn.close()
    server.shutdown()
    server.server_close()
    resolver.close()


@pytest.fixture
def counted(counted_server):
    return counted_server[1:]


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
    collection.close()
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
    assert conn.connects == 1
