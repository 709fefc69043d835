import logging
import threading
import urllib.error
import urllib.request

import pytest

from raclib.config import Config
from raclib.pack import pack_directory
from raclib.server import DeliveryServer, build_resolver, sniff_content_type

from test_pack import make_pages


def test_sniff_content_type():
    assert sniff_content_type(b"\xff\xd8\xff\xe0rest") == "image/jpeg"
    assert sniff_content_type(b"\x89PNG\r\n\x1a\nrest") == "image/png"
    assert sniff_content_type(b"GIF89a___") == "image/gif"
    assert sniff_content_type(b"whoknows") == "image/jpeg"


@pytest.fixture
def service(tmp_path):
    pages = make_pages(tmp_path / "in", 3)
    pack_directory(tmp_path / "in", "yearbooks", tmp_path / "lib").close()
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


def test_corrupt_index_line_answers_500_and_server_keeps_serving(service, tmp_path, caplog):
    base, pages = service
    # Two records cannot hold 1 byte: read_payload raises ValueError.
    with open(tmp_path / "lib" / "yearbooks.index", "a", encoding="ascii") as f:
        f.write("Broken 0001 0 2 1\n")
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
