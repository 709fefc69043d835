"""``respond`` chooses every status, header and body, with no socket: a fake resolver stands in."""

import logging
import time

import pytest

from raclib.cache import DeliveryRequest, DeliveryResult
from raclib.errors import NotFoundError
from raclib.server import respond

TEXT = {"Content-Type": "text/plain"}
PNG = b"\x89PNG\r\n\x1a\n" + b"p" * 20


class FakeResolver:
    """Answers every resolve with ``outcome``: a DeliveryResult to return or an exception to raise."""

    def __init__(self, outcome, delay=0.0):
        self.outcome = outcome
        self.delay = delay
        self.requests = []

    def resolve(self, request):
        self.requests.append(request)
        time.sleep(self.delay)
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


def answer(resolver, target):
    status, headers, body = respond(resolver, target)
    return status, dict(headers), body


def test_health_and_unknown_paths_never_resolve():
    resolver = FakeResolver(AssertionError("not resolved"))
    assert answer(resolver, "/health") == (200, TEXT, b"ok\n")
    assert answer(resolver, "/health?x=1") == (200, TEXT, b"ok\n")
    for target in ("/nope", "/", "/image/", "/images?title=T&page=1"):
        assert answer(resolver, target) == (404, TEXT, b"not found\n"), target
    assert resolver.requests == []


@pytest.mark.parametrize(
    "query, title, page",
    [("", "", ""), ("title=OnlyTitle", "OnlyTitle", ""), ("page=0001", "", "0001"), ("title=a%20b&page=1", "a b", "1")],
)
def test_malformed_request_400(query, title, page):
    resolver = FakeResolver(AssertionError("not resolved"))
    with pytest.raises(ValueError) as bad:
        DeliveryRequest(title=title, page=page)
    assert answer(resolver, "/image?" + query) == (400, TEXT, f"bad request: {bad.value}\n".encode())
    assert resolver.requests == []


def test_unknown_member_404():
    resolver = FakeResolver(NotFoundError("(T, 0001) not found"))
    assert answer(resolver, "/image?title=T&page=0001") == (404, TEXT, b"unknown title/page\n")
    assert resolver.requests == [DeliveryRequest("T", "0001")]


def test_any_other_failure_500_is_logged(caplog):
    resolver = FakeResolver(ValueError("corrupt index line"))
    target = "/image?title=Broken&page=0001"
    with caplog.at_level(logging.ERROR, logger="raclib.server"):
        assert answer(resolver, target) == (500, TEXT, b"internal error\n")
    record, = caplog.records
    assert record.getMessage() == f"delivery failed for {target}"
    assert record.exc_info[0] is ValueError


@pytest.mark.parametrize(
    "source, payload, content_type",
    [("library", b"\xff\xd8\xff\xe0jpeg", "image/jpeg"), ("cache", PNG, "image/png"),
     ("library", b"GIF89a___", "image/gif"), ("cache", b"whoknows", "image/jpeg")],
)
def test_hit_200_carries_sniffed_type_source_and_millis(source, payload, content_type):
    resolver = FakeResolver(DeliveryResult(payload, source))
    status, headers, body = answer(resolver, "/image?title=Smith%2FJones&page=0001")
    assert (status, body) == (200, payload)
    assert headers.keys() == {"Content-Type", "X-RacLib-Source", "X-RacLib-Millis"}
    assert (headers["Content-Type"], headers["X-RacLib-Source"]) == (content_type, source)
    assert float(headers["X-RacLib-Millis"]) >= 0
    assert resolver.requests == [DeliveryRequest("Smith/Jones", "0001")]


def test_millis_is_the_time_the_resolve_took():
    resolver = FakeResolver(DeliveryResult(PNG, "library"), delay=0.05)
    _, headers, _ = answer(resolver, "/image?title=T&page=0001")
    assert 50 <= float(headers["X-RacLib-Millis"]) < 5_000
