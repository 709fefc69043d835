import random
import re

import pytest
from helpers import open_fd_count, random_death_fields

from raclib.computed_index import GROUP_COUNT
from raclib.ssdi import (
    DATA_FILE,
    INDEX_FILE,
    RECORD_SIZE,
    DeathRecord,
    SearchQuery,
    SsdiLibrary,
    read_records_tsv,
    record_tsv_line,
)

KENNEDY = DeathRecord("Kennedy", "Robert", "123456789", "19251120", "19680600")


def test_record_packs_to_64_byte_layout():
    raw = KENNEDY.pack()
    assert len(raw) == RECORD_SIZE == 64
    assert raw[:24] == b"KENNEDY".ljust(24)
    assert raw[24:36] == b"ROBERT".ljust(12)
    assert raw[36:45] == b"123456789"
    assert raw[45:53] == b"19251120"
    assert raw[53:61] == b"19680600"
    assert raw[61:] == b"  \n"


def test_record_round_trip():
    assert DeathRecord.unpack(KENNEDY.pack()) == KENNEDY
    inner_space = DeathRecord("de la cruz", "j r", "000000001", "19000000", "19770101")
    assert DeathRecord.unpack(inner_space.pack()) == inner_space
    assert inner_space.surname == "DE LA CRUZ"


@pytest.mark.parametrize(
    "fields",
    [
        ("X" * 25, "A", "123456789", "19000101", "19500101"),  # surname too long
        ("A", "X" * 13, "123456789", "19000101", "19500101"),  # given too long
        ("A", "B", "12345678", "19000101", "19500101"),  # short ssn
        ("A", "B", "12345678X", "19000101", "19500101"),  # non-digit ssn
        ("A", "B", "123456789", "1900011", "19500101"),  # short date
        ("A", "B", "123456789", "19001301", "19500101"),  # month 13
        ("A", "B", "123456789", "19000101", "19500132"),  # day 32
        ("Åke", "B", "123456789", "19000101", "19500101"),  # non-ascii
    ],
)
def test_record_validation_rejects(fields):
    with pytest.raises(ValueError):
        DeathRecord(*fields)


def test_unpack_rejects_malformed():
    with pytest.raises(ValueError):
        DeathRecord.unpack(b"x" * 63)
    with pytest.raises(ValueError):
        DeathRecord.unpack(b"x" * 64)


def test_query_rejects_inverted_death_range():
    with pytest.raises(ValueError):
        SearchQuery(surname="A", death_year_from=1980, death_year_to=1950)


def test_build_tiles_groups(tmp_path):
    records = [
        DeathRecord("AARON", "ANNA", "000000001", "19000101", "19600101"),
        DeathRecord("AALTO", "AMY", "000000002", "19100101", "19700101"),
        KENNEDY,
    ]
    lib = SsdiLibrary.build(records, tmp_path / "lib")
    assert lib.store.record_count == 3
    entries = lib.index.read_all()
    assert (entries[0].start, entries[0].count) == (0, 2)
    assert (entries[6881].start, entries[6881].count) == (2, 1)
    assert sum(e.count for e in entries) == 3
    # starts are prefix sums across empty groups too
    assert entries[1].start == 2 and entries[1].count == 0
    assert entries[6882].start == 3
    assert entries[GROUP_COUNT - 1].start == 3


def test_build_empty_input(tmp_path):
    lib = SsdiLibrary.build([], tmp_path / "lib")
    assert lib.store.record_count == 0
    assert (tmp_path / "lib" / DATA_FILE).stat().st_size == 0
    assert all(e.count == 0 for e in lib.index.read_all())


def test_group_order_is_input_order(tmp_path):
    records = [
        DeathRecord("KENNEDY", "RALPH", "000000001", "19000101", "19600101"),
        DeathRecord("KENNEDY", "ROBERT", "000000002", "19100101", "19700101"),
        DeathRecord("KENNER", "ROSE", "000000003", "19200101", "19800101"),
    ]
    lib = SsdiLibrary.build(records, tmp_path / "lib")
    assert lib.search(SearchQuery(surname="Ken", given="R")) == records


def test_planted_record_search(tmp_path):
    corpus = [
        DeathRecord("KENNEDY", "ROSE", "000000010", "18900722", "19950122"),  # same group
        KENNEDY,
        DeathRecord("KENNER", "RALPH", "000000011", "19251010", "19600101"),  # same group
        DeathRecord("JOHNSON", "JAMES", "000000012", "19250101", "19680101"),
        DeathRecord("SMITH", "MARY", "000000013", "19251120", "19680600"),
    ]
    lib = SsdiLibrary.build(corpus, tmp_path / "lib")
    hits = lib.search(
        SearchQuery(given="Robert", surname="Kennedy", birth_year=1925,
                    death_year_from=1936, death_year_to=1974)
    )
    assert hits == [KENNEDY]


def test_search_wrong_birth_year_is_empty(tmp_path):
    lib = SsdiLibrary.build([KENNEDY], tmp_path / "lib")
    assert lib.search(SearchQuery(given="Robert", surname="Kennedy", birth_year=1807)) == []


def test_search_requires_some_name_letters(tmp_path):
    lib = SsdiLibrary.build([KENNEDY], tmp_path / "lib")
    with pytest.raises(ValueError):
        lib.search(SearchQuery(surname="123", given="'-"))


def test_search_uses_one_index_read_and_one_data_read(tmp_path):
    lib = SsdiLibrary.build([KENNEDY], tmp_path / "lib")
    lib.index.counters.reset()
    lib.store.counters.reset()
    lib.search(SearchQuery(given="Robert", surname="Kennedy"))
    assert lib.index.counters.reads == 1
    assert lib.store.counters.reads == 1
    assert lib.store.counters.bytes_read == RECORD_SIZE


# -- independent linear-scan oracle ------------------------------------------

def _norm(text):
    return re.sub(r"[^A-Za-z]", "", text).upper()


def _oracle_trigram(surname, given):
    s, g = _norm(surname), _norm(given)
    pick = lambda t, i: ord(t[i]) - 65 if len(t) > i else 0
    return (pick(s, 0), pick(s, 1), pick(g, 0))


def _oracle_scan(raw_library_bytes, query):
    """Brute-force scan of the raw library file, reimplementing the predicate."""
    hits = []
    q_key = _oracle_trigram(query.surname, query.given)
    for off in range(0, len(raw_library_bytes), 64):
        line = raw_library_bytes[off : off + 64].decode("ascii")
        surname, given = line[:24].rstrip(), line[24:36].rstrip()
        if _oracle_trigram(surname, given) != q_key:
            continue
        if not _norm(surname).startswith(_norm(query.surname)):
            continue
        if not _norm(given).startswith(_norm(query.given)):
            continue
        birth, death = int(line[45:49]), int(line[53:57])
        if query.birth_year is not None and birth != query.birth_year:
            continue
        if query.death_year_from is not None and death < query.death_year_from:
            continue
        if query.death_year_to is not None and death > query.death_year_to:
            continue
        hits.append((surname, given, line[36:45], line[45:53], line[53:61]))
    return hits


def random_queries(rng, n):
    from helpers import GIVENS, SURNAMES

    for _ in range(n):
        surname = rng.choice(SURNAMES + ["KE", "JO", "Q", "NOSUCH"])
        given = rng.choice(GIVENS + ["RO", "J"])
        if not _norm(surname) and not _norm(given):
            continue
        yield SearchQuery(
            given=given if rng.random() < 0.8 else "",
            surname=surname,
            birth_year=rng.randrange(1870, 1995) if rng.random() < 0.3 else None,
            death_year_from=rng.randrange(1900, 1990) if rng.random() < 0.3 else None,
            death_year_to=rng.randrange(1990, 2012) if rng.random() < 0.3 else None,
        )


def test_search_matches_linear_scan_oracle(tmp_path):
    rng = random.Random(42)
    records = [DeathRecord(*f) for f in random_death_fields(rng, 4000)]
    lib = SsdiLibrary.build(records, tmp_path / "lib")
    raw = (tmp_path / "lib" / DATA_FILE).read_bytes()
    checked = 0
    for query in random_queries(rng, 80):
        got = [(r.surname, r.given, r.ssn, r.birth_date, r.death_date) for r in lib.search(query)]
        assert got == _oracle_scan(raw, query), f"mismatch for {query}"
        checked += 1
    assert checked > 60


def test_search_is_deterministic(tmp_path):
    rng = random.Random(5)
    lib = SsdiLibrary.build(
        [DeathRecord(*f) for f in random_death_fields(rng, 500)], tmp_path / "lib"
    )
    query = SearchQuery(surname="JO", given="J")
    assert lib.search(query) == lib.search(query)


def test_tsv_round_trip(tmp_path):
    rng = random.Random(9)
    records = [DeathRecord(*f) for f in random_death_fields(rng, 50)]
    tsv = tmp_path / "records.tsv"
    tsv.write_text("".join(record_tsv_line(r) + "\n" for r in records), "ascii")
    assert list(read_records_tsv(tsv)) == records


def test_tsv_rejects_wrong_field_count(tmp_path):
    tsv = tmp_path / "bad.tsv"
    tsv.write_text("KENNEDY\tROBERT\t123456789\t19251120\n", "ascii")
    with pytest.raises(ValueError, match="5 tab-separated"):
        list(read_records_tsv(tsv))


def test_library_files_on_disk(tmp_path):
    SsdiLibrary.build([KENNEDY], tmp_path / "lib")
    assert (tmp_path / "lib" / DATA_FILE).exists()
    assert (tmp_path / "lib" / INDEX_FILE).stat().st_size == 351_520
    reopened = SsdiLibrary.open(tmp_path / "lib")
    assert reopened.search(SearchQuery(surname="Kennedy", given="R")) == [KENNEDY]


def test_failed_open_leaves_no_fd(tmp_path):
    SsdiLibrary.build([KENNEDY], tmp_path / "lib").close()
    (tmp_path / "lib" / INDEX_FILE).write_bytes(b"0" * 100)  # wrong size
    before = open_fd_count()
    for _ in range(5):
        with pytest.raises(ValueError):
            SsdiLibrary.open(tmp_path / "lib")
    assert open_fd_count() == before
