import itertools
import os
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from helpers import open_fd_count, random_death_fields, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from raclib.computed_index import GROUP_COUNT, name_ordinal
from raclib.ssdi import (
    DATA_FILE,
    INDEX_FILE,
    RECORD_SIZE,
    DeathRecord,
    SearchQuery,
    SsdiLibrary,
    matches,
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
        ("SMITH", "JOHN", "²²²²²²²²²", "19500101", "19600101"),  # digits, but not ASCII
        ("SMITH", "JOHN", "123456789", "１９５００１０１", "19600101"),  # full-width digits
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
    with SsdiLibrary.build(records, tmp_path / "lib") as lib:
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
    with SsdiLibrary.build([], tmp_path / "lib") as lib:
        assert lib.store.record_count == 0
        assert (tmp_path / "lib" / DATA_FILE).stat().st_size == 0
        assert all(e.count == 0 for e in lib.index.read_all())


def test_group_order_is_input_order(tmp_path):
    records = [
        DeathRecord("KENNEDY", "RALPH", "000000001", "19000101", "19600101"),
        DeathRecord("KENNEDY", "ROBERT", "000000002", "19100101", "19700101"),
        DeathRecord("KENNER", "ROSE", "000000003", "19200101", "19800101"),
    ]
    with SsdiLibrary.build(records, tmp_path / "lib") as lib:
        assert lib.search(SearchQuery(surname="Ken", given="R")) == records


def test_planted_record_search(tmp_path):
    corpus = [
        DeathRecord("KENNEDY", "ROSE", "000000010", "18900722", "19950122"),  # same group
        KENNEDY,
        DeathRecord("KENNER", "RALPH", "000000011", "19251010", "19600101"),  # same group
        DeathRecord("JOHNSON", "JAMES", "000000012", "19250101", "19680101"),
        DeathRecord("SMITH", "MARY", "000000013", "19251120", "19680600"),
    ]
    with SsdiLibrary.build(corpus, tmp_path / "lib") as lib:
        hits = lib.search(
            SearchQuery(given="Robert", surname="Kennedy", birth_year=1925,
                        death_year_from=1936, death_year_to=1974)
        )
        assert hits == [KENNEDY]


def test_search_wrong_birth_year_is_empty(tmp_path):
    with SsdiLibrary.build([KENNEDY], tmp_path / "lib") as lib:
        assert lib.search(SearchQuery(given="Robert", surname="Kennedy", birth_year=1807)) == []


def test_search_requires_some_name_letters(tmp_path):
    with SsdiLibrary.build([KENNEDY], tmp_path / "lib") as lib:
        with pytest.raises(ValueError):
            lib.search(SearchQuery(surname="123", given="'-"))


def test_search_uses_one_index_read_and_one_data_read(tmp_path):
    with SsdiLibrary.build([KENNEDY], tmp_path / "lib") as lib:
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
    with SsdiLibrary.build(records, tmp_path / "lib") as lib:
        raw = (tmp_path / "lib" / DATA_FILE).read_bytes()
        checked = 0
        for query in random_queries(rng, 80):
            got = [(r.surname, r.given, r.ssn, r.birth_date, r.death_date) for r in lib.search(query)]
            assert got == _oracle_scan(raw, query), f"mismatch for {query}"
            checked += 1
        assert checked > 60


def test_search_is_deterministic(tmp_path):
    rng = random.Random(5)
    with SsdiLibrary.build(
        [DeathRecord(*f) for f in random_death_fields(rng, 500)], tmp_path / "lib"
    ) as lib:
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
    SsdiLibrary.build([KENNEDY], tmp_path / "lib").close()
    assert (tmp_path / "lib" / DATA_FILE).exists()
    assert (tmp_path / "lib" / INDEX_FILE).stat().st_size == 351_520
    with SsdiLibrary.open(tmp_path / "lib") as reopened:
        assert reopened.search(SearchQuery(surname="Kennedy", given="R")) == [KENNEDY]


def written_bytes() -> int:
    """Bytes this process has passed to write calls so far (Linux ``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("wchar:"))


def test_build_writes_each_file_once(tmp_path):
    records = [DeathRecord(*fields) for fields in random_death_fields(random.Random(11), 2_000)]
    before = written_bytes()
    SsdiLibrary.build(records, tmp_path / "lib").close()
    written = written_bytes() - before
    files = (tmp_path / "lib" / DATA_FILE).stat().st_size + (tmp_path / "lib" / INDEX_FILE).stat().st_size
    assert files == 2_000 * RECORD_SIZE + 351_520
    assert files <= written < files + 1024  # the rest is the two sidecar writes


def test_failed_open_leaves_no_fd(tmp_path):
    SsdiLibrary.build([KENNEDY], tmp_path / "lib").close()
    (tmp_path / "lib" / INDEX_FILE).write_bytes(b"0" * 100)  # wrong size
    before = open_fd_count()
    for _ in range(5):
        with pytest.raises(ValueError):
            SsdiLibrary.open(tmp_path / "lib")
    assert open_fd_count() == before


def test_build_refuses_an_existing_index_before_reading_or_writing(tmp_path, monkeypatch):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / INDEX_FILE).write_bytes(b"kept")
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    records = iter([KENNEDY])
    with pytest.raises(FileExistsError):
        SsdiLibrary.build(records, tmp_path / "lib")
    assert fsyncs == []
    assert not (tmp_path / "lib" / DATA_FILE).exists()
    assert next(records) is KENNEDY  # nothing drawn
    assert (tmp_path / "lib" / INDEX_FILE).read_bytes() == b"kept"


# -- search against decoding every record of the group -------------------------

def group_search(lib, query):
    """The reference: ``DeathRecord.unpack`` of every record in the query's group, then ``matches``."""
    entry = lib.index.read_group_entry(name_ordinal(query.surname, query.given))
    raw = lib.store.read_records(entry.start, entry.count)
    records = [DeathRecord.unpack(raw[o : o + RECORD_SIZE]) for o in range(0, len(raw), RECORD_SIZE)]
    return [r for r in records if matches(query, r)]


def restyle(raw: bytes, style: int) -> bytes:
    """A stored record as another writer may have written it; ``unpack`` reads it as the same person.

    1: lower-case names; 2 and 3: the surname after a leading space or newline.
    """
    if style == 1:
        return raw[:36].lower() + raw[36:]
    if style in (2, 3) and raw[23:24] == b" ":
        return (b" " if style == 2 else b"\n") + raw[:23] + raw[24:]
    return raw


years = st.integers(1890, 1893)
name_tail = st.text(st.sampled_from("JON '-"), max_size=6)
group_records = st.builds(
    lambda s1, s2, g1, g2, ssn, birth, death: DeathRecord(
        (s1 + s2)[:24], (g1 + g2)[:12], ssn, f"{birth}0101", f"{death}1200"
    ),
    st.sampled_from(["JO", "J-O", "J'O", "JO ", "JA"]), name_tail,  # mostly one group
    st.sampled_from(["J", "J-", "J R", "R"]), name_tail,
    st.from_regex(r"[0-9]{9}", fullmatch=True), years, years,
)


@st.composite
def search_queries(draw, records):
    """A query built around one stored record, so that many queries have hits."""
    record = draw(st.sampled_from(records))

    def name(stored, width):
        prefix = stored[: draw(st.integers(0, len(stored)))]
        return draw(st.sampled_from([
            prefix, prefix, prefix, prefix.lower().replace(" ", "-"),
            draw(name_tail),
            draw(st.text(st.sampled_from("JO"), min_size=width + 1, max_size=width + 2)),  # longer than the field
        ]))

    surname, given = name(record.surname, 24), name(record.given, 12)
    death_from = draw(st.sampled_from([None, None, record.death_year, 1891]))
    death_to = draw(st.sampled_from([None, None, record.death_year, 1892]))
    if death_from is not None and death_to is not None and death_from > death_to:
        death_from, death_to = death_to, death_from
    return SearchQuery(given=given, surname=surname, birth_year=draw(st.sampled_from([None, None, record.birth_year, 1890])),
                       death_year_from=death_from, death_year_to=death_to)


@settings(max_examples=60, deadline=None)
@given(st.lists(group_records, min_size=1, max_size=40), st.lists(st.integers(0, 3), max_size=40), st.data())
def test_search_equals_matches_over_every_record_of_the_group(records, styles, data):
    with tempfile.TemporaryDirectory() as tmp:
        with SsdiLibrary.build(records, Path(tmp, "lib")) as lib:
            for i, style in enumerate(styles[: len(records)]):
                lib.store.write_records(i, restyle(lib.store.read_records(i, 1), style))
            for query in data.draw(st.lists(search_queries(records), max_size=6)):
                if re.search("[A-Za-z]", query.surname + query.given):
                    assert lib.search(query) == group_search(lib, query), query


# Each corrupts KENNER RALPH, the non-hit that shares KENNEDY ROBERT's group.
CORRUPTIONS = {
    "ssn digit": (40, b"X", "ssn"),
    "month 13": (49, b"13", "birth_date"),
    "day 32": (59, b"32", "death_date"),
    "no final newline": (63, b" ", "malformed 64-byte record"),
    "non-ASCII byte": (30, b"\xc3", "ascii"),
    "NUL in a name": (3, b"\x00", "surname"),
}


@pytest.mark.parametrize("offset, planted, message", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
def test_corrupt_non_hit_in_the_searched_group_fails_the_search(tmp_path, offset, planted, message):
    kenner = DeathRecord("KENNER", "RALPH", "000000011", "19251010", "19600101")
    query = SearchQuery(surname="Kennedy", given="Robert")
    with SsdiLibrary.build([KENNEDY, kenner], tmp_path / "lib") as lib:
        assert lib.search(query) == [KENNEDY]
    with open(tmp_path / "lib" / DATA_FILE, "r+b") as f:
        f.seek(RECORD_SIZE + offset)  # KENNER is the group's second record
        f.write(planted)
    with SsdiLibrary.open(tmp_path / "lib") as lib:
        with pytest.raises(ValueError, match=message):
            lib.search(query)


def test_search_peak_stays_within_twice_the_group_bytes(tmp_path):
    """The group is checked record by record: sre keeps state per repetition of one whole-buffer pattern."""
    rng = random.Random(13)
    records = [
        DeathRecord("JO" + "".join(rng.choices("ABCDEFGHIKLMNPQRSTUVWXYZ", k=6)), "JAMES", f"{i:09d}", "19000101", "19700101")
        for i in range(3_000)
    ]
    hit = DeathRecord("JOHNSON", "JAMES", "999999999", "19000101", "19700101")
    with SsdiLibrary.build(records + [hit], tmp_path / "lib") as lib:
        query = SearchQuery(surname="Johnson", given="James")
        group = lib.index.read_group_entry(name_ordinal("JOHNSON", "JAMES"))
        assert group.count >= 2_900
        assert lib.search(query) == [hit]
        assert traced_peak(lambda: lib.search(query)) <= 2 * group.count * RECORD_SIZE


# -- memory and output oracles of the build -----------------------------------

def build_peak(tmp_path, n: int) -> int:
    """Traced peak of building ``n`` records drawn in turn from a pool of 5,000.

    The build holds each record as its packed bytes whatever object it came
    from, so a pool measures the same memory as ``n`` distinct records, and
    it keeps record generation out of the traced time.
    """
    pool = [DeathRecord(*fields) for fields in random_death_fields(random.Random(17), 5_000)]
    records = itertools.islice(itertools.cycle(pool), n)
    return traced_peak(lambda: SsdiLibrary.build(records, tmp_path / f"lib{n}").close())


def test_build_holds_each_record_once(tmp_path):
    peak_100k = build_peak(tmp_path, 100_000)
    peak_200k = build_peak(tmp_path, 200_000)
    assert peak_100k <= 10_000_000
    assert peak_200k - peak_100k <= 8_000_000  # at most 80 B per added record


names = st.text(st.sampled_from("ABKZ '-"), max_size=8)
dates = st.builds("{:04d}{:02d}{:02d}".format, st.integers(1800, 2020), st.integers(0, 12), st.integers(0, 31))
death_records = st.builds(
    DeathRecord, names, names, st.from_regex(r"[0-9]{9}", fullmatch=True), dates, dates
)


def _oracle_ordinal(record):
    c1, c2, c3 = _oracle_trigram(record.surname, record.given)
    return 676 * c1 + 26 * c2 + c3


@settings(max_examples=50)
@given(st.lists(death_records, max_size=40))
def test_build_output_is_sorted_records_and_prefix_sums(records):
    """The data file is the packed records stably sorted by group; the index, their prefix sums."""
    with tempfile.TemporaryDirectory() as tmp:
        SsdiLibrary.build(iter(records), Path(tmp, "lib")).close()
        data = Path(tmp, "lib", DATA_FILE).read_bytes()
        index = Path(tmp, "lib", INDEX_FILE).read_bytes()
    assert data == b"".join(r.pack() for r in sorted(records, key=_oracle_ordinal))
    counts = Counter(map(_oracle_ordinal, records))
    starts = itertools.accumulate((counts[o] for o in range(GROUP_COUNT)), initial=0)
    assert index == b"".join(
        f"{start:010d} {counts[o]:08d}\n".encode() for o, start in zip(range(GROUP_COUNT), starts)
    )


def test_tsv_skips_blank_lines_and_names_the_line_of_a_short_one(tmp_path):
    tsv = tmp_path / "records.tsv"
    tsv.write_text("\n" + record_tsv_line(KENNEDY) + "\n\nKENNEDY\tROBERT\t123456789\t19251120\n", "ascii")
    rows = read_records_tsv(tsv)
    assert next(rows) == KENNEDY
    with pytest.raises(ValueError, match="^" + re.escape(f"{tsv}:4: expected 5 tab-separated fields")):
        next(rows)


BAD_ROWS = {
    "bad ssn": (("KENNEDY", "ROBERT", "12345678X", "19251120", "19680600"), "ssn must be 9 digits"),
    "impossible date": (("KENNEDY", "ROBERT", "123456789", "19251320", "19680600"), "birth_date has impossible"),
    "non-ASCII surname": (("KENNÉDY", "ROBERT", "123456789", "19251120", "19680600"), "surname must be plain ASCII"),
    # Non-ASCII text that upper() or strip() would turn into ASCII.
    "sharp s": (("STRAßE", "ROBERT", "123456789", "19251120", "19680600"), "surname must be plain ASCII"),
    "no-break space": (("KENNEDY\u00a0", "ROBERT", "123456789", "19251120", "19680600"), "surname must be plain ASCII"),
    "dotless i": (("KENNEDY", "\u0131VAN", "123456789", "19251120", "19680600"), "given must be plain ASCII"),
}


@pytest.mark.parametrize("fields, message", BAD_ROWS.values(), ids=list(BAD_ROWS))
def test_tsv_bad_row_names_its_line(tmp_path, fields, message):
    tsv = tmp_path / "records.tsv"
    tsv.write_text(record_tsv_line(KENNEDY) + "\n" + "\t".join(fields) + "\n", "utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{tsv}:2: {message}")):
        list(read_records_tsv(tsv))


def test_tsv_names_the_line_of_bytes_that_are_not_utf8(tmp_path):
    tsv = tmp_path / "records.tsv"
    tsv.write_bytes(record_tsv_line(KENNEDY).encode() + b"\nKENN\xe9DY\tROBERT\t123456789\t19251120\t19680600\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{tsv}:2: not UTF-8")):
        list(read_records_tsv(tsv))


def test_build_into_a_new_nested_directory(tmp_path):
    with SsdiLibrary.build([KENNEDY], tmp_path / "a" / "b" / "lib") as lib:
        assert lib.search(SearchQuery(surname="Kennedy", given="Robert")) == [KENNEDY]
