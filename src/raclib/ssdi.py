"""Death-record library: 64-byte person records grouped by key letters.

Records are sorted into 17,576 groups on (first surname letter, second
surname letter, first given-name letter) and concatenated group by group
into one library, so a search touches exactly one computed-index entry and
one contiguous run of records, whatever the library size.

A search checks every record it reads once, with one compiled pattern per
record that accepts exactly what ``DeathRecord.unpack`` accepts (a record
the pattern refuses goes through ``unpack``, which raises naming the field).
A non-hit is rejected on its fixed-width name bytes, without decoding; the
remaining candidates are built once each and filtered by ``matches``.

Record layout (64 bytes, one line of plain ASCII per person):

    surname   24 bytes, upper-case, space-padded
    given     12 bytes, upper-case, space-padded
    ssn        9 digits
    birth      8 digits YYYYMMDD (day or month 00 when unknown)
    death      8 digits YYYYMMDD
    reserved   2 spaces
    newline    1 byte
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .computed_index import (
    GROUP_COUNT,
    ComputedIndex,
    GroupEntry,
    letters_only,
    name_ordinal,
    pack_entries,
)
from .store import Library

RECORD_SIZE = 64
SURNAME_WIDTH = 24
GIVEN_WIDTH = 12

DATA_FILE = "records.raclib"
INDEX_FILE = "groups.index"

_DATE_RE = re.compile(r"[0-9]{8}")
_SSN_RE = re.compile(r"[0-9]{9}")
# ssn, birth and death concatenated, when all three are well formed.
_NUMBERS_RE = re.compile(r"[0-9]{9}(?:[0-9]{4}(?:0[0-9]|1[0-2])(?:[0-2][0-9]|3[01])){2}")
# A packed record that ``DeathRecord.unpack`` accepts, for ``fullmatch(data, o, o + 64)``: ASCII
# names with no NUL or newline, then what _NUMBERS_RE accepts, two ASCII bytes and a newline.
# Stricter than ``unpack`` only on a name field with a newline that strip() would remove;
# such a record takes ``unpack``'s path. Never run over a whole group: ``(?:...)*`` makes sre
# keep state for every record it repeats over, megabytes for a large group.
_RECORD_RE = re.compile(
    rb"[\x01-\x09\x0b-\x7f]{36}" + _NUMBERS_RE.pattern.encode("ascii") + rb"[\x00-\x7f]{2}\n"
)
_UPPER_RE = re.compile(rb"[A-Z]+")


def _check_date(field: str, value: str) -> None:
    if not _DATE_RE.fullmatch(value):
        raise ValueError(f"{field} must be 8 digits YYYYMMDD, got {value!r}")
    month, day = int(value[4:6]), int(value[6:8])
    if month > 12 or day > 31:
        raise ValueError(f"{field} has impossible month/day: {value!r}")


def _check_name(field: str, value: str, width: int) -> None:
    if len(value) > width:
        raise ValueError(f"{field} longer than {width} characters: {value!r}")
    if not value.isascii() or "\n" in value or "\x00" in value:
        raise ValueError(f"{field} must be plain ASCII text: {value!r}")


@dataclass(frozen=True)
class DeathRecord:
    """One person. Names are held in their stored (upper-case) form."""

    surname: str
    given: str
    ssn: str
    birth_date: str
    death_date: str

    def __post_init__(self):
        object.__setattr__(self, "surname", self.surname.upper().strip())
        object.__setattr__(self, "given", self.given.upper().strip())
        _check_name("surname", self.surname, SURNAME_WIDTH)
        _check_name("given", self.given, GIVEN_WIDTH)
        ssn, birth, death = self.ssn, self.birth_date, self.death_date
        if len(ssn) == 9 and len(birth) == 8 and len(death) == 8 and _NUMBERS_RE.fullmatch(ssn + birth + death):
            return
        # Not all well formed: the first check to fail names the field.
        if not _SSN_RE.fullmatch(ssn):
            raise ValueError(f"ssn must be 9 digits, got {ssn!r}")
        _check_date("birth_date", birth)
        _check_date("death_date", death)

    @property
    def birth_year(self) -> int:
        return int(self.birth_date[:4])

    @property
    def death_year(self) -> int:
        return int(self.death_date[:4])

    def pack(self) -> bytes:
        line = (
            f"{self.surname:<{SURNAME_WIDTH}}{self.given:<{GIVEN_WIDTH}}"
            f"{self.ssn}{self.birth_date}{self.death_date}  \n"
        )
        return line.encode("ascii")

    @classmethod
    def _from_checked(cls, text: str) -> "DeathRecord":
        """``unpack`` of a record ``_RECORD_RE`` accepted: the same fields, not checked again."""
        record = object.__new__(cls)
        # Set as __init__ sets them: touching __dict__ would give each record a dict of its own.
        set_field = object.__setattr__
        set_field(record, "surname", text[:24].rstrip().upper().strip())
        set_field(record, "given", text[24:36].rstrip().upper().strip())
        set_field(record, "ssn", text[36:45])
        set_field(record, "birth_date", text[45:53])
        set_field(record, "death_date", text[53:61])
        return record

    @classmethod
    def unpack(cls, raw: bytes) -> "DeathRecord":
        if len(raw) != RECORD_SIZE or raw[-1:] != b"\n":
            raise ValueError(f"malformed 64-byte record: {raw!r}")
        text = raw.decode("ascii")
        return cls(
            surname=text[:24].rstrip(),
            given=text[24:36].rstrip(),
            ssn=text[36:45],
            birth_date=text[45:53],
            death_date=text[53:61],
        )


@dataclass(frozen=True)
class SearchQuery:
    given: str = ""
    surname: str = ""
    birth_year: int | None = None
    death_year_from: int | None = None
    death_year_to: int | None = None

    def __post_init__(self):
        if (
            self.death_year_from is not None
            and self.death_year_to is not None
            and self.death_year_from > self.death_year_to
        ):
            raise ValueError(
                f"death_year_from {self.death_year_from} > death_year_to {self.death_year_to}"
            )


def matches(query: SearchQuery, record: DeathRecord) -> bool:
    """Name tokens match by normalized prefix; years by equality/range."""
    return _matches(query, letters_only(query.surname), letters_only(query.given), record)


def _matches(query: SearchQuery, surname: str, given: str, record: DeathRecord) -> bool:
    """``matches``, given the query's names already normalized by ``letters_only``."""
    # A stored name that starts with the query's letters needs no normalizing to match them.
    if not (record.surname.startswith(surname) or letters_only(record.surname).startswith(surname)):
        return False
    if not (record.given.startswith(given) or letters_only(record.given).startswith(given)):
        return False
    if query.birth_year is not None and record.birth_year != query.birth_year:
        return False
    if query.death_year_from is not None and record.death_year < query.death_year_from:
        return False
    if query.death_year_to is not None and record.death_year > query.death_year_to:
        return False
    return True


class SsdiLibrary(Library):
    """A built record library plus its computed group index."""

    @classmethod
    def build(cls, records, out_dir: str | Path) -> "SsdiLibrary":
        """Group records by key letters and write the library and its index.

        Record order within a group is input order. Every one of the 17,576
        group entries is written; empty groups carry count 0 at their tiling
        position, so starts are always the prefix sums of counts.

        ``Library._build`` refuses an existing index before ``records`` is
        read, then reads it once. Each record is validated as a ``DeathRecord``
        and held only as its packed 64 bytes, in one buffer per non-empty
        group: about 64-70 B per record plus a fixed ~5 MB. Every record and
        index entry is checked before the first byte is written; the groups
        are then streamed to the store in ordinal order, each dropped once
        written, and the index is written and fsync'd last.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        index_records = None

        def group_payloads():
            nonlocal index_records
            groups: list[bytearray | None] = [None] * GROUP_COUNT
            for record in records:
                ordinal = name_ordinal(record.surname, record.given)
                group = groups[ordinal]
                if group is None:
                    group = groups[ordinal] = bytearray()
                group += record.pack()
            index_records = pack_entries(_tiling(len(group) // RECORD_SIZE if group else 0 for group in groups))
            for ordinal, group in enumerate(groups):
                if group is not None:
                    groups[ordinal] = None  # so each group is released once it is written
                    yield group

        return cls._build(
            out_dir / DATA_FILE, RECORD_SIZE, group_payloads(),
            out_dir / INDEX_FILE, lambda path, refs: ComputedIndex.create_packed(path, index_records),
        )

    @classmethod
    def open(cls, directory: str | Path) -> "SsdiLibrary":
        directory = Path(directory)
        return cls._open(directory / DATA_FILE, directory / INDEX_FILE, ComputedIndex.open)

    def search(self, query: SearchQuery) -> list[DeathRecord]:
        """One index fetch, one contiguous group read, then one pass over the group's bytes.

        A checked record whose name bytes are upper-case letters other than
        the query's prefix is rejected on those bytes, where ``matches``
        would reject it; the others are built once and go through ``matches``.
        """
        surname, given = letters_only(query.surname), letters_only(query.given)
        if not surname and not given:
            raise ValueError("search needs at least one name letter to derive key letters")
        entry = self.index.read_group_entry(name_ordinal(surname, given))
        data = self.store.read_records(entry.start, entry.count)
        # A field's letters start with its first bytes when those are all letters, so a prefix
        # no longer than its field can be compared with them; a longer one is left to ``matches``.
        surname_b = surname.encode("ascii") if len(surname) <= SURNAME_WIDTH else b""
        given_b = given.encode("ascii") if len(given) <= GIVEN_WIDTH else b""
        surname_end, given_end = len(surname_b), SURNAME_WIDTH + len(given_b)
        checked, upper = _RECORD_RE.fullmatch, _UPPER_RE.fullmatch
        results = []
        for o in range(0, len(data), RECORD_SIZE):
            end = o + RECORD_SIZE
            if not checked(data, o, end):
                record = DeathRecord.unpack(data[o:end])
            elif (
                surname_b and not data.startswith(surname_b, o) and upper(data, o, o + surname_end)
                or given_b and not data.startswith(given_b, o + SURNAME_WIDTH)
                and upper(data, o + SURNAME_WIDTH, o + given_end)
            ):
                continue
            else:
                record = DeathRecord._from_checked(data[o:end].decode("ascii"))
            if _matches(query, surname, given, record):
                results.append(record)
        return results


def _tiling(counts):
    """Group entries whose starts are the prefix sums of ``counts``."""
    start = 0
    for count in counts:
        yield GroupEntry(start=start, count=count)
        start += count


def read_records_tsv(path: str | Path):
    """Yield DeathRecords from a surname/given/ssn/birth/death TSV file."""
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields")
            yield DeathRecord(*fields)


def record_tsv_line(record: DeathRecord) -> str:
    return "\t".join(
        (record.surname, record.given, record.ssn, record.birth_date, record.death_date)
    )
