"""Death-record library: 64-byte person records grouped by key letters.

Records are sorted into 17,576 groups on (first surname letter, second
surname letter, first given-name letter) and concatenated group by group
into one library, so a search touches exactly one computed-index entry and
one contiguous run of records, whatever the library size.

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

from .computed_index import GROUP_COUNT, ComputedIndex, GroupEntry, key_ordinal, letters_only, trigram_of
from .store import Library, RecordStore, closed_on_error

RECORD_SIZE = 64
SURNAME_WIDTH = 24
GIVEN_WIDTH = 12

DATA_FILE = "records.raclib"
INDEX_FILE = "groups.index"

_DATE_RE = re.compile(r"\d{8}")


def _check_date(field: str, value: str) -> None:
    if not _DATE_RE.fullmatch(value):
        raise ValueError(f"{field} must be 8 digits YYYYMMDD, got {value!r}")
    month, day = int(value[4:6]), int(value[6:8])
    if month > 12 or day > 31:
        raise ValueError(f"{field} has impossible month/day: {value!r}")


def _check_name(field: str, value: str, width: int) -> None:
    if len(value) > width:
        raise ValueError(f"{field} longer than {width} characters: {value!r}")
    if not value.isascii() or any(c in "\n\x00" for c in value):
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
        if not (len(self.ssn) == 9 and self.ssn.isdigit()):
            raise ValueError(f"ssn must be 9 digits, got {self.ssn!r}")
        _check_date("birth_date", self.birth_date)
        _check_date("death_date", self.death_date)

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
    if not letters_only(record.surname).startswith(letters_only(query.surname)):
        return False
    if not letters_only(record.given).startswith(letters_only(query.given)):
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
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        groups: dict[int, list[bytes]] = {}
        for record in records:
            ordinal = key_ordinal(trigram_of(record.surname, record.given))
            groups.setdefault(ordinal, []).append(record.pack())

        entries = []
        start = 0
        for ordinal in range(GROUP_COUNT):
            count = len(groups.get(ordinal, ()))
            entries.append(GroupEntry(start=start, count=count))
            start += count

        with closed_on_error(RecordStore.create(out_dir / DATA_FILE, record_size=RECORD_SIZE)) as store:
            store.append_payload(b"".join(b"".join(groups[o]) for o in sorted(groups)))
            with closed_on_error(ComputedIndex.create(out_dir / INDEX_FILE)) as index:
                index.write_all(entries)
                index.sync()
        return cls(store, index)

    @classmethod
    def open(cls, directory: str | Path) -> "SsdiLibrary":
        directory = Path(directory)
        with closed_on_error(RecordStore.open(directory / DATA_FILE)) as store:
            return cls(store, ComputedIndex.open(directory / INDEX_FILE))

    def search(self, query: SearchQuery) -> list[DeathRecord]:
        """One index fetch, one contiguous group read, then a serial filter."""
        if not letters_only(query.surname) and not letters_only(query.given):
            raise ValueError("search needs at least one name letter to derive key letters")
        entry = self.index.read_group_entry(key_ordinal(trigram_of(query.surname, query.given)))
        data = self.store.read_records(entry.start, entry.count)
        results = []
        for i in range(entry.count):
            record = DeathRecord.unpack(data[i * RECORD_SIZE : (i + 1) * RECORD_SIZE])
            if matches(query, record):
                results.append(record)
        return results


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
