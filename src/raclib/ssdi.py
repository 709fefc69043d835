"""Death-record library: 64-byte person records grouped by key letters.

Records are sorted into 17,576 groups on (first surname letter, second
surname letter, first given-name letter) and concatenated group by group
into one library, so a search touches exactly one computed-index entry and
one contiguous run of records, whatever the library size.

A search checks every record it reads once, with one compiled pattern per
record that accepts exactly what ``DeathRecord.unpack`` accepts (a record
the pattern refuses goes through ``unpack``, which raises naming the field).
A non-hit is rejected on its fixed-width name and year bytes, without
decoding; the remaining candidates are built once each and filtered by
``matches``.

A library is built from a records TSV file: ``read_records_tsv`` holds
each record in a compact form, its five stored fields each ended by a
newline, in one buffer per non-empty group, packing a plain line from its
bytes with no ``DeathRecord`` and no field text; ``SsdiLibrary.build``
expands a group to its 64-byte records only as it writes it.

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
from typing import NamedTuple

from .computed_index import GROUP_COUNT, ComputedIndex, letters_only, name_ordinal, pack_tiling
from .store import Library, tsv_fields

RECORD_SIZE = 64
SURNAME_WIDTH = 24
GIVEN_WIDTH = 12

DATA_FILE = "records.raclib"
INDEX_FILE = "groups.index"

_DATE_RE = re.compile(r"[0-9]{8}")
_SSN_RE = re.compile(r"[0-9]{9}")
_WELL_FORMED_DATE = r"[0-9]{4}(?:0[0-9]|1[0-2])(?:[0-2][0-9]|3[01])"
# ssn, birth and death concatenated, when all three are well formed.
_WELL_FORMED_NUMBERS = rf"[0-9]{{9}}(?:{_WELL_FORMED_DATE}){{2}}"
# A plain TSV line: names ``DeathRecord`` stores as they are, and well-formed numbers.
# ``read_records_tsv`` packs its bytes with no check; a line it refuses is checked field by field.
_PLAIN_LINE = re.compile(
    rf"[A-Z]{{1,{SURNAME_WIDTH}}}\t[A-Z]{{1,{GIVEN_WIDTH}}}\t[0-9]{{9}}"
    rf"\t{_WELL_FORMED_DATE}\t{_WELL_FORMED_DATE}\n".encode("ascii")
)
# One record as the library holds it, for ``%`` with the five fields of its compact form.
_PADDED_RECORD = b"%-24b%-12b%b%b%b  \n"
# A packed record that ``DeathRecord.unpack`` accepts, for ``fullmatch(data, o, o + 64)``: ASCII
# names with no NUL or newline, then well-formed numbers, two ASCII bytes and a newline.
# Stricter than ``unpack`` only on a name field with a newline that strip() would remove;
# such a record takes ``unpack``'s path. Never run over a whole group: ``(?:...)*`` makes sre
# keep state for every record it repeats over, megabytes for a large group.
_RECORD_RE = re.compile(
    rb"[\x01-\x09\x0b-\x7f]{36}" + _WELL_FORMED_NUMBERS.encode("ascii") + rb"[\x00-\x7f]{2}\n"
)
# A name field that is its own normalized form: upper-case letters, then space padding.
_PLAIN_NAME_RE = re.compile(rb"[A-Z]* *")


def _check_date(field: str, value: str) -> None:
    if not _DATE_RE.fullmatch(value):
        raise ValueError(f"{field} must be 8 digits YYYYMMDD, got {value!r}")
    month, day = int(value[4:6]), int(value[6:8])
    if month > 12 or day > 31:
        raise ValueError(f"{field} has impossible month/day: {value!r}")


def _stored_name(field: str, value: str, width: int) -> str:
    stored = value.upper().strip()
    if len(stored) > width:
        raise ValueError(f"{field} longer than {width} characters: {stored!r}")
    # ``value``, not ``stored``: upper() and strip() can make other text ASCII ("ß" to "SS").
    if not value.isascii() or "\n" in stored or "\x00" in stored:
        raise ValueError(f"{field} must be plain ASCII text: {value!r}")
    return stored


@dataclass(frozen=True, slots=True)
class DeathRecord:
    """One person. Names are held in their stored (upper-case) form."""

    surname: str
    given: str
    ssn: str
    birth_date: str
    death_date: str

    def __post_init__(self):
        object.__setattr__(self, "surname", _stored_name("surname", self.surname, SURNAME_WIDTH))
        object.__setattr__(self, "given", _stored_name("given", self.given, GIVEN_WIDTH))
        if not _SSN_RE.fullmatch(self.ssn):
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
            self.surname.ljust(SURNAME_WIDTH) + self.given.ljust(GIVEN_WIDTH)
            + self.ssn + self.birth_date + self.death_date + "  \n"
        )
        return line.encode("ascii")

    @classmethod
    def _from_checked(cls, text: str) -> "DeathRecord":
        """``unpack`` of a record ``_RECORD_RE`` accepted: the same fields, not checked again."""
        record = object.__new__(cls)
        _set_surname(record, text[:24].rstrip().upper().strip())
        _set_given(record, text[24:36].rstrip().upper().strip())
        _set_ssn(record, text[36:45])
        _set_birth_date(record, text[45:53])
        _set_death_date(record, text[53:61])
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


# Each field's slot setter: a record built from checked fields sets each once, faster than object.__setattr__.
_set_surname, _set_given, _set_ssn, _set_birth_date, _set_death_date = (
    DeathRecord.surname.__set__, DeathRecord.given.__set__, DeathRecord.ssn.__set__,
    DeathRecord.birth_date.__set__, DeathRecord.death_date.__set__,
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


class PackedRecords(NamedTuple):
    """Records, checked and packed: what ``read_records_tsv`` returns for ``SsdiLibrary.build``.

    ``groups`` holds, at each group's ordinal, its records in input order,
    each in its compact form: its five stored fields, each ended by a
    newline, which no field can hold. An empty group holds None. ``counts``
    holds each group's record count. ``SsdiLibrary.build`` drops each
    group from ``groups`` once it is written.
    """

    groups: list[bytearray | None]
    counts: list[int]


def _compact(record: DeathRecord) -> bytes:
    """A record's compact form, as ``PackedRecords`` holds it."""
    return f"{record.surname}\n{record.given}\n{record.ssn}\n{record.birth_date}\n{record.death_date}\n".encode("ascii")


def _padded(group: bytearray, count: int) -> bytes:
    """A group's ``count`` records in compact form as the library's 64-byte records: ``DeathRecord.pack``'s bytes."""
    fields = group.split(b"\n")
    del fields[-1]  # the empty field after the last newline
    return _PADDED_RECORD * count % tuple(fields)


class SsdiLibrary(Library):
    """A built record library plus its computed group index."""

    @classmethod
    def build(cls, records: PackedRecords, out_dir: str | Path) -> "SsdiLibrary":
        """Write the library and index of the records ``read_records_tsv`` returns.

        Record order within a group is input order. Every one of the 17,576
        group entries is written; empty groups carry count 0 at their tiling
        position, so starts are always the prefix sums of counts.

        ``Library._build`` refuses an existing index before any group is
        drawn. The groups are then streamed to the store in ordinal order,
        each expanded to 64-byte records only as it is written and dropped
        from ``records`` once written; the index is then tiled from the group
        counts and written and fsync'd last.
        """
        out_dir = Path(out_dir)
        groups, counts = records

        def group_payloads():
            for ordinal, group in enumerate(groups):
                if group is not None:
                    groups[ordinal] = None  # so each group is released once it is written
                    yield _padded(group, counts[ordinal])

        return cls._build(
            out_dir / DATA_FILE, RECORD_SIZE, group_payloads(),
            out_dir / INDEX_FILE, lambda path, refs: ComputedIndex.create_packed(path, pack_tiling(counts)),
        )

    @classmethod
    def open(cls, directory: str | Path) -> "SsdiLibrary":
        directory = Path(directory)
        return cls._open(directory / DATA_FILE, directory / INDEX_FILE, ComputedIndex.open)

    def search(self, query: SearchQuery) -> list[DeathRecord]:
        """One index fetch, one contiguous group read, then one pass over the group's bytes.

        A checked record is rejected on its bytes where ``matches`` would
        reject it: on a name field of upper-case letters and padding that
        does not start with the query's letters, or on year digits other than
        the query's. The others are built once and go through ``matches``:
        only the hits, unless a stored name holds other characters.
        """
        surname, given = letters_only(query.surname), letters_only(query.given)
        if not surname and not given:
            raise ValueError("search needs at least one name letter to derive key letters")
        entry = self.index.read_group_entry(name_ordinal(surname, given))
        data = self.store.read_records(entry.start, entry.count)
        # A name field of letters and padding matches exactly when it starts with the query's
        # letters; a prefix longer than its field is left to ``matches``.
        surname_b = surname.encode("ascii") if len(surname) <= SURNAME_WIDTH else b""
        given_b = given.encode("ascii") if len(given) <= GIVEN_WIDTH else b""
        birth = None if query.birth_year is None else _year_key(query.birth_year)
        low = b"" if query.death_year_from is None else _year_key(query.death_year_from)
        high = b":" if query.death_year_to is None else _year_key(query.death_year_to)
        checked, plain_name = _RECORD_RE.fullmatch, _PLAIN_NAME_RE.fullmatch
        results = []
        for o in range(0, len(data), RECORD_SIZE):
            end = o + RECORD_SIZE
            if not checked(data, o, end):
                record = DeathRecord.unpack(data[o:end])
            elif (
                surname_b and not data.startswith(surname_b, o) and plain_name(data, o, o + SURNAME_WIDTH)
                or given_b and not data.startswith(given_b, o + SURNAME_WIDTH)
                and plain_name(data, o + SURNAME_WIDTH, o + SURNAME_WIDTH + GIVEN_WIDTH)
                or birth is not None and data[o + 45 : o + 49] != birth
                or not low <= data[o + 53 : o + 57] <= high
            ):
                continue
            else:
                record = DeathRecord._from_checked(data[o:end].decode("ascii"))
            if _matches(query, surname, given, record):
                results.append(record)
        return results


def _year_key(year: int) -> bytes:
    """Bytes that compare with a checked record's four year digits as ``year`` compares with its year."""
    return b"" if year < 0 else b":" if year > 9999 else b"%04d" % year


def read_records_tsv(path: str | Path) -> PackedRecords:
    """Check every line of a surname/given/ssn/birth/death TSV file and pack it, for ``SsdiLibrary.build``.

    The file is read once, in binary. A plain line is packed from its bytes
    as they are; any other line is decoded as UTF-8 and checked by
    ``DeathRecord``. Lines end and are numbered as text mode reads them, at
    ``\\r\\n``, ``\\r`` or ``\\n``, and blank lines are skipped. A bad line
    raises ``ValueError("path:lineno: ...")`` before this returns. Each
    record is held only in its compact form, appended to its group's buffer
    in input order, and counted: about 45 B per record plus under 1 MB.
    """
    groups: list[bytearray | None] = [None] * GROUP_COUNT
    counts = [0] * GROUP_COUNT
    for record in _compact_lines(path):
        # Key letters that are the stored names' first bytes give the ordinal with no normalizing.
        s1, s2, g1 = record[0], record[1], record[record.index(10) + 1]
        if s2 == 10:  # a one-letter surname, whose second key letter is A
            s2 = 65
        if 65 <= s1 <= 90 and 65 <= s2 <= 90 and 65 <= g1 <= 90:
            ordinal = 676 * s1 + 26 * s2 + g1 - 45_695  # 703 * ord("A")
        else:
            surname, given, _ = record.split(b"\n", 2)
            ordinal = name_ordinal(surname.decode("ascii"), given.decode("ascii"))
        group = groups[ordinal]
        if group is None:
            groups[ordinal] = bytearray(record)
        else:
            group += record
        counts[ordinal] += 1
    return PackedRecords(groups, counts)


def _compact_lines(path: str | Path):
    """Each non-blank line of a records TSV file in compact form, read as ``read_records_tsv`` says."""
    plain = _PLAIN_LINE.fullmatch
    extra = 0  # lines text mode would read so far beyond the binary ones: a lone \r ends one
    with open(path, "rb") as f:
        for number, line in enumerate(f, 1):
            if plain(line):
                yield line.replace(b"\t", b"\n")
                continue
            lines = [line]
            if b"\r" in line:  # text mode ends a line at \r\n or a lone \r too, and reads either as \n
                lines = line.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)
            for lineno, line in enumerate(lines, number + extra):
                if plain(line):
                    yield line.replace(b"\t", b"\n")
                    continue
                fields = tsv_fields(path, lineno, line.decode("utf-8", "surrogateescape"), 5, "5 tab-separated fields")
                if fields is not None:
                    try:
                        record = DeathRecord(*fields)
                    except ValueError as e:
                        raise ValueError(f"{path}:{lineno}: {e}") from None
                    yield _compact(record)
            extra += len(lines) - 1


def record_tsv_line(record: DeathRecord) -> str:
    return "\t".join(
        (record.surname, record.given, record.ssn, record.birth_date, record.death_date)
    )
