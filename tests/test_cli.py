import re
import select
import socket
import subprocess
import sys

import pytest

from raclib.cli import main
from raclib.store import RecordStore

from test_pack import make_pages


def test_pack_then_fetch_round_trip(tmp_path, capsysbinary):
    pages = make_pages(tmp_path / "in", 5)
    assert main(["pack", "--in", str(tmp_path / "in"), "--collection", "year",
                 "--out", str(tmp_path / "lib")]) == 0
    capsysbinary.readouterr()
    assert main(["fetch", "--library", str(tmp_path / "lib" / "year.raclib"),
                 "--name", "TallyHo1965", "--key", "0003"]) == 0
    out = capsysbinary.readouterr().out
    assert out == pages["TallyHo1965", "0003"]


def test_fetch_to_file(tmp_path):
    pages = make_pages(tmp_path / "in", 2)
    main(["pack", "--in", str(tmp_path / "in"), "--collection", "c", "--out", str(tmp_path / "lib")])
    target = tmp_path / "page.jpg"
    assert main(["fetch", "--library", str(tmp_path / "lib" / "c.raclib"),
                 "--name", "TallyHo1965", "--key", "0001", "--out", str(target)]) == 0
    assert target.read_bytes() == pages["TallyHo1965", "0001"]


def test_fetch_unknown_exits_2(tmp_path, capsys):
    make_pages(tmp_path / "in", 1)
    main(["pack", "--in", str(tmp_path / "in"), "--collection", "c", "--out", str(tmp_path / "lib")])
    assert main(["fetch", "--library", str(tmp_path / "lib" / "c.raclib"),
                 "--name", "TallyHo1965", "--key", "9999"]) == 2
    assert "not found" in capsys.readouterr().err


def test_fetch_missing_library_exits_1(tmp_path, capsys):
    assert main(["fetch", "--library", str(tmp_path / "none.raclib"),
                 "--name", "a", "--key", "b"]) == 1


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pack", "--collection", "c"])  # missing --in/--out
    assert exc.value.code == 1


def test_duplicate_members_exit_1(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "a_1.jpg").write_bytes(b"x")
    (indir / "a_1.png").write_bytes(b"y")
    assert main(["pack", "--in", str(indir), "--collection", "c", "--out", str(tmp_path / "o")]) == 1


def test_record_size_precedence_flag_env_file(tmp_path, monkeypatch):
    (tmp_path / "in").mkdir()
    (tmp_path / "raclib.conf").write_text("record_size=512\n")

    main(["--config", str(tmp_path / "raclib.conf"), "pack", "--in", str(tmp_path / "in"),
          "--collection", "a", "--out", str(tmp_path / "o1")])
    assert RecordStore.open(tmp_path / "o1" / "a.raclib").record_size == 512

    monkeypatch.setenv("RACLIB_RECORD_SIZE", "2048")
    main(["--config", str(tmp_path / "raclib.conf"), "pack", "--in", str(tmp_path / "in"),
          "--collection", "b", "--out", str(tmp_path / "o2")])
    assert RecordStore.open(tmp_path / "o2" / "b.raclib").record_size == 2048

    main(["--config", str(tmp_path / "raclib.conf"), "pack", "--in", str(tmp_path / "in"),
          "--collection", "c", "--out", str(tmp_path / "o3"), "--record-size", "256"])
    assert RecordStore.open(tmp_path / "o3" / "c.raclib").record_size == 256


def write_ssdi_tsv(path, rows):
    path.write_text("".join("\t".join(r) + "\n" for r in rows), "ascii")


def test_ssdi_build_and_search(tmp_path, capsys):
    tsv = tmp_path / "records.tsv"
    write_ssdi_tsv(tsv, [
        ("Kennedy", "Robert", "123456789", "19251120", "19680600"),
        ("Kennedy", "Rose", "000000001", "18900722", "19950122"),
        ("Smith", "Mary", "000000002", "19251120", "19680600"),
    ])
    assert main(["ssdi", "build", "--in", str(tsv), "--out", str(tmp_path / "lib")]) == 0
    capsys.readouterr()
    assert main(["ssdi", "search", "--lib", str(tmp_path / "lib"), "--given", "Robert",
                 "--surname", "Kennedy", "--birth", "1925",
                 "--death-from", "1936", "--death-to", "1974"]) == 0
    out = capsys.readouterr().out
    assert out == "KENNEDY\tROBERT\t123456789\t19251120\t19680600\n"


def test_ssdi_search_no_hits_is_success(tmp_path, capsys):
    tsv = tmp_path / "r.tsv"
    write_ssdi_tsv(tsv, [("Kennedy", "Robert", "123456789", "19251120", "19680600")])
    main(["ssdi", "build", "--in", str(tsv), "--out", str(tmp_path / "lib")])
    capsys.readouterr()
    assert main(["ssdi", "search", "--lib", str(tmp_path / "lib"),
                 "--given", "Robert", "--surname", "Kennedy", "--birth", "1807"]) == 0
    assert capsys.readouterr().out == ""


def test_ssdi_search_without_names_exits_1(tmp_path, capsys):
    tsv = tmp_path / "r.tsv"
    write_ssdi_tsv(tsv, [("Kennedy", "Robert", "123456789", "19251120", "19680600")])
    main(["ssdi", "build", "--in", str(tsv), "--out", str(tmp_path / "lib")])
    assert main(["ssdi", "search", "--lib", str(tmp_path / "lib")]) == 1


def test_neuro_build_and_query(tmp_path, capsys):
    atlas = tmp_path / "atlas.tsv"
    atlas.write_text("L_ctx\t-41\t12\t-35\nL_ctx\t-42\t13\t-36\nR_ctx\t40\t12\t35\n")
    assert main(["neuro", "build", "--in", str(atlas), "--out", str(tmp_path / "lib")]) == 0
    capsys.readouterr()
    assert main(["neuro", "query", "--lib", str(tmp_path / "lib"), "--region", "L_ctx"]) == 0
    assert capsys.readouterr().out == "-41\t12\t-35\n-42\t13\t-36\n"
    assert main(["neuro", "query", "--lib", str(tmp_path / "lib"), "--region", "L_ctx",
                 "--block", "n4_xp1_yn3_z"]) == 0
    assert capsys.readouterr().out == "-41\t12\t-35\n-42\t13\t-36\n"


def test_neuro_query_unknown_region_exits_2(tmp_path, capsys):
    atlas = tmp_path / "atlas.tsv"
    atlas.write_text("L_ctx\t-41\t12\t-35\n")
    main(["neuro", "build", "--in", str(atlas), "--out", str(tmp_path / "lib")])
    assert main(["neuro", "query", "--lib", str(tmp_path / "lib"), "--region", "missing"]) == 2


def test_bench_cli_pipeline(tmp_path, capsys):
    lib = tmp_path / "s.raclib"
    assert main(["bench", "synth", "--out", str(lib), "--records", "64",
                 "--record-size", "128", "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "path,records,record_size,seed"
    assert out[1].endswith("64,128,3")

    assert main(["bench", "fetch", "--library", str(lib), "--start", "10",
                 "--count", "4", "--trials", "5"]) == 0
    fetch_csv = capsys.readouterr().out
    lines = fetch_csv.splitlines()
    assert lines[0] == "start,count,elapsed_us,bytes_read"
    assert len(lines) == 6
    assert all(line.split(",")[3] == "512" for line in lines[1:])

    samples = tmp_path / "samples.csv"
    samples.write_text(fetch_csv)
    assert main(["bench", "hist", "--in", str(samples)]) == 0
    hist_lines = capsys.readouterr().out.splitlines()
    assert hist_lines[0] == "bin_low,bin_high,count"
    assert sum(int(line.split(",")[2]) for line in hist_lines[1:]) == 5


def test_bench_serial_cli(tmp_path, capsys):
    archive = tmp_path / "members.arch"
    assert main(["bench", "serial", "--archive", str(archive), "--member", "99",
                 "--members", "100", "--member-size", "512", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "member,elapsed_us,bytes_read"
    member, _, bytes_read = out[1].split(",")
    assert member == "99"
    assert int(bytes_read) == archive.stat().st_size == 100 * (512 + 16)


def test_bench_serial_missing_archive_exits_1(tmp_path):
    assert main(["bench", "serial", "--archive", str(tmp_path / "none"), "--member", "0"]) == 1


def test_serve_logs_timestamped_lines(tmp_path):
    make_pages(tmp_path / "in", 2)
    assert main(["pack", "--in", str(tmp_path / "in"), "--collection", "yb", "--out", str(tmp_path / "lib")]) == 0
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "raclib.cli", "serve", "--port", str(port),
         "--library-dir", str(tmp_path / "lib"), "--cache-root", str(tmp_path / "cache")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert select.select([proc.stderr], [], [], 10)[0], "no log line within 10 s"
        line = proc.stderr.readline()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stderr.close()
    stamp = r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3}"
    assert re.fullmatch(stamp + rf" INFO raclib.server: serving \S+ on port {port}\n", line), line
