"""Single entry point: pack, fetch, serve, ssdi, neuro, and bench subcommands.

Exit codes are a stable scripting contract: 0 success, 2 not-found,
1 everything else (including usage errors).
"""

from __future__ import annotations

import argparse
import csv
import logging
import random
import sys
from pathlib import Path

from . import bench, server
from .config import load_config
from .errors import NotFoundError, RacLibError
from .neuro import RegionLibrary, read_atlas_tsv
from .pack import Collection, pack_directory
from .ssdi import SearchQuery, SsdiLibrary, read_records_tsv, record_tsv_line
from .store import RecordStore

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NOT_FOUND = 2

SERVE_LOG_LEVEL = logging.INFO
SERVE_LOG_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for not-found.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"{self.prog}: error: {message}\n")


def cmd_pack(args) -> int:
    config = load_config(args.config, record_size=args.record_size)
    with pack_directory(
        args.input_dir, args.collection, args.out_dir,
        record_size=config.record_size, manifest=args.manifest,
    ) as collection:
        print(
            f"packed {collection.index.entry_count()} members into "
            f"{collection.store.path} ({collection.store.record_count} records)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_fetch(args) -> int:
    with Collection.open(args.library, args.index) as collection:
        payload = collection.fetch(args.name, args.key)
    if args.out == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        Path(args.out).write_bytes(payload)
    return EXIT_OK


def cmd_serve(args) -> int:
    config = load_config(args.config, port=args.port, library_dir=args.library_dir, cache_root=args.cache_root)
    logging.basicConfig(level=SERVE_LOG_LEVEL, format=SERVE_LOG_FORMAT)
    server.serve(config)
    return EXIT_OK


def cmd_ssdi_build(args) -> int:
    with SsdiLibrary.build(read_records_tsv(args.input), args.out_dir) as library:
        print(f"built {library.store.record_count} records in {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_ssdi_search(args) -> int:
    query = SearchQuery(
        given=args.given,
        surname=args.surname,
        birth_year=args.birth,
        death_year_from=args.death_from,
        death_year_to=args.death_to,
    )
    with SsdiLibrary.open(args.lib) as library:
        for record in library.search(query):
            print(record_tsv_line(record))
    return EXIT_OK


def cmd_neuro_build(args) -> int:
    with RegionLibrary.build(read_atlas_tsv(args.input), args.out_dir) as library:
        print(f"built {library.store.record_count} voxel records in {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_neuro_query(args) -> int:
    with RegionLibrary.open(args.lib) as library:
        voxels = (library.block_voxels(args.region, args.block) if args.block
                  else library.region_voxels(args.region))
    for v in voxels:
        print(f"{v.x}\t{v.y}\t{v.z}")
    return EXIT_OK


def cmd_bench_synth(args) -> int:
    with bench.synth_library(args.out, args.records, args.record_size, args.seed) as store:
        writer = csv.writer(sys.stdout)
        writer.writerow(["path", "records", "record_size", "seed"])
        writer.writerow([store.path, store.record_count, store.record_size, args.seed])
    return EXIT_OK


def cmd_bench_fetch(args) -> int:
    with RecordStore.open(args.library) as store:
        stats = bench.measure_fetch(store, args.start, args.count, args.trials)
    writer = csv.writer(sys.stdout)
    writer.writerow(["start", "count", "elapsed_us", "bytes_read"])
    for s in stats.samples:
        writer.writerow([s.start, s.count, f"{s.elapsed_us:.1f}", s.bytes_read])
    print(
        f"min/median/mean/max us: {stats.min_us:.1f} {stats.median_us:.1f} "
        f"{stats.mean_us:.1f} {stats.max_us:.1f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_bench_serial(args) -> int:
    archive = Path(args.archive)
    if not archive.exists():
        if args.members is None:
            raise FileNotFoundError(f"archive {archive} does not exist (pass --members to synthesize)")
        rng = random.Random(args.seed)
        bench.build_scan_archive(archive, (rng.randbytes(args.member_size) for _ in range(args.members)))
    sample = bench.serial_baseline(archive, args.member)
    writer = csv.writer(sys.stdout)
    writer.writerow(["member", "elapsed_us", "bytes_read"])
    writer.writerow([sample.start, f"{sample.elapsed_us:.1f}", sample.bytes_read])
    return EXIT_OK


def cmd_bench_hist(args) -> int:
    with open(args.input, newline="") as f:
        rows = [row for row in csv.reader(f) if row]
    if not rows:
        raise ValueError(f"no samples in {args.input}")
    if "elapsed_us" in rows[0]:
        column = rows[0].index("elapsed_us")
        rows = rows[1:]
    else:
        column = 0
    values = [float(row[column]) for row in rows]
    edges = [float(e) for e in args.edges.split(",")] if args.edges else None
    sys.stdout.write(bench.histogram_csv(values, edges))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="raclib", description="Concatenated record libraries with random access")
    parser.add_argument("--config", help="config file of key=value lines", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="pack a directory of files into one library + index")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--collection", required=True, help="output base name")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--record-size", type=int, default=None)
    p.add_argument("--manifest", default=None, help="filename<TAB>name<TAB>key lines")
    p.set_defaults(func=cmd_pack)

    f = sub.add_parser("fetch", help="fetch one member to a file or stdout")
    f.add_argument("--library", required=True)
    f.add_argument("--index", default=None, help="defaults to <library>.index")
    f.add_argument("--name", required=True)
    f.add_argument("--key", required=True)
    f.add_argument("--out", default="-", help="output path, - for stdout")
    f.set_defaults(func=cmd_fetch)

    s = sub.add_parser("serve", help="run the HTTP image delivery service")
    s.add_argument("--port", type=int, default=None)
    s.add_argument("--library-dir", default=None)
    s.add_argument("--cache-root", default=None)
    s.set_defaults(func=cmd_serve)

    ssdi = sub.add_parser("ssdi", help="build and search death-record libraries")
    ssdi_sub = ssdi.add_subparsers(dest="ssdi_command", required=True)
    b = ssdi_sub.add_parser("build")
    b.add_argument("--in", dest="input", required=True, help="surname/given/ssn/birth/death TSV")
    b.add_argument("--out", dest="out_dir", required=True)
    b.set_defaults(func=cmd_ssdi_build)
    q = ssdi_sub.add_parser("search")
    q.add_argument("--lib", required=True)
    q.add_argument("--given", default="")
    q.add_argument("--surname", default="")
    q.add_argument("--birth", type=int, default=None)
    q.add_argument("--death-from", type=int, default=None)
    q.add_argument("--death-to", type=int, default=None)
    q.set_defaults(func=cmd_ssdi_search)

    neuro = sub.add_parser("neuro", help="build and query voxel region libraries")
    neuro_sub = neuro.add_subparsers(dest="neuro_command", required=True)
    nb = neuro_sub.add_parser("build")
    nb.add_argument("--in", dest="input", required=True, help="region/x/y/z TSV")
    nb.add_argument("--out", dest="out_dir", required=True)
    nb.set_defaults(func=cmd_neuro_build)
    nq = neuro_sub.add_parser("query")
    nq.add_argument("--lib", required=True)
    nq.add_argument("--region", required=True)
    nq.add_argument("--block", default=None)
    nq.set_defaults(func=cmd_neuro_query)

    bn = sub.add_parser("bench", help="latency benchmarks, CSV on stdout")
    bench_sub = bn.add_subparsers(dest="bench_command", required=True)
    bs = bench_sub.add_parser("synth")
    bs.add_argument("--out", required=True)
    bs.add_argument("--records", type=int, required=True)
    bs.add_argument("--record-size", type=int, default=1024)
    bs.add_argument("--seed", type=int, default=0)
    bs.set_defaults(func=cmd_bench_synth)
    bf = bench_sub.add_parser("fetch")
    bf.add_argument("--library", required=True)
    bf.add_argument("--start", type=int, required=True)
    bf.add_argument("--count", type=int, required=True)
    bf.add_argument("--trials", type=int, default=10)
    bf.set_defaults(func=cmd_bench_fetch)
    bl = bench_sub.add_parser("serial")
    bl.add_argument("--archive", required=True)
    bl.add_argument("--member", type=int, required=True)
    bl.add_argument("--members", type=int, default=None, help="synthesize this many members if missing")
    bl.add_argument("--member-size", type=int, default=1024)
    bl.add_argument("--seed", type=int, default=0)
    bl.set_defaults(func=cmd_bench_serial)
    bh = bench_sub.add_parser("hist")
    bh.add_argument("--in", dest="input", required=True, help="CSV of samples")
    bh.add_argument("--edges", default=None, help="comma-separated bin edges (default: decades)")
    bh.set_defaults(func=cmd_bench_hist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotFoundError as exc:
        print(f"raclib: not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (RacLibError, ValueError, OSError) as exc:
        print(f"raclib: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
