"""Run raclib's delivery server in a process of its own.

    python3 perfbench/server_proc.py LIBRARY_DIR CACHE_ROOT SPANS_FILE

The server is wired exactly as ``raclib serve`` wires it (``build_resolver``
plus ``DeliveryServer``) and listens on an ephemeral loopback port. The
process prints one JSON line when it serves, then answers one JSON line per
command read from stdin:

    usage      CPU seconds and peak RSS of this process so far
    trace-on   start recording spans around every layer
    trace-off  stop, write the spans to SPANS_FILE, report how many

At end of input it stops serving, prints its usage once more and exits.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from raclib.config import Config
from raclib.server import DeliveryServer, build_resolver
from proc import reply, usage
from spans import Tracer


def main() -> None:
    library_dir, cache_root, spans_file = sys.argv[1:4]
    config = Config(library_dir=Path(library_dir), cache_root=Path(cache_root))
    server = DeliveryServer(("127.0.0.1", 0), build_resolver(config))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    tracer = Tracer()
    try:
        reply({"port": server.server_address[1]})
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                reply(usage())
            elif command == "trace-on":
                tracer.start()
                tracer.rebind(server.resolver)
                reply({"tracing": True, "untraced": tracer.missing})
            elif command == "trace-off":
                tracer.stop()
                tracer.rebind(server.resolver)
                reply({"spans": tracer.dump(spans_file)})
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    reply(usage())


if __name__ == "__main__":
    main()
