"""Run one lietriples CLI command with the tracer installed.

    python perfbench/launch.py OUT.json <lietriples arguments...>

Imports lietriples.cli (timing the import), installs the Tracer, calls
lietriples.cli.main with the remaining arguments, writes the trace record to
OUT.json and exits with main's exit code.  Standard output and error are the
CLI's own, so a traced command prints exactly what an untraced one does.
"""

import json
import sys
import time


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import lietriples.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        begin = time.perf_counter()
        try:
            code = sys.modules["lietriples.cli"].main(cli_args)
        finally:
            wall_s = time.perf_counter() - begin
            sys.stdout.flush()
            record = tracer.to_json()
            record["import_s"] = import_s
            record["wall_s"] = wall_s
            with open(out_path, "w") as fh:
                json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
