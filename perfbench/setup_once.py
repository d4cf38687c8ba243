"""One set-up sample, run in a fresh interpreter by `run.py`:

    python3 perfbench/setup_once.py SRC_DIR 'ARGV_JSON'

Times `import herdcluster.cli` plus one warm-up op (`cli.main(argv)`),
which also warms numpy's lazy initialisation and herdcluster's cached
quadrature nodes, and prints {"exit_code": ..., "setup_s": ...}.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    from herdcluster import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    print(json.dumps({"exit_code": code, "setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
