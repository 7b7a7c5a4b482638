"""Run one `landmark-minsum` command from the checkout's sources.

    python3 perfbench/launch.py [--spans FILE] -- <cli arguments>

With `--spans`, the entry points are wrapped as in a traced benchmark run and
the spans are written to FILE as JSON when the command ends.  The exit code
is the command's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None
    sys.path.insert(0, str(SRC))
    from landmark_minsum import cli

    if spans_path is None:
        return cli.main(cli_args)
    import spans

    recorder = spans.Recorder()
    recorder.op = "child"  # the parent files these spans under its own op
    spans.install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
