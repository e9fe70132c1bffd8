"""Traced `qspectra` CLI process for the per-layer run of cli_fresh.

Usage: python -X importtime perfbench/child.py SUMMARY_JSON <qspectra args>

Runs `qspectra.cli.main` under the tracer and writes the span summary to
SUMMARY_JSON; the exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

import qspectra.cli

from tracer import Tracer

if __name__ == "__main__":
    summary_path = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        code = qspectra.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        summary_path.write_text(json.dumps(tracer.summary()), encoding="utf-8")
        tracer.save(summary_path.with_suffix(".spans"))
    sys.exit(code)
