"""Run one motive-ring command in this fresh interpreter and report on it.

Usage: python3 -I perfbench/child.py <mode> <src-dir> [-- <cli arguments>]

Modes:
  setup  import motive_ring.cli and stop (a set-up probe)
  plain  run the command untraced
  trace  run it with layer spans and object sizes recorded
  count  run it with the hot per-element calls counted

The last line of standard output is one JSON object with the monotonic clock
reading at which the CLI was imported and ready, the in-process ``cli.run``
time, the exit code, the sha256 of the command's stdout, the failing check
names, the peak resident set and, for trace and count, the layer figures.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def check_results(text: str):
    """(number of checks, sorted failing check names) of the CLI's JSON
    output; (0, None) when the output is not a JSON document."""
    try:
        doc = json.loads(text)
    except ValueError:
        return 0, None
    checks = doc.get("checks", []) if isinstance(doc, dict) else []
    return len(checks), sorted({c.get("name") for c in checks if not c.get("pass")})


def main(argv) -> int:
    mode, src = argv[0], argv[1]
    command = argv[3:] if len(argv) > 2 and argv[2] == "--" else []
    sys.path.insert(0, os.path.abspath(src))
    from motive_ring import cli

    ready = time.monotonic()
    report = {"ready": ready}
    if mode == "setup":
        print(json.dumps(report))
        return 0
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import layers

    instruments = []
    if mode == "trace":
        instruments = [layers.SizeRecorder(), layers.Tracer()]
    elif mode == "count":
        instruments = [layers.CallCounter()]
    for instrument in instruments:
        instrument.install()

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(command)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the command crashed: report it, the gate fails it
        traceback.print_exc()
        code = "exception"
    report["run_s"] = time.perf_counter() - start
    text = out.getvalue()
    report["exit"] = code
    report["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    report["checks"], report["failing_checks"] = check_results(text)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for instrument in instruments:
        report.setdefault("missing", []).extend(instrument.missing)
        if isinstance(instrument, layers.SizeRecorder):
            report["sizes"] = instrument.sizes
        else:
            report[mode] = instrument.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
