"""Run one sagan CLI operation in this fresh interpreter and report on it.

usage: python3 worker.py REPORT TRACE [-- SAGAN_ARGS...]

Imports `sagan.cli` from the checkout's `src` (timed as the set-up sample),
then calls `cli.main(SAGAN_ARGS)` with the CLI's stdout going to this
process's stdout, and times it including the final flush. With TRACE=1 the
calls into sagan's layers are recorded as spans first. Writes one JSON report
to REPORT and exits with the CLI's exit code. Without SAGAN_ARGS it only
imports.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:] if len(sys.argv) > 3 and sys.argv[3] == "--" else []
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import sagan.cli as cli
    report = {"import_s": time.perf_counter() - start}
    code = 0
    if argv:
        run = cli.main
        recorder = None
        if trace:
            import spans
            recorder = spans.Recorder()
            report["not_traced"] = spans.install(recorder)
            run = recorder.wrap("main", cli.main)
        start = time.perf_counter()
        try:
            code = run(argv)
            sys.stdout.flush()
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            report["error"] = traceback.format_exc()
            code = 1
        report["main_s"] = time.perf_counter() - start
        report["exit"] = code
        if recorder is not None:
            report["spans"] = recorder.spans
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
