"""One repetition of a workload, in a fresh interpreter.

Usage: python bench/child.py <spec.json> <result.json>

The spec lists CLI argument vectors, whether to trace, and where to save
spans. Each vector is passed to ``schirn.cli.main`` in this one process, in
order, and timed. The result holds the monotonic clock reading once
``schirn.cli`` is imported (the parent subtracts its spawn time from it),
each command's exit code and seconds, and the process's peak RSS. The parent
points PYTHONPATH at the checkout's ``src`` and pins the BLAS threads.
"""

import sys
import time

import schirn.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _run(argv) -> int:
    try:
        return int(schirn.cli.main(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed command, not a crashed benchmark
        traceback.print_exc()
        return 3


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(schirn.cli.__file__).resolve().parents:
        print(f"child: imported {schirn.cli.__file__}, expected a module under {src}", file=sys.stderr)
        return 2
    recorder = None
    missing = []
    if spec["trace"]:
        import tracer

        recorder = tracer.Recorder()
        missing = tracer.install(recorder)
    commands = []
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        rc = _run(argv)
        commands.append({"argv": argv, "rc": rc, "seconds": time.perf_counter() - t0})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.save(spec["spans"])
    result = {"ready": READY, "commands": commands, "peak_rss_mb": peak_kb / 1024.0, "not_traced": missing}
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
