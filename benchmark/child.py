"""One child interpreter of the benchmark: import ``loopinv.cli`` from the
checkout's ``src``, then serve a list of CLI requests in sequence, each
with its stdout and stderr captured, and write the outcomes as JSON.

    python3 -I child.py JOB.json RESULT.json

JOB holds ``root`` (the checkout), ``requests`` (argv lists) and ``trace``.
RESULT holds ``imported`` (``time.monotonic()`` right after the import, for
the parent's set-up time), one outcome per request with its time in
seconds, and either ``ref_seconds`` (untraced: the requests' time at the probe's
reference speed, see probe.py) or the spans (traced).  An untraced child
runs the probe on a timer while it serves; request times leave out the
time spent in the probe.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probe  # noqa: E402


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import loopinv.cli

    imported = time.monotonic()
    if Path(loopinv.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"loopinv imported from {loopinv.cli.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install(tracing.Tracer())

    outcomes = []
    prober = probe.Probe()
    if tracer is None:
        prober.start()
    for i, argv in enumerate(job["requests"]):
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if tracer is not None:
            tracer.request = i
        t0, probed = time.perf_counter(), prober.spent
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = loopinv.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a request that raises out of main fails; the rest still run
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(
            {
                "code": code,
                "error": error,
                "seconds": time.perf_counter() - t0 - (prober.spent - probed),
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
        )

    prober.stop()

    result = {"imported": imported, "outcomes": outcomes}
    if tracer is None:
        if not prober.durations:  # served in less than one probe period
            prober.sample(1)
        result["ref_seconds"] = sum(o["seconds"] for o in outcomes) * probe.speed(prober.durations)
    else:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
