"""Runs one regover CLI command in this fresh process and reports on it.

    python3 bench/worker.py --trace 0|1 [--spans FILE] -- <regover arguments>

The command runs through ``regover.cli.main`` with its standard output
captured.  The worker prints one JSON line holding the ``perf_counter``
stamps of the first claim (or hunt) call and of the command's end, the
command's exit code and output, and the backend.  With ``--trace 1`` it
also wraps every layer boundary (see tracer.py), adds the per-layer metrics
and writes the spans to FILE.  It exits with the command's exit code.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv) -> int:
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1 :]
    trace = opts[opts.index("--trace") + 1] == "1"
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    sys.path.insert(0, str(SRC))
    import contextlib
    import io
    import json

    import regover
    from regover import claims, cli

    if Path(regover.__file__).resolve().parent != SRC / "regover":
        print(f"error: regover imported from {regover.__file__}, not {SRC}", file=sys.stderr)
        return 3

    first_call = []

    def stamped(fn):
        def call(*args, **kwargs):
            if not first_call:
                first_call.append(time.perf_counter())
            return fn(*args, **kwargs)

        return call

    originals = claims.verify_claim, claims.hunt
    claims.verify_claim, claims.hunt = map(stamped, originals)
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(command)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        claims.verify_claim, claims.hunt = originals

    payload = {
        "first_call": first_call[0] if first_call else None,
        "end": end,
        "exit": code,
        "stdout": out.getvalue(),
        "backend": regover.backend_name(),
    }
    if tracer is not None:
        payload["layers"] = tracing.layer_metrics(tracer)
        if spans_path:
            tracer.write_spans(spans_path)
    print(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
