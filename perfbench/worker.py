"""One benchmark repetition, run in a fresh interpreter by run.py.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the config file, the CLI commands to run (argv lists, relative
to the current directory), whether to trace, and where to write spans.
The repetition times set-up (import moirelines and load the config), then
runs each command through ``moirelines.cli.main`` with stdout and stderr
captured, and writes RESULT: timings, exit codes, peak resident memory,
SHA-256 digests of every data file, and per-layer metrics when traced.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    import moirelines.cli
    import moirelines.config

    moirelines.config.load_config(spec["config"])
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if spec.get("setup_only"):
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return 0

    run_cli = moirelines.cli.main
    recorder = None
    if spec.get("trace"):
        from moirelines import classifier, cli, sweep, tracer
        from tracing import Recorder

        recorder = Recorder()
        recorder.install(
            {"cli": cli, "tracer": tracer, "classifier": classifier, "sweep": sweep}
        )
        run_cli = recorder.wrap("cli.main", cli.main)

    commands = []
    wall_s = 0.0
    for k, argv in enumerate(spec["commands"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            code = run_cli(argv)
            dt = time.perf_counter() - t
        wall_s += dt
        stdout = out.getvalue().encode("utf-8")
        Path(f"cmd{k}.stdout").write_bytes(stdout)
        commands.append(
            {
                "argv": argv,
                "exit": code,
                "wall_s": dt,
                "stdout_sha256": _sha256(stdout),
                "stderr": err.getvalue()[-2000:],
            }
        )

    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    files = {
        str(p): _sha256(p.read_bytes())
        for p in sorted(Path(".").rglob("*"))
        if p.is_file() and p.parent != Path(".") and p.name != "manifest.json"
    }
    result.update(
        wall_s=wall_s, peak_rss_mb=kib / 1024.0, commands=commands, files=files
    )
    if recorder is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(recorder)
        recorder.dump(spec["spans"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
