"""moirelines benchmark: three CLI workloads, checked and timed.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (perfbench/worker.py) that
imports moirelines from ./src and calls ``moirelines.cli.main(argv)`` with
stdout captured.  Workloads (BENCHMARK.json and perfbench/README.md say why
each exists):

  classify-3freq  classify at CLI defaults
  zones-3freq     zones over alpha in [0.62, 0.67], 6 angles, 2 shifts, 2 workers
  trace-wide      eval on a 300x300 grid, then trace 100 lines at level 0.1

Inputs come from --seed.  A run covers several input instances, because the
run time of one command changes markedly with the layer shift.
Instance 0 of seed 0 is exactly the README example, and its outputs must
match the SHA-256 digests in perfbench/digests.json.  Every other instance
draws the layer shift and the sweep seed from (seed, instance) and is
checked against the invariants the acceptance tests assert.

--trace 0 runs instances 0, 1, 2, ... until --seconds have passed and
reports the end-to-end metrics as medians: wall_s and peak_rss_mb over the
instances, setup_s over the instances and a few set-up-only processes.
--trace 1 runs instance 0 once untraced and twice traced, zones with one
worker in all three since spans of pool workers are not collected.  It
reports the per-layer metrics, the tracing overhead and whether every work
counter repeated exactly.

Both modes print a summary, the machine and library versions, then one JSON
line: {"correct", "attempted", "failed", "metrics"}.  An operation is a CLI
command or a sweep/refine/verify angle sample.  failed counts those with an
unexpected exit code, an ``error`` verdict or an output that fails its
check, so failed_frac = failed / attempted.

--record-digests re-records perfbench/digests.json from seed 0, instance 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# The README potential: V = cos x + cos y, U = 0.3 cos x', alpha = 0.7, Sum.
CONFIG = """\
[v.lattice]
e1 = 6.283185307179586 0.0
e2 = 0.0 6.283185307179586
[v.terms]
term = 1 0 1.0
term = 0 1 1.0
[u.lattice]
e1 = 6.283185307179586 0.0
e2 = 0.0 6.283185307179586
[u.terms]
term = 1 0 0.3
[transform]
alpha = 0.7
"""
VALUE_BOUND = 2.3  # |V| + |U| for the potential above
QUADRUPLE = [1, 1, -1, 0]
WORKLOADS = ("classify-3freq", "zones-3freq", "trace-wide")
SETUP_SAMPLES = 2
DEADLINE_S = 170.0  # every run ends inside the 180 s limit


def inputs(seed: int, instance: int) -> tuple[str, int]:
    """Config text and sweep seed of one input instance."""
    if seed == 0 and instance == 0:
        return CONFIG, 9
    rng = random.Random(f"{seed}/{instance}")
    sx = rng.uniform(0.0, 2.0 * math.pi)
    sy = rng.uniform(0.0, 2.0 * math.pi)
    return CONFIG + f"shift = {sx!r} {sy!r}\n", rng.randrange(1, 2**31)


def commands(workload: str, sweep_seed: int, workers: int) -> list[list[str]]:
    cfg = ["--config", "pot.cfg"]
    if workload == "classify-3freq":
        return [["classify", *cfg, "--out", "classify"]]
    if workload == "zones-3freq":
        return [[
            "zones", *cfg, "--alpha-start", "0.62", "--alpha-end", "0.67",
            "--alpha-count", "6", "--shifts", "2", "--seed", str(sweep_seed),
            "--workers", str(workers), "--refine-tol", "0.005", "--out", "zones",
        ]]
    return [
        ["eval", *cfg, "--grid", "300,300", "--window=-50,-50,50,50"],
        [
            "trace", *cfg, "--level", "0.1", "--window=-100,-100,100,100",
            "--max-lines", "100", "--format", "csv", "--format", "svg",
            "--format", "json", "--out", "trace",
        ],
    ]


def _digest_key(cmds: list[list[str]]) -> str:
    return " ; ".join(" ".join(argv) for argv in cmds)


class Bench:
    """Runs worker processes for one workload and seed; tallies operations."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.versions: dict = {}
        self._runs = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )

    def _run(self, spec: dict, config: str) -> tuple[dict, Path] | None:
        """Start one worker in a fresh directory; None if it failed."""
        self._runs += 1
        rep = WORK / f"{self.workload}-{self.seed}-{os.getpid()}-{self._runs}"
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        (rep / "pot.cfg").write_text(config, encoding="ascii")
        (rep / "spec.json").write_text(json.dumps({"config": "pot.cfg", **spec}))
        # A session of its own, so a timeout also stops the worker's pool.
        with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "spec.json", "result.json"],
            cwd=rep, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                _, stderr = proc.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                stderr = "worker ran past the run deadline"
        if proc.returncode != 0:
            self.problems.append(f"worker exited {proc.returncode}: {stderr[-800:]}")
            shutil.rmtree(rep, ignore_errors=True)
            return None
        result = json.loads((rep / "result.json").read_text())
        self.versions = result["versions"]
        return result, rep

    def setup_sample(self) -> float | None:
        got = self._run({"setup_only": True}, CONFIG)
        if got is None:
            return None
        shutil.rmtree(got[1], ignore_errors=True)
        return got[0]["setup_s"]

    def instance(self, k: int, workers: int, spans: Path | None = None) -> dict | None:
        """Run and check input instance k; traced when spans is given."""
        config, sweep_seed = inputs(self.seed, k)
        cmds = commands(self.workload, sweep_seed, workers)
        spec = {"commands": cmds, "trace": spans is not None, "spans": str(spans)}
        self.attempted += len(cmds)
        got = self._run(spec, config)
        if got is None:
            self.failed += len(cmds)
            return None
        result, rep = got
        try:
            self._check(rep, result, exact=(self.seed, k) == (0, 0))
        finally:
            shutil.rmtree(rep, ignore_errors=True)
        return result

    # -- correctness -------------------------------------------------------

    def _check(self, rep: Path, result: dict, exact: bool) -> None:
        """Count the failed operations of one instance and note why."""
        cmds = result["commands"]
        bad: list[list[str]] = [[] for _ in cmds]
        for k, c in enumerate(cmds):
            if c["exit"] != 0:
                bad[k].append(f"exit code {c['exit']}: {c['stderr'].strip()[-300:]}")
        if exact:
            expected = json.loads(DIGESTS.read_text()).get(
                _digest_key([c["argv"] for c in cmds])
            )
            if expected is None:
                bad[0].append("no recorded digests for these commands")
            else:
                got = _digests(result)
                for name in sorted(set(expected) | set(got)):
                    if expected.get(name) != got.get(name):
                        k = int(name[3]) if name.startswith("cmd") else len(cmds) - 1
                        bad[k].append(f"digest mismatch: {name}")
        check = {
            "classify-3freq": self._check_classify,
            "zones-3freq": self._check_zones,
            "trace-wide": self._check_trace,
        }[self.workload]
        check(rep, bad, result)
        for k, why in enumerate(bad):
            if why:
                self.failed += 1
                self.problems.extend(f"{cmds[k]['argv'][0]}: {w}" for w in why)

    def _check_classify(self, rep: Path, bad, result) -> None:
        path = rep / "classify" / "classification.json"
        if not path.exists():
            bad[0].append("classification.json missing")
            return
        text = path.read_bytes()
        report = json.loads(text)
        if report.get("status") != "regular" or report.get("quadruple") != QUADRUPLE:
            bad[0].append(f"classified {report.get('status')} {report.get('quadruple')}")
        if (rep / "cmd0.stdout").read_bytes() != text:
            bad[0].append("stdout differs from classification.json")

    def _check_zones(self, rep: Path, bad, result) -> None:
        path = rep / "zones" / "zones.json"
        if not path.exists():
            bad[0].append("zones.json missing")
            return
        data = json.loads(path.read_text())
        samples, zones = data["samples"], data.get("zones", [])
        errors = sum(1 for s in samples if s["verdict"] == "error")
        unverified = sum(
            1 for z in zones if z["quadruple"] != QUADRUPLE or z["verified"] is not True
        )
        # Grid and verify samples are visible in zones.json; refine samples
        # only in a traced pass, through its point-function spans.
        refine = result.get("layers", {}).get("sweep.refine_points", 0) - len(zones)
        self.attempted += len(samples) + len(zones) + max(refine, 0)
        self.failed += errors + unverified
        if errors:
            self.problems.append(f"zones: {errors} samples with verdict error")
        if unverified:
            self.problems.append(f"zones: {unverified} zones not verified as (1,1,-1,0)")
        if not zones:
            bad[0].append("no zones")

    def _check_trace(self, rep: Path, bad, result) -> None:
        rows = (rep / "cmd0.stdout").read_text().splitlines()
        if rows[:1] != ["x,y,f"] or len(rows) != 90001:
            bad[0].append(f"eval printed {len(rows)} lines")
        elif not all(abs(float(r.rsplit(",", 1)[1])) <= VALUE_BOUND for r in rows[1:]):
            bad[0].append("eval value out of range")
        out = rep / "trace"
        try:
            lines = json.loads((out / "lines.json").read_text())
            blocks = (out / "lines.csv").read_text().split("\n\n")
            svg = (out / "lines.svg").read_text()
        except FileNotFoundError as err:
            bad[1].append(f"missing output: {err.filename}")
            return
        counts = [len(b.strip().splitlines()) for b in blocks]
        counts[0] -= 1  # header row
        if not 1 <= len(lines) <= 100 or counts != [ln["n_vertices"] for ln in lines]:
            bad[1].append("lines.csv and lines.json disagree")
        if svg.count("<path ") != len(lines) or not svg.endswith("</svg>\n"):
            bad[1].append("lines.svg does not hold one path per line")


def _digests(result: dict) -> dict:
    got = dict(result["files"])
    for k, c in enumerate(result["commands"]):
        got[f"cmd{k}.stdout"] = c["stdout_sha256"]
    return got


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
    }


def run_untraced(bench: Bench, seconds: float) -> dict:
    bench.setup_sample()  # warm-up: byte-compiles ./src, fills the page cache
    setups = [bench.setup_sample() for _ in range(SETUP_SAMPLES)]
    walls, rss = [], []
    start = time.monotonic()
    k = 0
    while k == 0 or time.monotonic() - start < seconds:
        if time.monotonic() >= bench.deadline:
            bench.problems.append(f"run deadline reached after {k} instances")
            break
        result = bench.instance(k, workers=2)
        k += 1
        if result is None:
            continue
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        setups.append(result["setup_s"])
    setups = [s for s in setups if s is not None]
    if not walls or not setups:
        return {}
    print(f"instance wall_s: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup_s samples: {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def run_traced(bench: Bench) -> dict:
    from tracing import COUNT_METRICS, UNITS

    # One worker throughout: the traced pass collects no pool-worker spans,
    # and the overhead must compare like with like.
    base = bench.instance(0, workers=1)
    passes = []
    for p in (1, 2):
        spans = WORK / f"spans-{bench.workload}-seed{bench.seed}-pass{p}.json"
        result = bench.instance(0, workers=1, spans=spans)
        if result is not None:
            passes.append(result["layers"] | {"wall_s": result["wall_s"]})
    if base is None or len(passes) < 2:
        return {}
    first, second = passes
    mismatched = [m for m in COUNT_METRICS if first[m] != second[m]]
    bench.attempted += 1
    if mismatched:
        bench.failed += 1
        bench.problems.append(f"counters differ between traced passes: {mismatched}")
    metrics = {
        name: first[name] if name in COUNT_METRICS else 0.5 * (first[name] + second[name])
        for name in first
    }
    metrics["bench.trace_overhead_s"] = metrics.pop("wall_s") - base["wall_s"]
    metrics["bench.counter_mismatches"] = len(mismatched)
    return {name: (value, UNITS[name]) for name, value in metrics.items()}


def record_digests() -> int:
    digests = {}
    for workload in WORKLOADS:
        for workers in ((2, 1) if workload == "zones-3freq" else (2,)):
            bench = Bench(workload, 0, time.monotonic() + 600)
            config, sweep_seed = inputs(0, 0)
            cmds = commands(workload, sweep_seed, workers)
            got = bench._run({"commands": cmds}, config)
            if got is None or any(c["exit"] != 0 for c in got[0]["commands"]):
                print(f"{workload}: run failed: {bench.problems}", file=sys.stderr)
                return 1
            shutil.rmtree(got[1], ignore_errors=True)
            digests[_digest_key(cmds)] = _digests(got[0])
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "moirelines" / "cli.py").is_file():
        print(f"error: no moirelines sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    bench = Bench(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    metrics = run_traced(bench) if args.trace else run_untraced(bench, args.seconds)
    if not metrics:
        print("error: no instance completed: " + "; ".join(bench.problems), file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"{'failed_frac':34s} {failed_frac:14.6g} ({bench.failed}/{bench.attempted})")
    for p in bench.problems:
        print(f"problem: {p}")
    print("machine: " + json.dumps({**machine(), **bench.versions}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
