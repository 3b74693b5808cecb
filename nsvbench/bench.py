"""nsvlab benchmark: time to a verdict, and its memory, on four workloads.

    python3 nsvbench/bench.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json, the one place the run
length is set; the benchmark runner passes that same value explicitly.

Workloads (see BENCHMARK.json for why each was chosen):

    criticality  nsvlab criticality, Taylor-Green drift; the finite-difference
                 first variation dominates (single-mode field evaluation)
    minimality   nsvlab minimality, Taylor-Green drift; many small per-step
                 pressure and velocity calls, 20 pinned competitors in memory
    spectral     library pipeline on a solved K=8 random drift (144 active
                 modes): RK4 spectral solve, Ito simulation, DPM residual,
                 direct first variation and the deterministic weak residual
    bridge       nsvlab bridge: Philox draws and 8160 Python-level steps,
                 no field or flow code at all

Every repetition runs in a fresh child process (child.py), one at a time.
Untraced (--trace 0), children are started until --seconds have passed, and
the end-to-end metrics are medians over them:

    wall_s       ready -> verdicts produced and checked
    setup_s      spawn -> interpreter up, nsvlab imported, inputs built
    cpu_s        user + system CPU of the child over the wall_s window
    peak_rss_mb  the child's own ru_maxrss
    fail_ratio   failed output checks / checks attempted; a crashed, killed
                 or timed-out child fails every check it should have made.
                 Printed by name; in the JSON line it is failed / attempted,
                 because it is 0 on a clean run.

--trace 1 runs one untraced and one traced child and reports the per-layer
metrics of the traced one (tracing.py), with the tracing overhead as traced
minus untraced wall_s.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; correct means that no
child failed, every exact check passed and no child failed more than a
quarter of its 3-SE statistical verdicts (child.py lists the checks).
Per-child records, stderr, provenance and the spans go under
nsvbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import child  # noqa: E402
from tracing import COMPUTED_METRICS, self_times  # noqa: E402

WORKLOADS = ("criticality", "minimality", "spectral", "bridge")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# a hung child is killed after this long, so one run stays well under 180 s
CHILD_TIMEOUT_S = 60
STDERR_TAIL = 4000


def summarize(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and range of one metric."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values[:1] * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "n": len(values),
    }


def run_child(cmd: list[str], result_path: Path, stderr_path: Path, timeout: float) -> dict:
    """Run one child to completion or timeout; return what it reported."""
    result_path.unlink(missing_ok=True)
    spawn = time.monotonic()
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timed_out = False
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
    record = {
        "cmd": cmd,
        "exit_code": code,
        "timed_out": timed_out,
        "stderr": stderr_path.read_text(errors="replace")[-STDERR_TAIL:],
    }
    if code == 0 and not timed_out:
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = None
        if result is not None:
            record.update(result)
            record["setup_s"] = result["ready"] - spawn
            record["wall_s"] = result["end"] - result["ready"]
    return record


def account(record: dict, nominal: int) -> tuple[int, int, bool]:
    """(attempted, failed, correct) for the checks of one child.

    A child that produced no result (crash, kill, timeout, unexpected exit
    code) fails all `nominal` checks and is not correct; one that made fewer
    checks than nominal fails the missing ones.  Correct means every exact
    check passed and at most child.STATISTICAL_ALLOWANCE of the statistical
    verdicts failed, so a single-seed fluctuation passes and a wrong answer
    does not.
    """
    checks = record.get("checks")
    if checks is None:
        return nominal, nominal, False
    attempted = max(nominal, len(checks))
    failed = attempted - sum(1 for _, ok, _ in checks if ok)
    exact_ok = all(ok for _, ok, kind in checks if kind == child.EXACT)
    statistical = [ok for _, ok, kind in checks if kind == child.STATISTICAL]
    allowed = child.STATISTICAL_ALLOWANCE * len(statistical)
    return attempted, failed, exact_ok and statistical.count(False) <= allowed


def measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full", out_root: Path = OUT
) -> dict:
    """Run one workload's children and reduce them to metrics."""
    out = out_root / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    nominal = child.NOMINAL_CHECKS[workload][size]
    records = []
    start = time.monotonic()
    while True:
        i = len(records)
        traced = trace and i == 1
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--size", size, "--trace", str(int(traced)), "--out", str(out / f"child{i}"),
            "--result", str(out / f"child{i}.json"),
        ]
        record = run_child(cmd, out / f"child{i}.json", out / f"child{i}.stderr", CHILD_TIMEOUT_S)
        record["traced"] = traced
        records.append(record)
        if "checks" not in record:
            break  # a broken program would only fail again
        done = len(records) == 2 if trace else time.monotonic() - start >= seconds
        if done:
            break

    attempted = failed = 0
    correct = True
    for record in records:
        a, f, ok = account(record, nominal)
        attempted, failed, correct = attempted + a, failed + f, correct and ok
    untraced = [r for r in records if not r["traced"] and "checks" in r]
    summary = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "children": len(records),
        "inputs": next((r["inputs"] for r in records if "inputs" in r), None),
        "end_to_end": {
            name: dict(summarize([r[name] for r in untraced]), unit=unit)
            for name, unit in END_TO_END
        } if untraced else {},
    }
    traced_runs = [r for r in records if r["traced"] and "layers" in r]
    if traced_runs and untraced:
        tr = traced_runs[0]
        layers = {k: tuple(v) for k, v in tr["layers"].items()}
        layers["trace.overhead_s"] = (tr["wall_s"] - untraced[0]["wall_s"], "s")
        summary["per_layer"] = layers
        summary["trace_notes"] = tr.get("trace_notes", [])
        summary["span_self_times"] = self_times(tr["spans"])
    for r in records:
        r.pop("spans", None)
        r.pop("layers", None)
    summary["records"] = records
    return summary


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info() -> dict:
    """OpenBLAS build and thread settings, read without threadpoolctl."""
    import ctypes

    import numpy as np

    config = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "name": config.get("name"),
        "version": config.get("version"),
        "configuration": config.get("openblas configuration"),
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }
    with open("/proc/self/maps") as fh:
        lib = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
    if lib:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas_info(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def print_summary(s: dict) -> None:
    ratio = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"== {s['workload']}  seed {s['seed']}  {s['children']} children  inputs {json.dumps(s['inputs'])}")
    for name, m in s["end_to_end"].items():
        print(
            f"   {name:<12} {m['median']:12.4f} {m['unit']:<3} median of {m['n']} untraced"
            f"  (q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, min {m['min']:.4f}, max {m['max']:.4f})"
        )
    print(
        f"   {'fail_ratio':<12} {ratio:12.4f} 1   ({s['failed']} of {s['attempted']} checks failed;"
        f" {'correct' if s['correct'] else 'NOT correct'})"
    )
    if "per_layer" in s:
        print("   per-layer metrics of the traced child (counts and MB marked * are computed from shapes):")
        for name, (value, unit) in sorted(s["per_layer"].items()):
            mark = "*" if name in COMPUTED_METRICS else " "
            print(f"     {name:<36} {value:16.6g} {unit}{mark}")
        print("   span self times of the traced child:")
        table = s["span_self_times"]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {name:<52} {row['self_s']:10.4f} s self  {row['total_s']:10.4f} s total  {row['calls']:8d} calls")
        total = sum(row["self_s"] for row in table.values())
        wall, uncovered = s["per_layer"]["trace.wall_s"][0], s["per_layer"]["trace.uncovered_s"][0]
        print(f"     sum of self times {total:.4f} s + uncovered {uncovered:.4f} s = traced wall_s {wall:.4f} s")
        for note in s["trace_notes"]:
            print(f"   note: {note}")
    for r in s["records"]:
        if "checks" not in r:
            print(f"   child failed: exit {r['exit_code']}, timed out {r['timed_out']}; stderr tail:\n{r['stderr']}")
        else:
            for name, ok, kind in r["checks"]:
                if not ok:
                    print(f"   check failed: {name} ({kind})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a non-negative 64-bit integer")
    if not (ROOT / "src" / "nsvlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no nsvlab checkout at {ROOT} (src/nsvlab and configs/ are required)", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    prov = provenance(args.seed)
    print(f"provenance: {json.dumps(prov)}")
    summaries = [measure(name, args.seed, seconds, bool(args.trace)) for name in names]
    prov["loadavg_after"] = os.getloadavg()
    for s in summaries:
        print_summary(s)
        with open(OUT / s["workload"] / "run.json", "w") as fh:
            json.dump({"provenance": prov, **s}, fh, indent=1)

    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        if args.trace:
            items = s.get("per_layer", {})
        else:
            items = {k: (m["median"], m["unit"]) for k, m in s["end_to_end"].items()}
        for name, (value, unit) in items.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    correct = all(
        s["correct"] and s["end_to_end"] and (not args.trace or "per_layer" in s) for s in summaries
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
