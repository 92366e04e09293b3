"""End-to-end and per-layer benchmark of the motive-ring CLI.

Usage:
  python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Every command runs through ``motive_ring.cli.run`` in its own
fresh interpreter (``perfbench/child.py``), one at a time from this single
process: a closed loop with one client, so each command starts cold exactly
as a CLI user pays for it.  ``--seed`` is forwarded to every command of the
first pass and of the counting pass; pass r forwards ``seed + 1000 r``
(see ``timed_passes``).

Each command's exit code, stdout sha256 and failing check names must equal
the goldens in ``perfbench/goldens.json``; a command that differs, crashes or
times out counts as failed.

``--trace 0`` makes untraced rounds for about ``--seconds``, at least
MIN_ROUNDS of them: round 0 runs every command, later rounds rerun the
commands that took at least REPEAT_SHARE of round 0 (see ``sampled_rounds``).
Each command's cli.run time is the median of its samples; the end-to-end
metrics are built from these per-command medians.  ``--trace 1`` alternates
untraced and traced passes for about ``--seconds``, then makes one counting
pass, and reports the per-layer metrics; the raw per-span table goes to
``.perfbench/``.  ``--workload all`` runs every workload both ways.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GOLDENS = os.path.join(HERE, "goldens.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 12       # bare set-ups per run, after one warm-up probe
PASS_SEED_STRIDE = 1000  # round r of a run forwards seed + r * stride
MIN_ROUNDS = 3          # an untraced run makes at least this many rounds
REPEAT_SHARE = 0.04     # commands under this share of round 0 run once a run
HARD_LIMIT_S = 165.0    # stop starting work this long after the start


def _idempotents_sweep():
    commands = []
    for group in ("alt:4", "sym:4", "alt:5", "sym:5"):
        for coeff in ("Z", "Zp:2", "Zp:3"):
            commands.append(["cbr-idempotents", "--group", group, "--coeff", coeff])
    for group in ("sym:4", "alt:5", "sym:5"):
        for p in ("2", "3"):
            commands.append(["p-local-report", "--group", group, "--prime", p])
    for group in ("sym:4", "alt:5", "sym:5"):
        for p in ("2", "3", "5"):
            commands.append(["blocks", "--group", group, "--prime", p])
    for group in ("alt:5", "sym:5"):
        commands.append(["motivic-report", "--group", group, "--coeff", "Z"])
    return commands


WORKLOADS = {
    "mackey-small": [
        ["mackey-check", "--group", "cyclic:4"],
        ["mackey-check", "--group", "gens:(1 2)(3 4);(1 3)(2 4)"],
        ["mackey-check", "--group", "sym:3"],
        ["verify-all", "--group", "sym:3"],
    ],
    # verify-all on S5 is left out: its sampled checks make one run cost
    # from 6.5 to 12 s depending on the seed, so the few draws that fit in a
    # run cannot give a steady median.  One A5 draw costs 1.2-1.7 s.
    "verify-large": [
        ["verify-all", "--group", "alt:5"],
    ],
    "idempotents-sweep": _idempotents_sweep(),
}


def command_key(command) -> str:
    return " ".join(command)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def spawn(mode: str, command, seed, deadline: float):
    """Run one child; returns (its report or None, set-up seconds or None)."""
    argv = [sys.executable, "-I", CHILD, mode, SRC]
    if command is not None:
        argv += ["--", *command, "--seed", str(seed)]
    start = time.monotonic()
    if start >= deadline:
        return None, None
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=deadline - start)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    report = json.loads(lines[-1])
    return report, report["ready"] - start


def setup_probes(deadline: float) -> list[float]:
    """One warm-up and SETUP_PROBES timed imports of motive_ring.cli."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        report, setup = spawn("setup", None, None, deadline)
        if report is None:
            raise BenchError(f"cannot import motive_ring.cli from {SRC}")
        if i:
            samples.append(setup)
    return samples


def passes_gate(report, golden) -> bool:
    return (
        report is not None
        and report["exit"] == golden["exit"]
        and report["stdout_sha256"] == golden["stdout_sha256"]
        and report["failing_checks"] == golden["failing_checks"]
    )


def run_pass(mode, commands, seed, goldens, deadline):
    """One pass over the command list in fresh interpreters."""
    out = {"run_s": [], "setup_s": [], "maxrss_kb": [], "failed": [], "reports": []}
    for command in commands:
        key = command_key(command)
        report, setup = spawn(mode, command, seed, deadline)
        out["reports"].append((key, report))
        if not passes_gate(report, goldens[key]):
            out["failed"].append(key)
        if report is not None:
            out["run_s"].append(report["run_s"])
            out["setup_s"].append(setup)
            out["maxrss_kb"].append(report["maxrss_kb"])
    return out


def timed_passes(modes, commands, seed, seconds, goldens, start, deadline):
    """Rounds of passes (one pass per mode) until `seconds` have passed.

    The round in flight is finished; a round starts only while the hard
    deadline is further away than the last round took.  Round r forwards
    seed + r * PASS_SEED_STRIDE: the sampled checks on A5 and S5 cost from
    13M to 30M Cayley-table products depending on the seed, so each round
    draws its own sample and the median across passes is not one draw
    repeated.  The same --seed always gives the same sequence of samples.
    """
    rounds = []
    while True:
        began = time.monotonic()
        pass_seed = seed + len(rounds) * PASS_SEED_STRIDE
        rounds.append([run_pass(m, commands, pass_seed, goldens, deadline) for m in modes])
        now = time.monotonic()
        if now - start >= seconds or now + (now - began) > deadline:
            return rounds


def sampled_rounds(commands, seed, seconds, goldens, start, deadline):
    """Untraced rounds until `seconds` have passed and MIN_ROUNDS are made.

    Round 0 runs every command.  Later rounds rerun only the commands that
    took at least REPEAT_SHARE of round 0's total: a light command adds
    little to the spread of the total, but its interpreter start-up costs as
    much as a heavy command's, so running it once leaves time for more
    samples of the commands that dominate wall_s and slowest_cmd_s.  A round
    starts only while the hard deadline is further away than the last round
    took; round r forwards seed + r * PASS_SEED_STRIDE, as in timed_passes.
    """
    rounds = []
    todo = commands
    while True:
        began = time.monotonic()
        pass_seed = seed + len(rounds) * PASS_SEED_STRIDE
        rounds.append(run_pass("plain", todo, pass_seed, goldens, deadline))
        if len(rounds) == 1:
            total = sum(rounds[0]["run_s"])
            todo = [c for c, (_, r) in zip(commands, rounds[0]["reports"])
                    if r is not None and r["run_s"] >= REPEAT_SHARE * total]
        now = time.monotonic()
        enough = len(rounds) >= MIN_ROUNDS and now - start >= seconds
        if not todo or enough or now + (now - began) > deadline:
            return rounds


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds, probes):
    """End-to-end figures from each command's median over its samples."""
    samples = {}
    for p in rounds:
        for key, r in p["reports"]:
            if r is not None:
                samples.setdefault(key, []).append(r)
    run_s = {k: _median([r["run_s"] for r in v]) for k, v in samples.items()}
    rss_mb = {k: _median([r["maxrss_kb"] for r in v]) / 1024 for k, v in samples.items()}
    slowest = max(run_s, key=run_s.get, default=None)
    heaviest = max(rss_mb, key=rss_mb.get, default=None)
    counts = sorted(len(v) for v in samples.values()) or [0]
    setups = probes + [s for p in rounds for s in p["setup_s"]]
    return {
        "setup_s": (_median(setups), "s", f"median of {len(setups)}"),
        "wall_s": (sum(run_s.values()), "s",
                   f"sum of {len(run_s)} per-command medians of {counts[0]}-{counts[-1]}"),
        "slowest_cmd_s": (run_s.get(slowest, 0.0), "s",
                          f"median of {len(samples.get(slowest, []))}: {slowest}"),
        "peak_rss_mb": (rss_mb.get(heaviest, 0.0), "MB",
                        f"median of {len(samples.get(heaviest, []))}: {heaviest}"),
    }


def per_layer(plain, traced, counted):
    """Per-layer figures: times are medians across traced passes; counts and
    sizes come from one pass (they repeat exactly for a fixed seed)."""
    from layers import CATEGORIES, LAYERS, SIZE_NAMES

    def median_over(group, key):
        return _median([sum(r["trace"][group][key] for _, r in p["reports"] if r is not None)
                        for p in traced]), "s", f"median of {len(traced)}"

    first = traced[0]
    reports = [r for _, r in first["reports"] if r is not None]
    calls = {}
    for r in reports:
        for name, (n, _, _) in r["trace"]["spans"].items():
            calls[name] = calls.get(name, 0) + n
    counts = {}
    for _, r in counted["reports"]:
        for name, n in (r or {}).get("count", {}).items():
            counts[name] = counts.get(name, 0) + n
    sizes = {name: max((r["sizes"][name] for r in reports), default=0) for name in SIZE_NAMES}

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = _median([sum(p["run_s"]) for p in traced])
    plain_wall = _median([sum(p["run_s"]) for p in plain])
    linalg_calls = sum(n for name, n in calls.items()
                       if name.startswith("linalg.") or name == "mackey.span_rank")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = median_over("layer_self_s", layer)
    for category in CATEGORIES:
        m[f"{category}_s"] = median_over("category_s", category)
    m.update({
        "mackey.compose_requests": (counts.get("mackey.compose_pairs", 0), "count"),
        "mackey.compose_useful_ratio": (ratio(counts.get("mackey.compose_pairs_distinct", 0),
                                              counts.get("mackey.compose_pairs", 0)), "ratio"),
        "mackey.spans": (sizes["spans"], "count"),
        "mackey.omega_points": (sizes["omega_points"], "count"),
        "mackey.hecke_dim": (sizes["hecke_dim"], "count"),
        "linalg.calls": (linalg_calls, "count"),
        "scalars.is_zero_calls": (counts.get("scalars.is_zero_calls", 0), "count"),
        "scalars.arith_calls": (counts.get("scalars.arith_calls", 0), "count"),
        "groups.mul_calls": (counts.get("groups.mul_calls", 0), "count"),
        "groups.closure_calls": (counts.get("groups.closure_calls", 0), "count"),
        "groups.order": (sizes["group_order"], "count"),
        "subgroups.classes": (sizes["subgroup_classes"], "count"),
        "subgroups.subgroups": (sizes["subgroups"], "count"),
        "crossed.product_requests": (counts.get("crossed.product_pairs", 0), "count"),
        "crossed.product_useful_ratio": (ratio(counts.get("crossed.product_pairs_distinct", 0),
                                               counts.get("crossed.product_pairs", 0)), "ratio"),
        "crossed.pairs": (sizes["crossed_pairs"], "count"),
        "center.multiply_calls": (calls.get("center.CenterAlgebra.multiply", 0), "count"),
        "burnside.multiply_calls": (calls.get("burnside.BurnsideRing.multiply", 0), "count"),
        "verify.checks": (sum(r["checks"] for r in reports), "count"),
        "verify.failed_checks": (sum(len(r["failing_checks"] or []) for r in reports), "count"),
        "trace.overhead_frac": (ratio(traced_wall, plain_wall) - 1.0 if plain_wall else 0.0, "ratio"),
    })
    return m


def measure(workload, seed, seconds, trace, goldens):
    """Run one workload; returns (metrics, attempted, failed, timed passes)."""
    commands = WORKLOADS[workload]
    unrecorded = [command_key(c) for c in commands if command_key(c) not in goldens]
    if unrecorded:
        raise BenchError(f"no goldens recorded for: {'; '.join(unrecorded)}")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    probes = setup_probes(deadline)
    if not trace:
        passes = sampled_rounds(commands, seed, seconds, goldens, start, deadline)
        metrics = end_to_end(passes, probes)
        timed = len(passes)
    else:
        rounds = timed_passes(["plain", "trace"], commands, seed, seconds, goldens, start, deadline)
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        counted = run_pass("count", commands, seed, goldens, deadline)
        passes = plain + traced + [counted]
        metrics = per_layer(plain, traced, counted)
        timed = len(traced)
        check_sizes(traced[0], goldens)
        write_trace(workload, seed, traced, counted)
    attempted = sum(len(p["reports"]) for p in passes)
    failed = [key for p in passes for key in p["failed"]]
    missing = sorted({name for p in passes for _, r in p["reports"] if r for name in r.get("missing", [])})
    if missing:
        print(f"note: entry points not found, not instrumented: {', '.join(missing)}")
    return metrics, attempted, failed, timed


def check_sizes(traced_pass, goldens):
    """Object sizes repeat exactly; report any that differ from the goldens."""
    for key, report in traced_pass["reports"]:
        recorded = goldens[key].get("sizes")
        if report is not None and recorded is not None and report["sizes"] != recorded:
            print(f"note: sizes of '{key}' are {report['sizes']}, recorded {recorded}")


def write_trace(workload, seed, traced, counted):
    """Per-command span tables (calls, self s, inclusive s) and counts."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "passes": []}
    for p in traced:
        doc["passes"].append({key: r and {"run_s": r["run_s"], "spans": r["trace"]["spans"]}
                              for key, r in p["reports"]})
    doc["counts"] = {key: r and r["count"] for key, r in counted["reports"]}
    with open(os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def print_report(workload, seed, trace, metrics, attempted, failed, timed):
    kind = "per-layer (traced run)" if trace else "end-to-end (untraced)"
    print(f"== {workload}  seed {seed}  {kind}  rounds {timed}")
    for name, (value, unit, *samples) in metrics.items():
        note = f"  ({samples[0]})" if samples else ""
        print(f"  {name:32s} {value:>16.6g} {unit}{note}")
    print(f"  {'fail_frac':32s} {len(failed) / attempted:>16.6g} ratio"
          f"  ({len(failed)} of {attempted} commands failed the golden gate)")
    for key in sorted(set(failed)):
        print(f"  FAILED golden gate: {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        if not os.path.isdir(os.path.join(SRC, "motive_ring")):
            raise BenchError(f"no motive_ring package under {SRC}; run from a source checkout")
        with open(GOLDENS) as fh:
            goldens = json.load(fh)["commands"]
        if args.workload == "all":
            jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        else:
            jobs = [(args.workload, args.trace)]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload, trace in jobs:
            metrics, attempted, failed, timed = measure(workload, args.seed, args.seconds, trace, goldens)
            print_report(workload, args.seed, trace, metrics, attempted, failed, timed)
            prefix = f"{workload}/" if args.workload == "all" else ""
            result["attempted"] += attempted
            result["failed"] += len(failed)
            result["correct"] = result["correct"] and not failed
            for name, (value, unit, *_) in metrics.items():
                result["metrics"][prefix + name] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
