"""Record goldens for workload commands that have none yet.

Usage (from the root of a source checkout of the commit whose outputs are
the reference): python3 perfbench/record_goldens.py

For each command without an entry in perfbench/goldens.json it records the
exit code, the stdout sha256, the failing check names and the object sizes.
It refuses a command whose stdout differs between two seeds or whose failing
checks are not documented findings.  Existing entries are never rewritten:
a mismatch is a result to report, not a golden to re-record.
"""

import json
import sys
import time

import run

SEEDS = (0, 7)


def main() -> int:
    with open(run.GOLDENS) as fh:
        doc = json.load(fh)
    findings = tuple(doc["documented_findings"])
    commands = doc.setdefault("commands", {})
    deadline = time.monotonic() + 3600
    for workload, command_list in run.WORKLOADS.items():
        for command in command_list:
            key = run.command_key(command)
            if key in commands:
                continue
            plain = [run.spawn("plain", command, seed, deadline)[0] for seed in SEEDS]
            traced = run.spawn("trace", command, SEEDS[0], deadline)[0]
            if None in plain or traced is None:
                sys.exit(f"{key}: the command did not complete")
            fields = [(r["exit"], r["stdout_sha256"], r["failing_checks"]) for r in plain + [traced]]
            if len(set(map(repr, fields))) != 1:
                sys.exit(f"{key}: output depends on the seed or on tracing: {fields}")
            exit_code, sha, failing = fields[0]
            undocumented = [name for name in failing if not name.startswith(findings)]
            if undocumented:
                sys.exit(f"{key}: undocumented failing checks {undocumented}")
            commands[key] = {"exit": exit_code, "stdout_sha256": sha,
                             "failing_checks": failing, "sizes": traced["sizes"]}
            print(f"recorded {key}: exit {exit_code}, failing {failing}")
    with open(run.GOLDENS, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
