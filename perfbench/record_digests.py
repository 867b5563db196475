"""Record the SHA-256 of every digested output, for every workload variant.

Run once on the code whose outputs define "byte-identical", from the root of
that checkout:

    python3 perfbench/record_digests.py

It writes perfbench/digests.json. A later change must reproduce these bytes;
re-recording is only for a change that means to alter the output format.
"""

import json
import sys
from pathlib import Path

import run
import workloads as wl


def main() -> int:
    root = Path.cwd().resolve()
    runner = run.Runner(root)
    table = {}
    for workload in wl.WORKLOADS:
        work = root / "perfbench" / "_work" / f"record_{workload}"
        for variant in range(wl.N_VARIANTS):
            # Every invocation runs, so every variant is shown to pass its
            # other output checks on the recording code as well.
            wl.write_inputs(workload, variant, work)
            for inv in wl.invocations(workload, variant):
                wl.clear_outputs(inv, work)
                child = runner.run(inv.argv(), work)
                problems = wl.check_outputs(inv, work, child.returncode, child.stdout, None)
                problems = [p for p in problems if not p.startswith("no recorded digest")]
                if problems:
                    print(f"{workload} v{variant} {inv.name}: {problems}; {child.stderr[-300:]}", file=sys.stderr)
                    return 1
                if inv.digest:
                    table[wl.digest_key(workload, variant, inv)] = wl.sha256(work / inv.opt("-o"))
            print(f"{workload} v{variant:02d}: ok", flush=True)
    run.Digests.path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
