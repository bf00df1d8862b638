"""Write benchmark/golden.json: the exit code, tables and verdicts every
job must produce, computed once from the canonical bases.

    python3 benchmark/golden.py        (from the root of a checkout)

Every compared value is invariant under the seeded changes of basis, so
these hold for every seed.  Regenerate only when the job lists change,
and only from a commit whose outputs are trusted.
"""

import json
import os
import shutil
import sys

import gen
import run


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, ".bench_work", "golden")
    runner = run.Runner(root)
    golden = {}
    try:
        for workload in sorted(gen.WORKLOADS):
            variants = gen.generate(workload, None, os.path.join(workdir, "inputs", workload))
            runner.check_inputs(variants)
            golden[workload] = {}
            for jid, job in run.job_list(workload, variants[0], workdir):
                res = runner.worker(dict(job, trace=False))
                if "error" in res:
                    print(f"error: {workload} {jid}: {res['error']}", file=sys.stderr)
                    return 1
                golden[workload][jid] = json.loads(run.canonical(res))
                print(f"{workload:16s} {jid:32s} {res['wall_s']:8.3f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
