"""Write the output gate's reference digests into perfbench/reference.json.

    python3 perfbench/make_reference.py --seeds 0-99
    python3 perfbench/make_reference.py --seeds 7 --workload sweep-small

Each digest is the hash of one full-size operation of a workload at a seed,
computed with the program under ``src/`` of this checkout. To check a change
against its parent commit on seeds with no stored digest, run this in a
checkout of the parent and copy the file over. Digests are stored with the
platform fingerprint they were made on; ``child.py`` ignores them elsewhere,
because BLAS and SIMD kernels may round differently on another CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import PINNED_ENV, WORKLOADS

# must precede the first NumPy import, here and in the modules below
os.environ.update(PINNED_ENV)

import child  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-99 or 1,5,9")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)

    child.import_program()
    import workloads

    info = child.versions()
    ref = {"fingerprint": info["fingerprint"], "platform": info, "workloads": {}}
    if os.path.exists(child.REFERENCE):
        with open(child.REFERENCE, encoding="ascii") as f:
            old = json.load(f)
        if old.get("fingerprint") == info["fingerprint"]:
            ref["workloads"] = old.get("workloads", {})
    os.makedirs(child.OUT_DIR, exist_ok=True)
    for name in args.workload or WORKLOADS:
        key = workloads.params_digest(workloads.params(name, "full"))
        table = ref["workloads"].get(name, {})
        digests = table.get("digests", {}) if table.get("params") == key else {}
        for seed in args.seeds:
            wl = workloads.build(name, seed, "full", child.OUT_DIR)
            out = wl.call()
            digest, _stats, problems = wl.check(out)
            problems += wl.oracle(out)
            if problems:
                print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            digests[str(seed)] = digest
            print(f"{name} {seed} {digest}", flush=True)
        ref["workloads"][name] = {
            "params": key, "digests": dict(sorted(digests.items(), key=lambda kv: int(kv[0])))}
    with open(child.REFERENCE, "w", encoding="ascii") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
