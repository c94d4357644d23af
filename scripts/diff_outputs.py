#!/usr/bin/env python3
"""Check that two builds print the same simulated results.

    scripts/diff_outputs.py <parent-build> <change-build>

Runs every bench_* and example_* binary of both build directories at its
defaults, once with PIM_SIM_THREADS=1 and once with 4, and compares the
standard output and exit code. The benches in JSON_BENCHES run once more
at each thread count with --json (and --metrics where they accept it),
and their JSON is compared with every "host_wall" key removed. Values
that time the host rather than the simulation are skipped:
bench_sim_throughput's "Wall (ms)" and "Events/sec" columns and its
wall_seconds and events_per_sec keys.

Prints "identical" or "moved" for each run, with the first lines of the
difference, and exits 1 if anything moved, failed, or exists in only one
of the builds.
"""

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = ("1", "4")
RUN_TIMEOUT_S = 600

# Benches that take --json, with the extra flags their JSON run adds.
JSON_BENCHES = {
    "bench_fault_tolerance": ["--metrics"],
    "bench_fig03_graph_motivation": ["--metrics"],
    "bench_fig04_batch_size": [],
    "bench_fig07_strawman_sweep": ["--metrics"],
    "bench_fig08_contention": ["--metrics"],
    "bench_fig15_microbench": ["--metrics"],
    "bench_fig16_cache_sweep": ["--metrics"],
    "bench_fig17_graph_update": ["--metrics"],
    "bench_fig18_llm_serving": ["--metrics"],
    "bench_hw_overhead": [],
    "bench_metadata_overhead": ["--metrics"],
    "bench_multi_tenant": ["--metrics"],
    "bench_sim_throughput": ["--metrics"],
}

# Host-timed table columns and JSON keys, per binary.
HOST_COLUMNS = {"bench_sim_throughput": ("Wall (ms)", "Events/sec")}
HOST_KEYS = {"bench_sim_throughput": ("wall_seconds", "events_per_sec")}


def binaries(build):
    return {p.name for p in Path(build).iterdir()
            if re.match(r"(bench|example)_", p.name)
            and p.is_file() and os.access(p, os.X_OK)}


def run(build, name, threads, args, cwd):
    env = dict(os.environ, PIM_SIM_THREADS=threads)
    p = subprocess.run([str(Path(build).resolve() / name), *args], cwd=cwd,
                       env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True,
                       timeout=RUN_TIMEOUT_S)
    return p.returncode, p.stdout


def drop_columns(text, columns):
    """Remove @columns from every row of the table whose header names them."""
    out, drop = [], None
    for line in text.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if all(c in cells for c in columns):
            drop = {cells.index(c) for c in columns}
        elif drop is not None and not line.strip():
            drop = None
        if drop is not None and len(cells) > max(drop):
            line = "  ".join(c for i, c in enumerate(cells) if i not in drop)
        out.append(line)
    return "\n".join(out)


def strip_keys(value, keys):
    if isinstance(value, dict):
        return {k: strip_keys(v, keys) for k, v in value.items()
                if k not in keys}
    if isinstance(value, list):
        return [strip_keys(v, keys) for v in value]
    return value


def report(label, before, after):
    """Print the verdict for one run; returns True if it moved."""
    if before == after:
        print(f"identical  {label}")
        return False
    print(f"moved      {label}")
    diff = difflib.unified_diff(before.splitlines(), after.splitlines(),
                                "parent", "change", lineterm="", n=0)
    for line in list(diff)[:20]:
        print(f"    {line}")
    return True


def stdout_of(build, name, threads):
    rc, text = run(build, name, threads, [], cwd=None)
    if name in HOST_COLUMNS:
        text = drop_columns(text, HOST_COLUMNS[name])
    return f"exit {rc}\n{text}"


def json_of(build, name, threads):
    with tempfile.TemporaryDirectory() as tmp:
        rc, text = run(build, name, threads,
                       ["--json=out.json", *JSON_BENCHES[name]], cwd=tmp)
        path = Path(tmp) / "out.json"
        if rc != 0 or not path.exists():
            return f"exit {rc}\n{text}"
        data = json.loads(path.read_text())
    data = strip_keys(data, {"host_wall", *HOST_KEYS.get(name, ())})
    return json.dumps(data, indent=1, sort_keys=True)


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: diff_outputs.py <parent-build> <change-build>")
    parent, change = sys.argv[1:]
    names_p, names_c = binaries(parent), binaries(change)
    moved = 0
    for name in sorted(names_p ^ names_c):
        side = "parent" if name in names_p else "change"
        print(f"moved      {name}: only in the {side} build")
        moved += 1
    for name in sorted(names_p & names_c):
        for threads in THREADS:
            label = f"{name} PIM_SIM_THREADS={threads}"
            moved += report(label, stdout_of(parent, name, threads),
                            stdout_of(change, name, threads))
            if name in JSON_BENCHES:
                moved += report(f"{label} --json",
                                json_of(parent, name, threads),
                                json_of(change, name, threads))
    print(f"{moved} run(s) moved" if moved else "every run identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
