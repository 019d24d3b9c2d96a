#!/usr/bin/env bash
# Runs the criterion `stl` and `microbench` benches and appends one
# trajectory entry to BENCH_stl.json (papyrus-style records: every value is
# median wall-clock nanoseconds, smaller is better).
#
# The entry also records `speedup`, the plan-cache win on repeated
# same-shape reads (uncached / cached median), which the acceptance bar
# requires to stay >= 1.3x, and `attribution`, the nds-prof critical-path
# time-attribution summary of a traced fig9 panel-(a) run (per system, the
# modeled nanoseconds each pipeline stage contributed to end-to-end
# latency — the stage spans partition total latency exactly).
#
# Each bench bin self-reports a `commands_per_wall_second=` line; those
# wall-clock rates land as per-bin trajectory records, and the updated
# trajectory is rendered as a static regression dashboard
# (`<output>.dashboard.html`) via `nds-prof dashboard`.
#
# Usage: scripts/bench_snapshot.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_stl.json}"
raw="$(mktemp)"
trace="$(mktemp)"
prof="$(mktemp)"
fig9_out="$(mktemp)"
tenants_out="$(mktemp)"
cluster_out="$(mktemp)"
trap 'rm -f "$raw" "$trace" "$prof" "$fig9_out" "$tenants_out" "$cluster_out"' EXIT

cargo bench -p nds-bench --bench stl --bench microbench 2>/dev/null \
    | grep '^bench: ' | tee "$raw"

echo "== fig9 time attribution (nds-prof over a traced fig9 a run)"
cargo build --quiet --release -p nds-bench -p nds-prof --bin fig9 --bin nds-prof
./target/release/fig9 a --trace "$trace" > "$fig9_out"
./target/release/nds-prof "$trace" > "$prof"

echo "== multi-tenant saturation (tenants, 16 mixed open/closed)"
cargo build --quiet --release -p nds-bench --bin tenants
./target/release/tenants --seed 42 > "$tenants_out"

echo "== cluster degraded-vs-healthy (4 devices, k=2, device-kill plan)"
cargo build --quiet --release -p nds-bench --bin cluster
./target/release/cluster --seed 7 > "$cluster_out"

RAW="$raw" PROF="$prof" FIG9="$fig9_out" TENANTS="$tenants_out" CLUSTER="$cluster_out" \
    OUT="$out" python3 - <<'PY'
import json, os, subprocess, time

def fail(msg):
    raise SystemExit(f"FAIL: {msg}")

records = []
with open(os.environ["RAW"]) as f:
    for line in f:
        # bench: <group>/<name> median_ns <N>
        _, name, _, ns = line.split()
        records.append({"name": name, "value": int(ns), "unit": "ns",
                        "direction": "smaller-is-better"})
if not records:
    fail("criterion benches emitted no 'bench:' records — harness broken?")

by_name = {r["name"]: r["value"] for r in records}
# Per-layer benches the trajectory must keep recording.
for required in ("flash_timing/schedule_1024_striped_reads",
                 "interconnect/wfq_enqueue_pop", "tenants/engine_run_16x128"):
    if required not in by_name:
        fail(f"criterion benches lost the {required} record")
speedup = {}
for cached, uncached in [("stl/read_tile_256", "stl/read_tile_256_uncached"),
                         ("stl/read_column_64", "stl/read_column_64_uncached")]:
    if cached in by_name and uncached in by_name and by_name[cached] > 0:
        speedup[cached] = round(by_name[uncached] / by_name[cached], 3)

# nds-prof report: "## <system>" headers, then per-stage attribution lines
# of the form "  <stage> <ns> ns <pct>%".
attribution = {}
system = None
with open(os.environ["PROF"]) as f:
    for line in f:
        if line.startswith("## "):
            system = line[3:].strip()
            if system != "cross-system comparison":
                attribution[system] = {}
            else:
                system = None
        elif system and line.startswith("  ") and line.rstrip().endswith("%"):
            parts = line.split()
            if len(parts) == 4 and parts[2] == "ns":
                attribution[system][parts[0]] = int(parts[1])

# tenants bench summary line:
#   "makespan <N> ns, <N> bytes moved, <F> MiB/s aggregate, tenant jain <F>"
multi_tenant = {}
with open(os.environ["TENANTS"]) as f:
    for line in f:
        if line.startswith("makespan ") and "tenant jain" in line:
            parts = line.split()
            multi_tenant = {
                "makespan_ns": int(parts[1]),
                "bytes": int(parts[3]),
                "throughput_mib_s": float(parts[6]),
                "jain": float(parts[-1]),
            }

# cluster bench summary lines:
#   "healthy: ops=<N> bytes=<N> io_ns=<N> mib_s=<F>"
#   "degraded: ops=<N> bytes=<N> io_ns=<N> mib_s=<F> rereplicated_bytes=<N>"
cluster = {}
with open(os.environ["CLUSTER"]) as f:
    for line in f:
        for run in ("healthy", "degraded"):
            if line.startswith(f"{run}: "):
                fields = dict(p.split("=", 1) for p in line.split()[1:])
                cluster[run] = {
                    "ops": int(fields["ops"]),
                    "bytes": int(fields["bytes"]),
                    "io_ns": int(fields["io_ns"]),
                    "throughput_mib_s": float(fields["mib_s"]),
                }
                if "rereplicated_bytes" in fields:
                    cluster[run]["rereplicated_bytes"] = int(fields["rereplicated_bytes"])
if set(cluster) != {"healthy", "degraded"}:
    fail(f"cluster bench summary incomplete: found {sorted(cluster)}")
if cluster["degraded"]["bytes"] != cluster["healthy"]["bytes"]:
    fail("cluster degraded run moved different app bytes than healthy — "
         "the fault plan changed the acknowledged-write set")

# Wall-clock command rates self-reported by each bench bin on its
# parseable "commands_per_wall_second=<rate> commands=<n>" summary line:
# coarse end-to-end simulator-throughput series, larger is better.
for bin_name, env in [("fig9", "FIG9"), ("tenants", "TENANTS"),
                      ("cluster", "CLUSTER")]:
    with open(os.environ[env]) as f:
        for line in f:
            if line.startswith("commands_per_wall_second="):
                fields = dict(p.split("=", 1) for p in line.split())
                records.append({
                    "name": f"{bin_name}/commands_per_wall_second",
                    "value": int(fields["commands_per_wall_second"]),
                    "unit": "ops/s", "direction": "larger-is-better"})
                break
        else:
            fail(f"{bin_name} bench lost its commands_per_wall_second line")

def validate_trajectory(trajectory):
    if not isinstance(trajectory, list) or not trajectory:
        fail("trajectory must be a non-empty list")
    for i, e in enumerate(trajectory):
        if not isinstance(e, dict):
            fail(f"trajectory[{i}] is not an object")
        recs = e.get("records")
        if not isinstance(recs, list) or not recs:
            fail(f"trajectory[{i}].records missing or empty")
        for r in recs:
            if not (isinstance(r, dict)
                    and isinstance(r.get("name"), str)
                    and isinstance(r.get("value"), int)
                    and isinstance(r.get("unit"), str)
                    and r.get("direction") in ("smaller-is-better",
                                               "larger-is-better")):
                fail(f"trajectory[{i}] has a malformed record: {r!r}")

commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                        capture_output=True, text=True).stdout.strip() or None
entry = {
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "commit": commit,
    "records": records,
    "speedup": speedup,
    "attribution": attribution,
    "multi_tenant": multi_tenant,
    "cluster": cluster,
}

out = os.environ["OUT"]
trajectory = []
if os.path.exists(out):
    # Fail loudly on a malformed history rather than silently replacing it.
    try:
        with open(out) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        fail(f"{out} is not valid JSON ({e}); refusing to clobber it")
    if not isinstance(doc, dict) or doc.get("bench") != "stl":
        fail(f"{out} is not a BENCH_stl document (bench={doc.get('bench')!r})")
    trajectory = doc.get("trajectory", [])
    validate_trajectory(trajectory)
trajectory.append(entry)
validate_trajectory(trajectory)
with open(out, "w") as f:
    json.dump({"bench": "stl", "trajectory": trajectory}, f, indent=2)
    f.write("\n")

worst = min(speedup.values()) if speedup else 0.0
print(f"wrote {out}: {len(records)} records, "
      f"repeated same-shape read speedup {speedup} (floor 1.3x)")
for system, stages in attribution.items():
    total = sum(stages.values())
    shares = ", ".join(f"{k} {v * 100 // total}%" for k, v in stages.items())
    print(f"  attribution {system}: {shares}")
if multi_tenant:
    print(f"  multi-tenant: {multi_tenant['throughput_mib_s']} MiB/s aggregate, "
          f"jain {multi_tenant['jain']}")
print(f"  cluster: healthy {cluster['healthy']['throughput_mib_s']} MiB/s vs "
      f"degraded {cluster['degraded']['throughput_mib_s']} MiB/s "
      f"({cluster['degraded'].get('rereplicated_bytes', 0)} bytes re-replicated)")
if worst < 1.3:
    raise SystemExit(f"FAIL: plan-cache speedup {worst} < 1.3x")
if multi_tenant and multi_tenant["jain"] < 0.9:
    raise SystemExit(f"FAIL: multi-tenant jain {multi_tenant['jain']} < 0.9")
PY

# Per-commit regression dashboard: render the updated trajectory (every
# record series, including the commands_per_wall_second trend) as a static
# HTML page next to the JSON.
dashboard="${out%.json}.dashboard.html"
./target/release/nds-prof dashboard "$out" "$dashboard"
echo "trajectory dashboard written to $dashboard"
