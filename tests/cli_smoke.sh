#!/bin/sh
# End-to-end smoke test of sns-cli, sns_lint, and sns-serve: train a
# fast model on the smoke dataset (and check that --ranks=1 and
# --ranks=2 save the same model with lint-clean rank-shard
# checkpoints), then predict / synthesize / sample / dot both an SNL
# and a Verilog design with it; lint a clean and a broken design and
# check the exit codes; finally boot an sns-serve
# daemon on a temp socket and check remote-predict matches the local
# report, STATS counts the traffic, an OPEN/UPDATE/CLOSE session round
# trip byte-matches the stateless pass, and SIGTERM drains to exit 0,
# also when it arrives the moment the daemon reports "listening".
# Then a 2-worker sns-router cluster: routed predictions byte-match
# the single-process pass, --stats-json renders the merged cluster
# report, a rolling promote walks both workers canary-verified, and a
# deliberately corrupted candidate aborts leaving the old model live.
# Any unexpected exit or missing output fails.
set -e

CLI="$1"
LINT="$2"
SERVE="$3"
ROUTER="$4"
FIXTURES="$(dirname "$0")/fixtures"
WORK="$(mktemp -d)"
SERVE_PID=""
W0_PID=""
W1_PID=""
ROUTER_PID=""
trap 'kill "$SERVE_PID" "$W0_PID" "$W1_PID" "$ROUTER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

cat > "$WORK/fir.snl" <<'EOF'
design fir2
input  x 16
node   p0 mul 32 x c0
node   p1 mul 32 x c1
reg    c0 16
reg    c1 16
reg    z0 32 p0
node   s1 add 32 p1 z0
reg    z1 32 s1
output y  32 z1
EOF

cat > "$WORK/mac.v" <<'EOF'
module mac(input clk, input [7:0] a, input [7:0] b, output [15:0] q);
  reg [15:0] acc;
  always @(posedge clk) acc <= acc + a * b;
  assign q = acc;
endmodule
EOF

"$CLI" train --out="$WORK/model" --dataset=smoke --fast --seed=3
test -f "$WORK/model/circuitformer.bin"
test -f "$WORK/model/predictor.meta"

# One training flow at every rank count: --ranks=1 and --ranks=2 save
# the same model bit for bit, and every checkpoint either run writes
# is a rank shard ckpt-NNNNNN-rRRofWW.ckpt that lints clean.
for R in 1 2; do
    "$CLI" train --out="$WORK/model_r$R" --dataset=smoke --fast --seed=3 \
        --ranks=$R --checkpoint-dir="$WORK/ck_r$R"
done
cmp "$WORK/model_r1/circuitformer.bin" "$WORK/model_r2/circuitformer.bin"
cmp "$WORK/model_r1/plan.snsp" "$WORK/model_r2/plan.snsp"
SHARDS=0
for F in "$WORK"/ck_r1/* "$WORK"/ck_r2/*; do
    case "$(basename "$F")" in
        ckpt-*-r*of*.ckpt) ;;
        *) echo "not a rank shard: $F" >&2; exit 1 ;;
    esac
    "$LINT" "$F" > /dev/null
    SHARDS=$((SHARDS + 1))
done
# Three kept epochs: one shard each at --ranks=1, two at --ranks=2.
[ "$SHARDS" -eq 9 ] || { echo "expected 9 shards, found $SHARDS" >&2; exit 1; }

"$CLI" predict --model="$WORK/model" "$WORK/fir.snl" "$WORK/mac.v" \
    | grep -q "critical path"

# Batched prediction must be identical with and without --threads, and
# --json must emit one record per design.
"$CLI" predict --model="$WORK/model" "$WORK/fir.snl" "$WORK/mac.v" \
    > "$WORK/pred_1t.out"
"$CLI" predict --model="$WORK/model" --threads=4 "$WORK/fir.snl" \
    "$WORK/mac.v" > "$WORK/pred_4t.out"
# Strip the timing summary line (wall clock differs run to run).
grep -v "predicted in" "$WORK/pred_1t.out" > "$WORK/pred_1t.body"
grep -v "predicted in" "$WORK/pred_4t.out" > "$WORK/pred_4t.body"
diff "$WORK/pred_1t.body" "$WORK/pred_4t.body"

"$CLI" predict --model="$WORK/model" --json "$WORK/fir.snl" "$WORK/mac.v" \
    > "$WORK/pred.json"
grep -q '"design": "fir2"' "$WORK/pred.json"
grep -q '"design": "mac"' "$WORK/pred.json"
grep -q '"timing_ps"' "$WORK/pred.json"
"$CLI" synth "$WORK/fir.snl" "$WORK/mac.v" | grep -q "gates"
"$CLI" paths "$WORK/mac.v" --k=1 | grep -q "complete circuit paths"
"$CLI" dot "$WORK/fir.snl" | grep -q "digraph"

# sns_lint: clean designs exit 0, corrupted fixtures exit 1 with the
# right rule id in the output.
"$LINT" --self-check "$WORK/fir.snl" "$WORK/mac.v" | grep -q "0 error"

if "$LINT" "$FIXTURES/cycle.snl" > "$WORK/lint.out"; then
    echo "sns_lint missed the combinational cycle" >&2
    exit 1
fi
grep -q "G-CYCLE" "$WORK/lint.out"

if "$LINT" "$FIXTURES/multi_driver.snl" "$FIXTURES/oov_token.paths" \
        > "$WORK/lint.out"; then
    echo "sns_lint missed multi-driver / out-of-vocab" >&2
    exit 1
fi
grep -q "G-MULTIDRIVER" "$WORK/lint.out"
grep -q "P-OOV" "$WORK/lint.out"

if "$LINT" "$FIXTURES/dangling.snl" "$FIXTURES/nan_label.paths" \
        > "$WORK/lint.out"; then
    echo "sns_lint missed dangling net / NaN label" >&2
    exit 1
fi
grep -q "G-DANGLING" "$WORK/lint.out"
grep -q "D-LABEL-NAN" "$WORK/lint.out"

# Arithmetic narrowing is warning-severity: clean exit by default,
# nonzero under --werror.
"$LINT" "$FIXTURES/width_mismatch.snl" > "$WORK/lint.out"
if "$LINT" --werror "$FIXTURES/width_mismatch.snl" > "$WORK/lint.out"; then
    echo "sns_lint --werror missed the width mismatch" >&2
    exit 1
fi
grep -q "G-WIDTH" "$WORK/lint.out"

# The sns_lint exit-status contract: 1 for rule violations, 2 for
# usage errors and unreadable inputs, and each dirty file's verdict
# line ends with its sorted rule-id summary.
STATUS=0; "$LINT" "$FIXTURES/cycle.snl" > "$WORK/lint.out" || STATUS=$?
[ "$STATUS" -eq 1 ] || { echo "rule violation must exit 1, got $STATUS" >&2; exit 1; }
grep -q "\[G-CYCLE\]" "$WORK/lint.out"
STATUS=0; "$LINT" > /dev/null 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "usage error must exit 2, got $STATUS" >&2; exit 1; }
STATUS=0; "$LINT" "$WORK/no_such_file.snsp" > /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "missing file must exit 2, got $STATUS" >&2; exit 1; }

# Execution plans: the model directory ships a verified plan.snsp that
# lints clean, --notes surfaces the arena/zero-allocation proof, and
# every corrupted fixture is rejected with its P-* rule id.
"$LINT" "$WORK/model/plan.snsp" | grep -q "clean"
"$LINT" --notes "$WORK/model/plan.snsp" \
    | grep -q "zero per-batch heap allocations"
STATUS=0; "$LINT" "$FIXTURES/plan_bad_magic.snsp" \
    "$FIXTURES/plan_truncated.snsp" "$FIXTURES/plan_dangling_buffer.snsp" \
    "$FIXTURES/plan_shape_mismatch.snsp" "$FIXTURES/plan_hash_flip.snsp" \
    "$FIXTURES/plan_bad_scales.snsp" \
    > "$WORK/lint.out" || STATUS=$?
[ "$STATUS" -eq 1 ] || { echo "corrupt plans must exit 1, got $STATUS" >&2; exit 1; }
grep -q "\[P-MAGIC\]" "$WORK/lint.out"
grep -q "\[P-TRUNCATED\]" "$WORK/lint.out"
grep -q "\[P-BUFFER" "$WORK/lint.out"
grep -q "\[P-SHAPE\]" "$WORK/lint.out"
grep -q "\[P-HASH\]" "$WORK/lint.out"
grep -q "\[P-QUANT-SCALE\]" "$WORK/lint.out"

# sns-cli plan: re-trace, analyze, and dump the bound plan.
"$CLI" plan --model="$WORK/model" | grep -q "^plan: "
"$CLI" plan --model="$WORK/model" --dump | grep -q "gemm"

# The quantized tier (docs/quantization.md): calibrate the model in
# place, the saved plan_int8.snsp lints clean, an int8 predict runs
# and genuinely differs from fp64, and an int8 request against a
# model with no scales is a clean error.
"$CLI" quantize --model="$WORK/model" "$WORK/fir.snl" \
    | grep -q "quantized plan saved"
"$LINT" "$WORK/model/plan_int8.snsp" | grep -q "clean"
"$CLI" predict --model="$WORK/model" --precision=int8 "$WORK/fir.snl" \
    | grep -v "predicted in" > "$WORK/pred_int8.body"
"$CLI" predict --model="$WORK/model" "$WORK/fir.snl" \
    | grep -v "predicted in" > "$WORK/pred_fp64.body"
if diff -q "$WORK/pred_int8.body" "$WORK/pred_fp64.body" > /dev/null; then
    echo "int8 predictions identical to fp64 — tier not active?" >&2
    exit 1
fi
rm "$WORK/model/plan_int8.snsp"
if "$CLI" predict --model="$WORK/model" --precision=int8 \
        "$WORK/fir.snl" > /dev/null 2> "$WORK/int8.err"; then
    echo "int8 predict without scales must fail" >&2
    exit 1
fi
grep -q "int8" "$WORK/int8.err"

# --cache-stats prints the canonical obs rendering (same lines the
# server's STATS verb emits).
"$CLI" predict --model="$WORK/model" --cache-stats "$WORK/fir.snl" \
    2> "$WORK/cache.err" > /dev/null
grep -q "^cache.hits " "$WORK/cache.err"
grep -q "^cache.bytes " "$WORK/cache.err"

# sns-serve round trip: remote predictions must byte-match the local
# report, STATS must show the traffic, and SIGTERM must drain cleanly.
SOCK="$WORK/serve.sock"
"$SERVE" --model="$WORK/model" --socket="$SOCK" --log-period=0 \
    2> "$WORK/serve.log" &
SERVE_PID=$!
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    [ -S "$SOCK" ] && break
    sleep 0.5
done
[ -S "$SOCK" ] || { cat "$WORK/serve.log" >&2; exit 1; }

"$CLI" remote-predict --socket="$SOCK" --stats "$WORK/fir.snl" \
    "$WORK/mac.v" 2> "$WORK/serve_stats.err" > "$WORK/pred_remote.out"
grep -v "predicted in" "$WORK/pred_remote.out" > "$WORK/pred_remote.body"
diff "$WORK/pred_1t.body" "$WORK/pred_remote.body"

# Nonzero traffic counters in STATS.
grep -q "^serve.requests_total 2$" "$WORK/serve_stats.err"
grep -q "^serve.requests_ok 2$" "$WORK/serve_stats.err"
grep -q "^cache.inserts" "$WORK/serve_stats.err"

# Edit-loop session round trip: the first design OPENs a session, the
# second is an incremental UPDATE, and the CLOSE happens on exit — the
# rendered predictions must byte-match the stateless remote pass, and
# the reuse accounting must land on stderr.
cat > "$WORK/fir_edit.snl" <<'EOF'
design fir2
input  x 16
node   p0 mul 32 x c0
node   p1 mul 32 x c1
reg    c0 16
reg    c1 16
reg    z0 32 p0
node   s1 add 32 p1 z0
reg    z1 32 s1
node   s2 add 32 s1 z1
output y  32 s2
EOF
"$CLI" remote-predict --socket="$SOCK" "$WORK/fir.snl" "$WORK/fir_edit.snl" \
    > "$WORK/pred_stateless.out"
"$CLI" remote-predict --socket="$SOCK" --session --stats \
    "$WORK/fir.snl" "$WORK/fir_edit.snl" \
    2> "$WORK/session.err" > "$WORK/pred_session.out"
grep -v "predicted in" "$WORK/pred_stateless.out" > "$WORK/pred_stateless.body"
grep -v "predicted in" "$WORK/pred_session.out" > "$WORK/pred_session.body"
diff "$WORK/pred_stateless.body" "$WORK/pred_session.body"
grep -q "paths reused" "$WORK/session.err"
grep -q "^session.opens_total 1$" "$WORK/session.err"
grep -q "^session.closes_total 1$" "$WORK/session.err"
grep -q "^serve.sessions_open 0$" "$WORK/session.err"

# remote-predict --precision=int8 crosses the wire with the precision
# byte; the daemon's model lost plan_int8.snsp above, so the server
# must answer a clean error (exit 2) naming the missing scales.
STATUS=0; "$CLI" remote-predict --socket="$SOCK" --precision=int8 \
    "$WORK/fir.snl" > /dev/null 2> "$WORK/remote_int8.err" || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "remote int8 without scales must exit 2, got $STATUS" >&2; exit 1; }
grep -q "no int8 scales" "$WORK/remote_int8.err"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "sns-serve did not drain cleanly" >&2; \
    cat "$WORK/serve.log" >&2; exit 1; }
grep -q "drained" "$WORK/serve.log"
SERVE_PID=""

# A SIGTERM sent the moment a daemon reports "listening" must still
# drain (sns-serve) or stop cleanly (sns-router): both block the stop
# signals before their first thread, so the signal waits for them.
wait_listening() {
    i=0
    while [ "$i" -lt 200 ]; do
        grep -q "listening" "$1" && return 0
        sleep 0.05
        i=$((i + 1))
    done
    cat "$1" >&2
    return 1
}
ESOCK="$WORK/early.sock"
"$SERVE" --model="$WORK/model" --socket="$ESOCK" --log-period=0 \
    2> "$WORK/early_serve.log" &
SERVE_PID=$!
wait_listening "$WORK/early_serve.log"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "sns-serve died on an early SIGTERM" >&2; \
    cat "$WORK/early_serve.log" >&2; exit 1; }
grep -q "drained" "$WORK/early_serve.log"
SERVE_PID=""
"$ROUTER" --socket="$WORK/early_router.sock" --worker="unix:$ESOCK" \
    2> "$WORK/early_router.log" &
ROUTER_PID=$!
wait_listening "$WORK/early_router.log"
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "sns-router died on an early SIGTERM" >&2; \
    cat "$WORK/early_router.log" >&2; exit 1; }
grep -q "stopped" "$WORK/early_router.log"
ROUTER_PID=""

# ---------------------------------------------------------------------
# sns-router cluster: 2 workers behind one router (docs/cluster.md).
W0="$WORK/w0.sock"
W1="$WORK/w1.sock"
RSOCK="$WORK/router.sock"
"$SERVE" --model="$WORK/model" --socket="$W0" --log-period=0 \
    2> "$WORK/w0.log" &
W0_PID=$!
"$SERVE" --model="$WORK/model" --socket="$W1" --log-period=0 \
    2> "$WORK/w1.log" &
W1_PID=$!
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    [ -S "$W0" ] && [ -S "$W1" ] && break
    sleep 0.5
done
[ -S "$W0" ] || { cat "$WORK/w0.log" >&2; exit 1; }
[ -S "$W1" ] || { cat "$WORK/w1.log" >&2; exit 1; }
"$ROUTER" --socket="$RSOCK" --worker="unix:$W0" --worker="unix:$W1" \
    --health-period-ms=200 2> "$WORK/router.log" &
ROUTER_PID=$!
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    [ -S "$RSOCK" ] && break
    sleep 0.5
done
[ -S "$RSOCK" ] || { cat "$WORK/router.log" >&2; exit 1; }

# Routed predictions byte-match the local single-process report — the
# cluster is invisible to clients.
"$CLI" remote-predict --socket="$RSOCK" "$WORK/fir.snl" "$WORK/mac.v" \
    > "$WORK/pred_routed.out"
grep -v "predicted in" "$WORK/pred_routed.out" > "$WORK/pred_routed.body"
diff "$WORK/pred_1t.body" "$WORK/pred_routed.body"

# Sessions flow through the router too, still byte-identical.
"$CLI" remote-predict --socket="$RSOCK" --session \
    "$WORK/fir.snl" "$WORK/fir_edit.snl" > "$WORK/pred_rsession.out"
grep -v "predicted in" "$WORK/pred_rsession.out" \
    > "$WORK/pred_rsession.body"
diff "$WORK/pred_stateless.body" "$WORK/pred_rsession.body"

# --stats-json: the merged cluster report as one flat JSON object.
"$CLI" remote-predict --socket="$RSOCK" --stats-json "$WORK/fir.snl" \
    > "$WORK/cluster_stats.out"
grep -q '"cluster.workers": 2' "$WORK/cluster_stats.out"
grep -q '"cluster.workers_up": 2' "$WORK/cluster_stats.out"
grep -q '"router.requests_total"' "$WORK/cluster_stats.out"
grep -q '"worker0.serve.requests_total"' "$WORK/cluster_stats.out"

# Rolling promote: a second model walks both workers, canary-verified
# bitwise at each step; routed traffic then answers from the new model.
"$CLI" train --out="$WORK/model2" --dataset=smoke --fast --seed=4
"$CLI" promote --model="$WORK/model2" --canary="$WORK/fir.snl" \
    --workers="unix:$W0,unix:$W1" > "$WORK/promote.out"
grep -q "promoted 2/2 workers" "$WORK/promote.out"
"$CLI" predict --model="$WORK/model2" "$WORK/fir.snl" "$WORK/mac.v" \
    | grep -v "predicted in" > "$WORK/pred2_local.body"
"$CLI" remote-predict --socket="$RSOCK" "$WORK/fir.snl" "$WORK/mac.v" \
    | grep -v "predicted in" > "$WORK/pred2_routed.body"
diff "$WORK/pred2_local.body" "$WORK/pred2_routed.body"

# Worker discovery through the router's WORKERS verb instead of an
# explicit --workers list.
"$CLI" promote --model="$WORK/model2" --canary="$WORK/fir.snl" \
    --cluster-socket="$RSOCK" | grep -q "promoted 2/2 workers"

# A corrupted candidate must abort the rollout with exit 2, before
# any worker reloads — the old model keeps serving.
cp -r "$WORK/model2" "$WORK/model_bad"
SIZE=$(wc -c < "$WORK/model_bad/circuitformer.bin")
head -c $((SIZE / 2)) "$WORK/model_bad/circuitformer.bin" \
    > "$WORK/model_bad/circuitformer.bin.tmp"
mv "$WORK/model_bad/circuitformer.bin.tmp" \
    "$WORK/model_bad/circuitformer.bin"
STATUS=0
"$CLI" promote --model="$WORK/model_bad" --canary="$WORK/fir.snl" \
    --workers="unix:$W0,unix:$W1" > "$WORK/promote_bad.out" \
    2> "$WORK/promote_bad.err" || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "corrupt promote must exit 2, got $STATUS" >&2; exit 1; }
grep -q "before rollout" "$WORK/promote_bad.out"
"$CLI" remote-predict --socket="$RSOCK" "$WORK/fir.snl" "$WORK/mac.v" \
    | grep -v "predicted in" > "$WORK/pred3_routed.body"
diff "$WORK/pred2_local.body" "$WORK/pred3_routed.body"

kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "sns-router did not stop cleanly" >&2; \
    cat "$WORK/router.log" >&2; exit 1; }
grep -q "stopped, bye" "$WORK/router.log"
ROUTER_PID=""
kill -TERM "$W0_PID" "$W1_PID"
wait "$W0_PID" || { cat "$WORK/w0.log" >&2; exit 1; }
wait "$W1_PID" || { cat "$WORK/w1.log" >&2; exit 1; }
W0_PID=""
W1_PID=""

echo "cli smoke test passed"
