#!/bin/sh
# The full verification gate for this repository. Tier-1 verify
# (ROADMAP.md) is this script; it supersedes the bare
# `go build && go test` of the seed.
#
#   1. go build      — everything compiles
#   2. go vet        — the standard toolchain analyzers
#   3. yyvet         — the repo-specific invariant analyzers
#                      (internal/analyze), run package-parallel:
#                      per-package walks (abort-on-err, atomic-artifact,
#                      cond-wait-loop, det-purity, float-eq,
#                      pool-disjoint, pow2-stride, runwith-deadline,
#                      span-end, typed-err) plus the whole-program
#                      passes (reach: every declaration some main
#                      reaches, knob: every exported library field some
#                      program sets and some program reads, every cmd/
#                      flag a stage of this script or a test of its
#                      command passes) and the directive audit
#                      (ignore-audit)
#   4. go test       — the full test suite (benchmark/'s timing-
#                      sensitive pipeline test first and alone, then a
#                      short benchmark run that must leave no process
#                      behind, then the rest package-parallel), which
#                      replays every fuzz
#                      target's seed corpus; the explicit -timeout turns
#                      any residual runtime wedge into a stack-dumped
#                      failure instead of a hung CI job
#   4a. lane paths   — the lane bodies' other side: the numeric
#                      packages' tests (every golden included) under
#                      -tags purego, which runs the Go loops the AVX2
#                      bodies mirror, and an arm64 vet of the packages
#                      that carry the bodies, which compiles their
#                      non-amd64 build
#   4b. fuzz         — five seconds of coverage-guided fuzzing of the
#                      checkpoint decoder, the trust boundary a resuming
#                      campaign crosses: no panic, a typed error naming
#                      a byte offset, allocation bounded by the input. A
#                      failing input lands in
#                      internal/snapshot/testdata/fuzz/ for CI to upload
#   5. go test -race — the goroutine MPI runtime and its users under
#                      the race detector, plus the intra-rank worker
#                      pool (internal/par), the chaos harness and the
#                      pooled-kernel + halo-exchange stress test in
#                      internal/decomp
#   6. yychaos       — the seeded chaos smoke: randomized fault
#                      schedules over full solver runs (liveness,
#                      golden-checkpoint safety, campaign
#                      recoverability), then the committed regression
#                      corpora replayed for their recorded verdicts —
#                      the base corpus plus the rank-replacement
#                      corpus (kill -> heartbeat confirm -> surgical
#                      respawn, final state byte-equal to golden) and
#                      the store-fault corpus (torn writes, bit rot,
#                      ENOSPC, crash points against the run ledger,
#                      through detect -> scrub -> re-derive).
#                      Violating scenarios drop postmortem + event
#                      timeline (or verify + scrub report) artifacts
#                      into CHAOS_ART for CI to upload
#   7. traced smoke  — a 2-rank run with -trace and -runreport on,
#                      proving the observability path exports a valid
#                      Perfetto trace and run report end to end
#   8. telemetry smoke — a live 2-rank campaign with a scripted silent
#                      rank death, served over -telemetry and scraped
#                      by yywatch while it runs: the Prometheus
#                      exposition must parse and the injected fault
#                      must surface as a latched rank-dead alert
#   9. store smoke   — a store-backed campaign (yycore -store) under a
#                      named run, a per-call deadline and a scripted
#                      silent rank death that -replace must repair in
#                      place (a rank-replace recovery line), audited
#                      offline with yystore verify and gc: the ledger
#                      chain, Merkle roots and anchor must come back
#                      clean, and GC must keep every ledger-reachable
#                      object. It is the stage that passes every
#                      campaign flag of yycore
set -eu

cd "$(dirname "$0")/.."

# Every directory this script makes with mktemp is removed on exit,
# success or failure; one a caller names through CHAOS_ART, OBS_OUT,
# TELE_OUT or STORE_OUT is the caller's to keep. The same trap stops the
# telemetry smoke's lingering server if a check fails while it runs.
tmp_dirs=""
tele_pid=""
cleanup() {
	if [ -n "$tele_pid" ]; then
		kill "$tele_pid" 2>/dev/null || true
		wait "$tele_pid" 2>/dev/null || true
	fi
	if [ -n "$tmp_dirs" ]; then
		rm -rf $tmp_dirs
	fi
}
trap cleanup EXIT

# out_dir VAR NAME sets NAME to $VAR, or to a new directory the trap
# removes when VAR is unset or empty.
out_dir() {
	eval "dir=\${$1:-}"
	if [ -z "$dir" ]; then
		dir="$(mktemp -d)"
		tmp_dirs="$tmp_dirs $dir"
	fi
	eval "$2=\$dir"
}

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# -p 0 sizes the analysis pool to GOMAXPROCS; CI can cap it by
# exporting YYVET_PROCS. -json feeds the CI artifact when YYVET_JSON is
# set (the plain lines still go to the log either way).
echo "==> go run ./cmd/yyvet -p \${YYVET_PROCS:-0} ./..."
go run ./cmd/yyvet -p "${YYVET_PROCS:-0}" ${YYVET_JSON:+-json "$YYVET_JSON"} ${YYVET_GITHUB:+-github} ./...

# benchmark/'s pipeline test holds a ~20 ms traced run's span accounting
# to 5 % of its wall clock, i.e. to 1 ms: it runs alone, so that no
# other package's test binary can be scheduled into that millisecond
# (0/40 failures alone, 7/105 beside one competing test binary).
echo "==> go test -timeout 120s ./benchmark"
go test -timeout 120s ./benchmark

# A benchmark run re-executes its own binary as measuring children; one
# that outlived its run would load the host under every later
# measurement. Run one short workload and fail if any process of that
# binary is still alive once it has returned.
bench_out="$(mktemp -d)"
tmp_dirs="$tmp_dirs $bench_out"
echo "==> leftover-process guard: benchmark -workload world4_small -seconds 2"
go build -o "$bench_out/benchmark" ./benchmark
"$bench_out/benchmark" -workload world4_small -seconds 2 -out "$bench_out/out" >/dev/null
if pgrep -f "$bench_out/benchmark" >/dev/null; then
	echo "benchmark run left processes behind:"
	pgrep -af "$bench_out/benchmark"
	exit 1
fi

echo "==> go test -timeout 120s ./... (all but ./benchmark)"
go list ./... | grep -v '^repro/benchmark$' | xargs go test -timeout 120s

# The AVX2 lane bodies replace the interior radial loops only on amd64;
# everywhere else, and under -tags purego, the Go loops run. Both must
# keep every golden, and the non-amd64 build must keep compiling.
echo "==> go test -tags purego -timeout 120s ./internal/mhd ./internal/sphops ./internal/core"
go test -tags purego -timeout 120s ./internal/mhd ./internal/sphops ./internal/core

echo "==> GOARCH=arm64 go vet ./internal/mhd ./internal/sphops ./internal/simd"
GOARCH=arm64 go vet ./internal/mhd ./internal/sphops ./internal/simd

echo '==> go test -run=^$ -fuzz=FuzzReadInterior -fuzztime=5s ./internal/snapshot'
go test -run='^$' -fuzz=FuzzReadInterior -fuzztime=5s ./internal/snapshot

echo "==> go test -race -timeout 240s ./internal/mpi ./internal/decomp ./internal/overset ./internal/resilience ./internal/par ./internal/chaos ./internal/obs ./internal/store ./internal/telemetry"
go test -race -timeout 240s ./internal/mpi ./internal/decomp ./internal/overset ./internal/resilience ./internal/par ./internal/chaos ./internal/obs ./internal/store ./internal/telemetry

# Violating chaos scenarios leave their postmortem.txt and event
# timeline under $chaos_art; CI exports CHAOS_ART and uploads the
# directory as an artifact when the gate fails.
out_dir CHAOS_ART chaos_art
echo "==> chaos smoke: go run ./cmd/yychaos -seeds 25 -steps 5 -artifacts $chaos_art"
go run ./cmd/yychaos -seeds 25 -steps 5 -artifacts "$chaos_art"

echo "==> chaos corpus replay: go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus.json"
go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus.json -artifacts "$chaos_art"

echo "==> chaos replacement corpus: go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus_replace.json -v"
go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus_replace.json -artifacts "$chaos_art" -v

echo "==> chaos store corpus: go run ./cmd/yychaos -store-corpus internal/chaos/testdata/corpus_store.json"
go run ./cmd/yychaos -store-corpus internal/chaos/testdata/corpus_store.json -artifacts "$chaos_art"

out_dir OBS_OUT obs_out
echo "==> traced smoke: go run ./cmd/yycore -nr 9 -nt 13 -steps 4 -every 2 -procs 2 -trace $obs_out/trace.json -runreport $obs_out/report.txt"
go run ./cmd/yycore -nr 9 -nt 13 -steps 4 -every 2 -procs 2 \
	-trace "$obs_out/trace.json" -runreport "$obs_out/report.txt"
go run ./cmd/yytrace -summary "$obs_out/trace.json" > "$obs_out/summary.txt"
grep -q "Span Coverage" "$obs_out/report.txt"

# A live 2-rank campaign with a scripted silent rank death: yycore
# serves /metrics, /progress, /events and /debug/pprof while the
# campaign runs; yywatch follows it to completion, then validates that
# the exposition parses and that the injected fault surfaced as a
# latched rank-dead alert (exit 1 if the alarm never fired, exit 2 if
# the scrape itself is broken). -linger keeps the server up for the
# post-run checks; the watcher reads the :0-bound address from the
# addr file.
out_dir TELE_OUT tele_out
echo "==> telemetry smoke: yycore -campaign -telemetry + silent kill, scraped live by yywatch"
go build -o "$tele_out/yycore" ./cmd/yycore
go build -o "$tele_out/yywatch" ./cmd/yywatch
"$tele_out/yycore" -nr 9 -nt 13 -steps 6 -every 2 -procs 2 -campaign "$tele_out/camp" \
	-hb 5ms -inject-kill-silent 1@2 \
	-telemetry 127.0.0.1:0 -telemetry-addr-file "$tele_out/addr" -linger 120s \
	>"$tele_out/yycore.log" 2>&1 &
tele_pid=$!
# A failing check below exits the script under set -e; the trap stops
# the lingering server then instead of leaving it to serve for 120 s.
"$tele_out/yywatch" -addr-file "$tele_out/addr" -interval 200ms -timeout 90s
# Keep the scraped exposition and final progress line as CI artifacts
# next to the yycore log, then assert on them.
"$tele_out/yywatch" -addr-file "$tele_out/addr" -metrics >"$tele_out/metrics.txt"
"$tele_out/yywatch" -addr-file "$tele_out/addr" -once >"$tele_out/progress.txt"
"$tele_out/yywatch" -addr-file "$tele_out/addr" -check -expect-alert rank-dead
kill "$tele_pid" 2>/dev/null || true
wait "$tele_pid" 2>/dev/null || true
tele_pid=""

out_dir STORE_OUT store_out
store_dir="$store_out/run.store"
echo "==> store smoke: go run ./cmd/yycore -nr 9 -nt 13 -steps 4 -every 2 -procs 2 -store $store_dir -runid smoke -deadline 60s -hb 5ms -replace -inject-kill-silent 1@2"
go run ./cmd/yycore -nr 9 -nt 13 -steps 4 -every 2 -procs 2 -store "$store_dir" -runid smoke \
	-deadline 60s -hb 5ms -replace -inject-kill-silent 1@2 >"$store_out/yycore.log" 2>&1 ||
	{ cat "$store_out/yycore.log"; exit 1; }
cat "$store_out/yycore.log"
# The silent death must have been repaired by replacing the rank, not
# by rolling the segment back.
grep -q '^recovery: .* rank-replace ' "$store_out/yycore.log"
go run ./cmd/yystore -root "$store_dir" verify
go run ./cmd/yystore -root "$store_dir" gc
# Post-GC verify: the sweep must not have collected anything the
# ledger or refs still reach. STORE_REPORT, when exported by CI, gets
# the machine-readable report for upload.
go run ./cmd/yystore -root "$store_dir" verify ${STORE_REPORT:+-o "$STORE_REPORT"}

# The tracked size of the codebase (ROADMAP north star 2), of its
# assembly, and of what a stepping solver holds per padded grid point
# (mhd.TestPanelFootprint): every PR description owes the delta of these
# numbers against its parent.
loc=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l)
asm=$(find . -name '*.s' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l)
dpp=$(go test -count=1 -run '^TestPanelFootprint$' -v ./internal/mhd | sed -n 's/.*doubles per padded point: //p')
echo "non-test Go LoC outside benchmark/: $loc; assembly lines: $asm; doubles per padded point: $dpp"

echo "==> all checks passed"
