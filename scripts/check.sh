#!/bin/sh
# The full verification gate for this repository. Tier-1 verify
# (ROADMAP.md) is this script; it supersedes the bare
# `go build && go test` of the seed.
#
#   1. go build      — everything compiles
#   2. go vet        — the standard toolchain analyzers
#   3. yyvet         — the repo-specific invariant analyzers
#                      (internal/analyze), run package-parallel:
#                      per-function walks (irecv-wait, pow2-stride,
#                      float-eq, cond-wait-loop, abort-on-err,
#                      runwith-deadline, span-end, det-purity,
#                      pool-disjoint, typed-err, overlap-order,
#                      atomic-artifact) plus the interprocedural
#                      passes (tag-space, buf-lifetime, reach: every
#                      declaration some main reaches, knob: every
#                      exported config field some program sets) and
#                      the directive audit (ignore-audit)
#   4. go test       — the full test suite (benchmark/'s timing-
#                      sensitive pipeline test first and alone, then
#                      the rest package-parallel), which replays every fuzz
#                      target's seed corpus; the explicit -timeout turns
#                      any residual runtime wedge into a stack-dumped
#                      failure instead of a hung CI job
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
#   9. store smoke   — a store-backed campaign (yycore -store) audited
#                      offline with yystore verify and gc: the ledger
#                      chain, Merkle roots and anchor must come back
#                      clean, and GC must keep every ledger-reachable
#                      object
set -eu

cd "$(dirname "$0")/.."

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

echo "==> go test -timeout 120s ./... (all but ./benchmark)"
go list ./... | grep -v '^repro/benchmark$' | xargs go test -timeout 120s

echo '==> go test -run=^$ -fuzz=FuzzReadInterior -fuzztime=5s ./internal/snapshot'
go test -run='^$' -fuzz=FuzzReadInterior -fuzztime=5s ./internal/snapshot

echo "==> go test -race -timeout 240s ./internal/mpi ./internal/decomp ./internal/overset ./internal/resilience ./internal/par ./internal/chaos ./internal/obs ./internal/store ./internal/telemetry"
go test -race -timeout 240s ./internal/mpi ./internal/decomp ./internal/overset ./internal/resilience ./internal/par ./internal/chaos ./internal/obs ./internal/store ./internal/telemetry

# Violating chaos scenarios leave their postmortem.txt and event
# timeline under $chaos_art; CI exports CHAOS_ART and uploads the
# directory as an artifact when the gate fails.
chaos_art="${CHAOS_ART:-$(mktemp -d)}"
echo "==> chaos smoke: go run ./cmd/yychaos -seeds 25 -steps 5 -artifacts $chaos_art"
go run ./cmd/yychaos -seeds 25 -steps 5 -artifacts "$chaos_art"

echo "==> chaos corpus replay: go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus.json"
go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus.json -artifacts "$chaos_art"

echo "==> chaos replacement corpus: go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus_replace.json"
go run ./cmd/yychaos -corpus internal/chaos/testdata/corpus_replace.json -artifacts "$chaos_art"

echo "==> chaos store corpus: go run ./cmd/yychaos -store-corpus internal/chaos/testdata/corpus_store.json"
go run ./cmd/yychaos -store-corpus internal/chaos/testdata/corpus_store.json -artifacts "$chaos_art"

obs_out="${OBS_OUT:-$(mktemp -d)}"
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
tele_out="${TELE_OUT:-$(mktemp -d)}"
echo "==> telemetry smoke: yycore -campaign -telemetry + silent kill, scraped live by yywatch"
go build -o "$tele_out/yycore" ./cmd/yycore
go build -o "$tele_out/yywatch" ./cmd/yywatch
"$tele_out/yycore" -nr 9 -nt 13 -steps 6 -procs 2 -campaign "$tele_out/camp" -ckpt-every 2 \
	-hb 5ms -inject-kill-silent 1@2 \
	-telemetry 127.0.0.1:0 -telemetry-addr-file "$tele_out/addr" -linger 120s \
	>"$tele_out/yycore.log" 2>&1 &
tele_pid=$!
# A failing check below exits the script under set -e; the trap stops
# the lingering server then instead of leaving it to serve for 120 s.
trap 'kill "$tele_pid" 2>/dev/null || true; wait "$tele_pid" 2>/dev/null || true' EXIT
"$tele_out/yywatch" -addr-file "$tele_out/addr" -interval 200ms -timeout 90s
# Keep the scraped exposition and final progress line as CI artifacts
# next to the yycore log, then assert on them.
"$tele_out/yywatch" -addr-file "$tele_out/addr" -metrics >"$tele_out/metrics.txt"
"$tele_out/yywatch" -addr-file "$tele_out/addr" -once >"$tele_out/progress.txt"
"$tele_out/yywatch" -addr-file "$tele_out/addr" -check -expect-alert rank-dead
kill "$tele_pid" 2>/dev/null || true
wait "$tele_pid" 2>/dev/null || true
trap - EXIT

store_dir="${STORE_OUT:-$(mktemp -d)}/run.store"
echo "==> store smoke: go run ./cmd/yycore -nr 9 -nt 13 -steps 4 -ckpt-every 2 -store $store_dir"
go run ./cmd/yycore -nr 9 -nt 13 -steps 4 -ckpt-every 2 -store "$store_dir"
go run ./cmd/yystore -root "$store_dir" verify
go run ./cmd/yystore -root "$store_dir" gc
# Post-GC verify: the sweep must not have collected anything the
# ledger or refs still reach. STORE_REPORT, when exported by CI, gets
# the machine-readable report for upload.
go run ./cmd/yystore -root "$store_dir" verify ${STORE_REPORT:+-o "$STORE_REPORT"}

# The tracked size of the codebase (ROADMAP north star 2) and of what a
# stepping solver holds per padded grid point (mhd.TestPanelFootprint):
# every PR description owes the delta of these numbers against its parent.
loc=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l)
dpp=$(go test -count=1 -run '^TestPanelFootprint$' -v ./internal/mhd | sed -n 's/.*doubles per padded point: //p')
echo "non-test Go LoC outside benchmark/: $loc; doubles per padded point: $dpp"

echo "==> all checks passed"
