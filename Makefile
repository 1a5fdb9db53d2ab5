# Developer entry points. `make ci` is the tier-1 gate every PR must
# keep green; `make bench-snapshot` refreshes the decode-path perf
# snapshot future PRs are compared against; `make bench-gate` enforces
# the perf contract on the hot paths: 0 allocs/op for encode, the
# scratch entry points, the clean and corrected decodes (SSC, DEC,
# BF+BF, batched tile), and the decodes with a journal subscriber or a
# latency probe attached, the wire transpose and poly-m2005's clean
# registry decode; absolute latency ceilings on the candidate-free fast
# path (clean decode <= 250 ns/op, corrected SSC <= 400 ns/op, encode
# <= 200 ns/op) and on the wire and registry paths (wire/from-burst
# <= 300 ns/op, codec/poly-m2005/decode-clean <= 1200 ns/op); metrics attachment
# within 1.25x of the bare clean decode and the other attached-path
# variants within 3x of their bare counterparts; every latency-gated
# scenario within -gate-tolerance of the committed BENCH_decode.json
# baseline; and every poly codec's fast or hint tables within their
# 4 MiB per-codec budget.
# `make fastpath-smoke` proves the fast path bit-identical to the
# enumeration (differential tables, decode equivalence, golden
# vectors), the packed hint tables bucket-identical to the map builder
# without a dedupe, each code's tables built straight at their kept
# size, and the word-parallel wire layer bit-identical to the bitwise
# oracle.
# `make fmt-check` fails on any file gofmt would change.
# `make results-check` regenerates every results/ file that takes
# seconds and fails on any byte that differs.
# `make bench-compare OLD=old.json` prints the before/after table for a
# perf PR.

GO ?= go

.PHONY: ci fmt-check build vet test race bench bench-snapshot bench-history bench-gate bench-compare fastpath-smoke smoke-campaign scrub-smoke report-smoke scenario-smoke health-smoke heal-smoke latency-smoke results-check

ci: fmt-check vet build race fastpath-smoke smoke-campaign scrub-smoke bench-gate report-smoke scenario-smoke health-smoke heal-smoke latency-smoke results-check

# Every results/ file that regenerates in seconds must match, byte for
# byte, what the command EXPERIMENTS.md gives for it prints today (the
# ten together take ~17 s on a 2-vCPU host once the tools are built).
# results/figure4.txt is the one manual step: `faultinject -scenario
# figure4 -n 1000` takes about 2 minutes.
RES_DIR := $(shell mktemp -u -d /tmp/polyecc-results.XXXXXX)
results-check:
	@mkdir -p $(RES_DIR)
	$(GO) build -o $(RES_DIR)/ ./cmd/profiler ./cmd/sdcprofiler ./cmd/faultinject ./cmd/tradeoff ./cmd/perfsim ./cmd/hwreport
	@status=0; \
	check() { \
		f=$$1; shift; \
		if ! $(RES_DIR)/"$$@" > $(RES_DIR)/$$f.txt 2>$(RES_DIR)/$$f.err; then \
			echo "results-check: '$$*' failed:" >&2; tail -5 $(RES_DIR)/$$f.err >&2; status=1; \
		elif ! cmp -s $(RES_DIR)/$$f.txt results/$$f.txt; then \
			echo "results-check: results/$$f.txt differs from what '$$*' prints:" >&2; \
			diff results/$$f.txt $(RES_DIR)/$$f.txt | head -20 >&2; status=1; \
		fi; \
	}; \
	check table2 profiler -table 2 -trials 200000; \
	check table3 profiler -table 3; \
	check table4 profiler -table 4; \
	check table5 sdcprofiler -table 5 -trials 5000 -dectrials 1000; \
	check table5_rowhammer sdcprofiler -rowhammer -patterns 94892; \
	check table6 hwreport -latency; \
	check figure5 faultinject -scenario figure5 -n 2500; \
	check figure7 tradeoff -min 9 -max 14; \
	check figure10 sdcprofiler -fig10 -trials 300; \
	check figure11 perfsim -refs 2000000; \
	rm -rf $(RES_DIR); \
	if [ $$status -ne 0 ]; then exit 1; fi
	@echo "results-check: ten results files match their commands"

# Differential proof that the candidate-free fast path (remainder-indexed
# fast tables + incremental MAC) decodes bit-identically to the
# enumeration over hint tables: per-remainder candidate-list equality
# for every remainder, randomized decode equivalence, incremental-MAC
# algebra, and the pinned golden vectors. The packed DEC/BF+BF hint
# tables are checked bucket by bucket against the map builder they
# replaced; the pair models' deltas are proved distinct modulo every
# admissible multiplier, so no table needs a dedupe; each code holds
# only the tables its decode reads, counted by HintTableBytes, and New
# allocates little beyond them. The word-parallel wire views are fuzzed
# against the bitwise oracle for every accepted geometry.
fastpath-smoke:
	$(GO) test ./internal/poly -run 'TestHintTableDifferential|TestChipKillPlus1Differential|TestFastDecodeEquivalence|TestHintTableBytes|TestGoldenVectors|TestHintTablesMatchMapBuilder|TestPairDeltasDistinctModM|TestNewAllocations' -count=1
	$(GO) test ./internal/mac -run 'TestSumSave|TestSumFrom' -count=1
	$(GO) test ./internal/dram -run 'TestWireLayoutOracle|TestAcceptedGeometries|FuzzWireLayout' -count=1
	$(GO) test ./internal/dram -run '^$$' -fuzz '^FuzzWireLayout$$' -fuzztime 10s
	@echo "fastpath-smoke: fast and hint tables, incremental MAC and wire layout match their oracles; tables need no dedupe and are built at kept size"

# Formatting gate: gofmt must have nothing to say about the tree.
fmt-check:
	@out=`gofmt -l .`; if [ -n "$$out" ]; then echo "fmt-check: gofmt -l . lists:" >&2; echo "$$out" >&2; exit 1; fi
	@echo "fmt-check: gofmt clean"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

bench-snapshot:
	$(GO) run ./cmd/benchsnap -o BENCH_decode.json

bench-history:
	$(GO) run ./cmd/benchsnap -history -history-path BENCH_history.jsonl

bench-gate:
	$(GO) run ./cmd/benchsnap -gate

# Percent-delta table of the current tree against an older snapshot:
#   make bench-compare OLD=BENCH_decode.json
OLD ?= BENCH_decode.json
bench-compare:
	$(GO) run ./cmd/benchsnap -compare $(OLD)

# Tiny end-to-end campaign: run the in-model soak with a checkpoint and
# a timeout, then resume it to completion — the interrupt/resume round
# trip every long fault-injection run depends on.
SMOKE_CKPT := $(shell mktemp -u /tmp/polyecc-smoke.XXXXXX)
smoke-campaign:
	$(GO) run ./cmd/faultinject -scenario polysoak -n 40 -workers 4 \
		-checkpoint $(SMOKE_CKPT) -checkpoint-every 5 -timeout 120s >/dev/null
	$(GO) run ./cmd/faultinject -scenario polysoak -n 40 -workers 2 \
		-checkpoint $(SMOKE_CKPT) -resume >/dev/null
	@rm -f $(SMOKE_CKPT)
	@echo "smoke-campaign: checkpoint/resume round trip OK"

# Short batched-decode campaign: a journal-free patrol over a faulted
# region runs the poly.DecodeLines sweep path end to end (the journaled
# per-line path is covered by report-smoke).
scrub-smoke:
	$(GO) run ./examples/scrubber -lines 256 -sweeps 3 -interval 0 -seed 11 >/dev/null
	@echo "scrub-smoke: batched patrol sweep OK"

# Tiny end-to-end forensics run: a journaled soak, then eccreport over
# every artifact it leaves, asserting the journal parses as JSONL (the
# report generator validates every line) and the HTML is non-trivial.
SMOKE_DIR := $(shell mktemp -u -d /tmp/polyecc-report.XXXXXX)
report-smoke:
	@mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/faultinject -scenario polysoak -n 30 -workers 4 \
		-checkpoint $(SMOKE_DIR)/soak.ckpt -journal $(SMOKE_DIR)/events.jsonl \
		-chrome-trace $(SMOKE_DIR)/trace.json -summary $(SMOKE_DIR)/run.json >/dev/null
	$(GO) run ./cmd/eccreport -summary $(SMOKE_DIR)/run.json \
		-checkpoint $(SMOKE_DIR)/soak.ckpt -journal $(SMOKE_DIR)/events.jsonl \
		-o $(SMOKE_DIR)/report.html
	@test -s $(SMOKE_DIR)/events.jsonl || { echo "report-smoke: empty journal" >&2; exit 1; }
	@test -s $(SMOKE_DIR)/report.html || { echo "report-smoke: empty report" >&2; exit 1; }
	@grep -q 'id="polyecc-report"' $(SMOKE_DIR)/report.html || { echo "report-smoke: report marker missing" >&2; exit 1; }
	@grep -q 'Flight recorder' $(SMOKE_DIR)/report.html || { echo "report-smoke: journal section missing" >&2; exit 1; }
	@rm -rf $(SMOKE_DIR)
	@echo "report-smoke: journal -> eccreport round trip OK"

# Scenario engine end to end: the preset registry lists, a recorded
# storm journal replays through both drivers (the campaign and, with
# -memctl, the controller loop on the virtual clock), a user-authored
# spec file runs on the virtual clock, the run summary's scenario digest
# reaches the report's Scenario section, and the spec and journal parse
# boundaries take 10 s of fuzzing each.
SCEN_DIR := $(shell mktemp -u -d /tmp/polyecc-scenario.XXXXXX)
scenario-smoke:
	@mkdir -p $(SCEN_DIR)
	@$(GO) build -o $(SCEN_DIR)/faultinject ./cmd/faultinject
	@$(SCEN_DIR)/faultinject -list-scenarios > $(SCEN_DIR)/list.txt
	@grep -q 'memctlsoak' $(SCEN_DIR)/list.txt \
		|| { echo "scenario-smoke: preset registry incomplete" >&2; exit 1; }
	@$(SCEN_DIR)/faultinject -scenario polysoak -n 60 -seed 9 \
		-summary $(SCEN_DIR)/run.json >/dev/null
	@$(SCEN_DIR)/faultinject -scenario stormsoak -n 200 -seed 7 \
		-journal $(SCEN_DIR)/events.jsonl >/dev/null 2>&1
	@for mode in "" -memctl; do \
		$(SCEN_DIR)/faultinject -replay $(SCEN_DIR)/events.jsonl $$mode > $(SCEN_DIR)/replay.txt 2>/dev/null \
			|| { echo "scenario-smoke: -replay $$mode failed" >&2; exit 1; }; \
		grep -q 'replayed 200 recorded anomalies' $(SCEN_DIR)/replay.txt \
			|| { echo "scenario-smoke: -replay $$mode did not replay the 200 recorded anomalies" >&2; cat $(SCEN_DIR)/replay.txt >&2; exit 1; }; \
	done
	@$(SCEN_DIR)/faultinject -spec examples/scenarios/mixed-tenants.json -n 120 >/dev/null
	$(GO) run ./cmd/eccreport -summary $(SCEN_DIR)/run.json -o $(SCEN_DIR)/report.html
	@grep -q '<h2>Scenario</h2>' $(SCEN_DIR)/report.html \
		|| { echo "scenario-smoke: report missing Scenario section" >&2; exit 1; }
	@rm -rf $(SCEN_DIR)
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzLoadSchedule$$' -fuzztime 10s -fuzzminimizetime 2s
	@echo "scenario-smoke: presets, replay through both drivers, spec file, report section, parse fuzzing OK"

# Live health end to end: a seeded rowhammer storm soak serves its health
# engine on a random port, ecctop blocks until the SLO tracker pages,
# /healthz must answer 503 while paging, and /regions must carry the
# rowhammer-storm signature. Everything the dashboard path promises,
# asserted against a real server.
HEALTH_DIR := $(shell mktemp -u -d /tmp/polyecc-health.XXXXXX)
health-smoke:
	@mkdir -p $(HEALTH_DIR)
	@$(GO) build -o $(HEALTH_DIR)/faultinject ./cmd/faultinject
	@$(GO) build -o $(HEALTH_DIR)/ecctop ./cmd/ecctop
	@$(HEALTH_DIR)/faultinject -scenario stormsoak -n 4000 -seed 7 \
		-journal $(HEALTH_DIR)/events.jsonl \
		-metrics-addr 127.0.0.1:0 -metrics-addr-file $(HEALTH_DIR)/addr \
		-serve-after 90s >/dev/null 2>&1 & echo $$! > $(HEALTH_DIR)/pid
	@$(HEALTH_DIR)/ecctop -addr-file $(HEALTH_DIR)/addr -wait 60s -wait-for page >/dev/null \
		|| { echo "health-smoke: engine never paged" >&2; kill `cat $(HEALTH_DIR)/pid` 2>/dev/null; exit 1; }
	@addr=`cat $(HEALTH_DIR)/addr`; \
	code=`curl -s -o $(HEALTH_DIR)/healthz.json -w '%{http_code}' http://$$addr/healthz`; \
	test "$$code" = 503 || { echo "health-smoke: /healthz returned $$code while paging, want 503" >&2; kill `cat $(HEALTH_DIR)/pid` 2>/dev/null; exit 1; }; \
	curl -s http://$$addr/regions | grep -q rowhammer-storm \
		|| { echo "health-smoke: /regions missing rowhammer-storm signature" >&2; kill `cat $(HEALTH_DIR)/pid` 2>/dev/null; exit 1; }
	@kill `cat $(HEALTH_DIR)/pid` 2>/dev/null || true
	@rm -rf $(HEALTH_DIR)
	@echo "health-smoke: storm paged, /healthz 503, rowhammer signature live OK"

# Self-healing end to end: the seeded storm soak runs closed-loop through
# the adaptive memory controller and must print the SELF-HEAL OK marker
# (health reached page during the storm and recovered to ok, with both an
# escalation and a quarantine on the action log). The journal and action
# log feed eccreport, which must render the Self-healing actions section.
HEAL_DIR := $(shell mktemp -u -d /tmp/polyecc-heal.XXXXXX)
heal-smoke:
	@mkdir -p $(HEAL_DIR)
	$(GO) run ./cmd/faultinject -scenario memctlsoak -n 8000 -seed 1 \
		-journal $(HEAL_DIR)/events.jsonl -actions $(HEAL_DIR)/actions.json \
		-summary $(HEAL_DIR)/run.json > $(HEAL_DIR)/soak.txt
	@grep -q 'SELF-HEAL OK' $(HEAL_DIR)/soak.txt \
		|| { echo "heal-smoke: soak did not heal" >&2; cat $(HEAL_DIR)/soak.txt >&2; exit 1; }
	@grep -q '"kind": *"quarantine"' $(HEAL_DIR)/actions.json \
		|| { echo "heal-smoke: no quarantine action recorded" >&2; exit 1; }
	$(GO) run ./cmd/eccreport -summary $(HEAL_DIR)/run.json \
		-journal $(HEAL_DIR)/events.jsonl -o $(HEAL_DIR)/report.html
	@grep -q 'Self-healing actions' $(HEAL_DIR)/report.html \
		|| { echo "heal-smoke: report missing self-healing actions section" >&2; exit 1; }
	@rm -rf $(HEAL_DIR)
	@echo "heal-smoke: storm escalated, quarantined, recovered to ok OK"

# Latency observatory end to end: a seeded soak runs with the latency
# collector and the time-series recorder live, ecctop blocks on a
# latency condition against /latency (the -wait-for count form), both
# endpoints must answer with real data, and the summary + recorder
# artifacts feed eccreport, which must render the Latency section with
# the clean-vs-corrected overlay and the time-series chart.
LAT_DIR := $(shell mktemp -u -d /tmp/polyecc-latency.XXXXXX)
latency-smoke:
	@mkdir -p $(LAT_DIR)
	@$(GO) build -o $(LAT_DIR)/faultinject ./cmd/faultinject
	@$(GO) build -o $(LAT_DIR)/ecctop ./cmd/ecctop
	@$(LAT_DIR)/faultinject -scenario polysoak -n 20000 -seed 7 -latency \
		-timeseries $(LAT_DIR)/ticks.jsonl -timeseries-interval 50ms \
		-summary $(LAT_DIR)/run.json \
		-metrics-addr 127.0.0.1:0 -metrics-addr-file $(LAT_DIR)/addr \
		-serve-after 90s >/dev/null 2>&1 & echo $$! > $(LAT_DIR)/pid
	@$(LAT_DIR)/ecctop -addr-file $(LAT_DIR)/addr -wait 60s -wait-for 'corrected.count>100' >/dev/null \
		|| { echo "latency-smoke: -wait-for latency condition never met" >&2; kill `cat $(LAT_DIR)/pid` 2>/dev/null; exit 1; }
	@addr=`cat $(LAT_DIR)/addr`; \
	curl -s http://$$addr/latency | grep -q '"corrected"' \
		|| { echo "latency-smoke: /latency missing corrected histogram" >&2; kill `cat $(LAT_DIR)/pid` 2>/dev/null; exit 1; }; \
	curl -s http://$$addr/timeseries | grep -q '"interval_ns"' \
		|| { echo "latency-smoke: /timeseries not answering" >&2; kill `cat $(LAT_DIR)/pid` 2>/dev/null; exit 1; }
	@for i in `seq 1 120`; do test -s $(LAT_DIR)/run.json && break; sleep 0.5; done; \
	test -s $(LAT_DIR)/run.json \
		|| { echo "latency-smoke: summary never written" >&2; kill `cat $(LAT_DIR)/pid` 2>/dev/null; exit 1; }
	@kill `cat $(LAT_DIR)/pid` 2>/dev/null || true
	@grep -q '"latency"' $(LAT_DIR)/run.json \
		|| { echo "latency-smoke: summary missing latency digest" >&2; exit 1; }
	$(GO) run ./cmd/eccreport -summary $(LAT_DIR)/run.json \
		-timeseries $(LAT_DIR)/ticks.jsonl -o $(LAT_DIR)/report.html
	@grep -q '<h2>Latency</h2>' $(LAT_DIR)/report.html \
		|| { echo "latency-smoke: report missing Latency section" >&2; exit 1; }
	@grep -q 'Clean vs corrected decode time' $(LAT_DIR)/report.html \
		|| { echo "latency-smoke: report missing distribution overlay" >&2; exit 1; }
	@grep -q 'Latency over time' $(LAT_DIR)/report.html \
		|| { echo "latency-smoke: report missing time-series chart" >&2; exit 1; }
	@rm -rf $(LAT_DIR)
	@echo "latency-smoke: live /latency, -wait-for handshake, recorder -> report round trip OK"
