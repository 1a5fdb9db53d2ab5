// Package scenario is the declarative campaign engine: one JSON spec —
// named clients with traffic fractions, arrival processes, access
// patterns over the address space, and per-client fault environments —
// compiled into deterministic per-trial generators on top of the
// campaign engine's splitmix64 sharding, so the same spec + seed is
// bit-identical at any worker count.
//
// Before this package, every evaluation shape was a bespoke hardcoded
// driver ("one figure = one driver"): Figure 4's paired
// plaintext/encrypted program injections, Figure 5's inference
// histograms, the in-model soak, the rowhammer storm, the self-healing
// memctl soak. All five now live on as built-in preset specs (see
// presets.go) executed by the one engine, and any user-authored spec
// composes the same building blocks into new shapes: multi-client fault
// mixes, bursty arrivals, hot-row storms over background noise,
// chip-failure epochs with scrub patrols, closed-loop runs through the
// adaptive memory controller.
//
// A recorded telemetry.Journal re-runs as a scenario too: trace replay
// (replay.go) turns the journaled anomaly stream back into an injection
// schedule, composing with checkpoint/resume and the controller.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/inference"
	"polyecc/internal/linecode"
	"polyecc/internal/workload"
)

// Spec kinds: what one trial of the scenario is.
const (
	// KindDecode injects per-client fault environments into an
	// ECC-protected line address space and classifies every decode —
	// the shape of the in-model soak, the rowhammer storm, and the
	// self-healing memctl soak.
	KindDecode = "decode"
	// KindPrograms is the §III-B checkpoint/corrupt/resume study: each
	// client is a synthetic program; every trial injects a paired
	// RS-miscorrection mask into plaintext and encrypted memory images
	// and classifies the program outcome (Figure 4).
	KindPrograms = "programs"
	// KindInference is the §III-C inference study: each client is a
	// model configuration; every trial corrupts one weight cacheline and
	// measures the accuracy drop (Figure 5).
	KindInference = "inference"
	// KindReplay re-runs a recorded journal: every journaled decode
	// anomaly becomes one trial re-injecting the same fault model on the
	// same line at the same event time.
	KindReplay = "replay"
)

// Spec is one declarative scenario. The zero value of every optional
// field means "engine default"; Validate reports what a spec actually
// resolved to. Specs are plain JSON (stdlib encoding/json — the
// zero-dependency contract holds) and parse strictly: unknown keys are
// errors, so a typo cannot silently drop a fault environment.
type Spec struct {
	// Name identifies the scenario: the campaign name (checkpoints only
	// resume a matching name), the journal event source, and the report
	// label.
	Name string `json:"name"`
	// Kind selects the trial shape; see the Kind constants. Default
	// "decode".
	Kind string `json:"kind,omitempty"`
	// Trials is the total trial budget across all clients.
	Trials int `json:"trials,omitempty"`
	// Seed drives every derived generator. The -seed flag overrides it.
	Seed int64 `json:"seed,omitempty"`
	// Code names the linecode registry scheme decode trials run through
	// (decode/replay kinds). Default "poly-m2005".
	Code string `json:"code,omitempty"`
	// Lines is the cacheline address space injected over (decode kind).
	// 0 means a single anonymous line (the soak shape): no address is
	// drawn and journal events carry the trial index instead.
	Lines int `json:"lines,omitempty"`
	// RowLines is the number of lines per DRAM row, the hot-row access
	// pattern's and the health engine's row arithmetic. Default 8.
	RowLines int `json:"row_lines,omitempty"`
	// TickNs is the virtual time per trial. 0 (default) stamps journal
	// events with wall-clock time; >0 runs the scenario on a virtual
	// clock from a fixed epoch, which is what makes closed-loop runs
	// replay-identical. Required for memctl, scrub, standing faults, and
	// non-uniform arrival processes.
	TickNs int64 `json:"tick_ns,omitempty"`
	// Selection picks how a trial chooses its client: "mix" (default —
	// one fraction-weighted draw per trial) or "block" (contiguous
	// index blocks per client, the Figure 4/5 stratification; no draw).
	Selection string `json:"selection,omitempty"`
	// Clients are the named traffic sources. Required except for replay.
	Clients []Client `json:"clients,omitempty"`
	// Phases partition the trial budget into named spans, each with its
	// own active client subset — the background/storm/recovery arc of
	// the self-healing soak. Empty means one phase with every client.
	Phases []Phase `json:"phases,omitempty"`
	// Scrub, when set, runs a virtual-clock patrol over the standing
	// fault set (sequential mode only).
	Scrub *ScrubSpec `json:"scrub,omitempty"`
	// Memctl, when enabled, closes the loop through the adaptive memory
	// controller: the scenario runs sequentially on the virtual clock,
	// every trial's journal events feed the controller, and its
	// decisions (quarantine, scrub escalation, model reorder, codec
	// migration) steer the next trial.
	Memctl *MemctlSpec `json:"memctl,omitempty"`
	// Replay points at the recorded journal a replay-kind scenario
	// re-runs.
	Replay *ReplaySpec `json:"replay,omitempty"`
	// Latency, when enabled, times every decode of the run (decode and
	// replay kinds): per-outcome-class, per-client, and per-phase
	// percentile digests land in the result. Timing consumes no seeded
	// randomness, so outcome counts stay bit-identical to an untimed
	// run at any worker count. The -latency flag enables it too.
	Latency *LatencySpec `json:"latency,omitempty"`
	// Notes is free-form documentation carried into reports.
	Notes string `json:"notes,omitempty"`
}

// Client is one named traffic source of a scenario.
type Client struct {
	// Name labels the client's outcome counts (client.<name>) and, for
	// programs/inference kinds, prefixes the per-client labels directly.
	Name string `json:"name"`
	// Label is an optional display name for reports (Figure 5's
	// "mobilenet-like/plain"); defaults to Name.
	Label string `json:"label,omitempty"`
	// Fraction is the client's share of the trial budget. All-zero
	// fractions mean equal shares; otherwise they must sum to 1.
	Fraction float64 `json:"fraction,omitempty"`
	// Arrival shapes the client's virtual arrival times (TickNs > 0
	// only). Default uniform.
	Arrival *Arrival `json:"arrival,omitempty"`
	// Access picks the line a trial touches (decode kind). Default
	// uniform over Lines.
	Access *Access `json:"access,omitempty"`
	// Faults is the client's fault environment. Default none (clean
	// traffic).
	Faults *FaultEnv `json:"faults,omitempty"`
	// Epochs switch the fault environment at trial-budget fractions —
	// the chip-failure-at-half-life shape. Sorted by From.
	Epochs []Epoch `json:"epochs,omitempty"`
	// Program names the synthetic workload of a programs-kind client
	// (workload.ByName). Defaults to Name.
	Program string `json:"program,omitempty"`
	// Inference configures an inference-kind client.
	Inference *InferenceSpec `json:"inference,omitempty"`
}

// Arrival is a client's arrival process on the virtual clock.
type Arrival struct {
	// Process: "uniform" (default; one trial per tick), "poisson"
	// (exponential jitter/inter-arrivals), or "gamma" (bursts of Burst
	// arrivals with exponential gaps between bursts).
	Process string `json:"process"`
	// Burst is the arrivals per burst for the gamma process (default 8).
	Burst int `json:"burst,omitempty"`
}

// Access is a client's address distribution over the line space.
type Access struct {
	// Pattern: "uniform" (default), "hotrow" (the rowhammer shape: a
	// victim row adjacent to the aggressor), "fixed" (one line), or
	// "zipf" (skewed popularity).
	Pattern string `json:"pattern"`
	// Line is the fixed pattern's target.
	Line int `json:"line,omitempty"`
	// Row is the hotrow pattern's aggressor row; <= 0 derives it from
	// the scenario seed (the storm soak's contract).
	Row int `json:"row,omitempty"`
	// ZipfS is the zipf pattern's skew exponent (> 1; default 1.2).
	ZipfS float64 `json:"zipf_s,omitempty"`
}

// FaultEnv is one fault environment: what corruption an access suffers.
type FaultEnv struct {
	// Kind: "none" (default), "in-model" (uniform over the paper's five
	// in-model injectors), "model" (one named injector — faults.New
	// names, e.g. "ssc", "chipkill", "dec:2", "random:4"), "rowhammer"
	// (a Centauri-distribution flip mask), or "rs-mask" (an
	// RS-miscorrection mask from the profiled pool; programs/inference
	// kinds only, where it is also the default).
	Kind string `json:"kind"`
	// Model is the injector name for kind "model".
	Model string `json:"model,omitempty"`
	// Rate is the per-access fault probability, (0,1]. Default 1 (every
	// access faults — the soak shape). The background-SSC-floor shape is
	// {"kind":"model","model":"ssc","rate":0.004}.
	Rate float64 `json:"rate,omitempty"`
	// Standing makes injected faults persist on their line (sequential
	// mode only): later accesses to the line see the accumulated
	// corruption until a scrub patrol heals it — the accumulate-and-
	// scrub dynamic of a real array.
	Standing bool `json:"standing,omitempty"`
}

// Epoch is one fault-environment switch point.
type Epoch struct {
	// From is the trial-budget fraction the environment takes effect at.
	From float64 `json:"from"`
	// Faults replaces the client's environment from that point on.
	Faults *FaultEnv `json:"faults"`
}

// Phase is one contiguous span of the trial budget.
type Phase struct {
	Name string `json:"name"`
	// Fraction is the phase's share of the budget; phases must sum to 1.
	Fraction float64 `json:"fraction"`
	// Clients are the names active during the phase (renormalized
	// fractions); empty means all clients.
	Clients []string `json:"clients,omitempty"`
}

// ScrubSpec is the sequential-mode patrol over standing faults.
type ScrubSpec struct {
	// IntervalMs is the virtual time between patrol sweeps.
	IntervalMs int64 `json:"interval_ms"`
}

// MemctlSpec closes the loop through the adaptive memory controller.
type MemctlSpec struct {
	Enabled bool `json:"enabled"`
	// RegionLines is the controller's region granularity in lines
	// (default 64, matching the self-healing soak's health config).
	RegionLines int `json:"region_lines,omitempty"`
}

// LatencySpec turns on per-run latency recording.
type LatencySpec struct {
	Enabled bool `json:"enabled"`
}

// ReplaySpec points a replay scenario at its recorded journal.
type ReplaySpec struct {
	// Path is the journal JSONL file to re-run. Callers may instead
	// preload events via Opts.ReplayEvents.
	Path string `json:"path,omitempty"`
}

// InferenceSpec configures one inference-kind client.
type InferenceSpec struct {
	// Activation: "relu" (default) or "square" (the FHE stand-in).
	Activation string `json:"activation,omitempty"`
	// Samples is the evaluation dataset size (default 500).
	Samples int `json:"samples,omitempty"`
	// Amplify runs the client's weight memory encrypted, so every
	// corruption diffuses across its AES block.
	Amplify bool `json:"amplify,omitempty"`
}

// Parse reads a spec from JSON, rejecting unknown keys — a misspelled
// field is an error, never a silently-dropped fault environment.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	// Trailing garbage after the spec object is an error too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseFile reads and validates a spec file.
func ParseFile(path string) (*Spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// MarshalIndent renders the spec as the canonical checked-in JSON form.
func (s *Spec) MarshalIndent() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// fractionSlack tolerates float accumulation when checking that
// fractions sum to 1.
const fractionSlack = 1e-6

// Defaulted fields the engine resolves; applyDefaults is idempotent.
func (s *Spec) applyDefaults() {
	if s.Kind == "" {
		s.Kind = KindDecode
	}
	if s.Code == "" && (s.Kind == KindDecode || s.Kind == KindReplay) {
		s.Code = "poly-m2005"
	}
	if s.RowLines <= 0 {
		s.RowLines = 8
	}
	if s.Selection == "" {
		if s.Kind == KindPrograms || s.Kind == KindInference {
			s.Selection = "block"
		} else {
			s.Selection = "mix"
		}
	}
}

// Sequential reports whether the scenario must run on the single-
// threaded virtual-clock loop: closed-loop memctl, scrub patrols,
// standing faults, and non-uniform arrival processes all need globally
// ordered time. A replay's clock is its recorded timestamps; only the
// controller loop needs them in order.
func (s *Spec) Sequential() bool {
	if s.Memctl != nil && s.Memctl.Enabled {
		return true
	}
	if s.Kind == KindReplay {
		return false
	}
	if s.Scrub != nil {
		return true
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Arrival != nil && c.Arrival.Process != "" && c.Arrival.Process != "uniform" {
			return true
		}
		if c.Faults != nil && c.Faults.Standing {
			return true
		}
		for _, e := range c.Epochs {
			if e.Faults != nil && e.Faults.Standing {
				return true
			}
		}
	}
	return false
}

// Validate checks the spec against the schema contract and resolves
// defaults in place. It is called by Parse and again by Run, so a
// hand-built spec gets the same scrutiny as a file.
func (s *Spec) Validate() error {
	s.applyDefaults()
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	switch s.Kind {
	case KindDecode, KindPrograms, KindInference, KindReplay:
	default:
		return fmt.Errorf("scenario %q: unknown kind %q (one of: %s, %s, %s, %s)",
			s.Name, s.Kind, KindDecode, KindPrograms, KindInference, KindReplay)
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario %q: negative trial budget %d", s.Name, s.Trials)
	}
	if s.Kind == KindReplay {
		if len(s.Clients) > 0 {
			return fmt.Errorf("scenario %q: replay scenarios take their schedule from the journal, not clients", s.Name)
		}
	} else if len(s.Clients) == 0 {
		return fmt.Errorf("scenario %q: at least one client required", s.Name)
	}
	switch s.Selection {
	case "mix", "block":
	default:
		return fmt.Errorf("scenario %q: unknown selection %q (mix or block)", s.Name, s.Selection)
	}
	if s.Code != "" {
		if err := linecode.CheckName(s.Code); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Lines < 0 {
		return fmt.Errorf("scenario %q: negative line space %d", s.Name, s.Lines)
	}
	if s.TickNs < 0 {
		return fmt.Errorf("scenario %q: negative tick %d", s.Name, s.TickNs)
	}
	if s.Scrub != nil && s.Scrub.IntervalMs <= 0 {
		return fmt.Errorf("scenario %q: scrub interval_ms must be positive", s.Name)
	}
	if s.Memctl != nil && s.Memctl.Enabled && s.Kind != KindDecode && s.Kind != KindReplay {
		return fmt.Errorf("scenario %q: memctl closes the loop over decode or replay scenarios only", s.Name)
	}
	if s.Latency != nil && s.Latency.Enabled && s.Kind != KindDecode && s.Kind != KindReplay {
		return fmt.Errorf("scenario %q: latency recording times the decode path — decode or replay scenarios only", s.Name)
	}
	if s.Kind == KindReplay && (s.Replay == nil || s.Replay.Path == "") {
		// Opts.ReplayEvents may still supply the schedule; flag the
		// common authoring mistake only when both are absent at Run.
		if s.Replay == nil {
			s.Replay = &ReplaySpec{}
		}
	}

	if err := s.validateClients(); err != nil {
		return err
	}
	// After the per-client checks, so a bad arrival spelling gets its own
	// diagnostic rather than this blanket one. Replay is exempt: its
	// virtual clock is the recorded timestamps.
	if s.Sequential() && s.TickNs == 0 && s.Kind != KindReplay {
		return fmt.Errorf("scenario %q: memctl/scrub/standing faults need a virtual clock — set tick_ns", s.Name)
	}
	return s.validatePhases()
}

func (s *Spec) validateClients() error {
	seen := make(map[string]bool, len(s.Clients))
	sum, allZero := 0.0, true
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Name == "" {
			return fmt.Errorf("scenario %q: client %d needs a name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario %q: duplicate client %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Fraction < 0 {
			return fmt.Errorf("scenario %q: client %q: negative fraction %g", s.Name, c.Name, c.Fraction)
		}
		if c.Fraction > 0 {
			allZero = false
		}
		sum += c.Fraction
		if err := s.validateClient(c); err != nil {
			return err
		}
	}
	if !allZero && math.Abs(sum-1) > fractionSlack {
		return fmt.Errorf("scenario %q: client fractions sum to %g, want 1 (or all zero for equal shares)", s.Name, sum)
	}
	return nil
}

func (s *Spec) validateClient(c *Client) error {
	where := fmt.Sprintf("scenario %q: client %q", s.Name, c.Name)
	if c.Arrival != nil {
		switch c.Arrival.Process {
		case "", "uniform":
		case "poisson", "gamma":
			if s.TickNs == 0 {
				return fmt.Errorf("%s: %s arrivals need tick_ns", where, c.Arrival.Process)
			}
		default:
			return fmt.Errorf("%s: unknown arrival process %q (uniform, poisson, gamma)", where, c.Arrival.Process)
		}
		if c.Arrival.Burst < 0 {
			return fmt.Errorf("%s: negative burst size", where)
		}
	}
	if c.Access != nil {
		switch c.Access.Pattern {
		case "", "uniform":
		case "fixed":
			if c.Access.Line < 0 || (s.Lines > 0 && c.Access.Line >= s.Lines) {
				return fmt.Errorf("%s: fixed line %d outside [0,%d)", where, c.Access.Line, s.Lines)
			}
		case "hotrow":
			if s.Lines < 3*s.RowLines {
				return fmt.Errorf("%s: hotrow needs lines >= 3*row_lines (%d < %d)", where, s.Lines, 3*s.RowLines)
			}
			if rows := s.Lines / s.RowLines; c.Access.Row >= rows-1 {
				return fmt.Errorf("%s: aggressor row %d needs both neighbours inside %d rows", where, c.Access.Row, rows)
			}
		case "zipf":
			if c.Access.ZipfS != 0 && c.Access.ZipfS <= 1 {
				return fmt.Errorf("%s: zipf_s must be > 1, got %g", where, c.Access.ZipfS)
			}
			if s.Lines <= 0 {
				return fmt.Errorf("%s: zipf access needs a line space", where)
			}
		default:
			return fmt.Errorf("%s: unknown access pattern %q (uniform, hotrow, fixed, zipf)", where, c.Access.Pattern)
		}
		if s.Kind != KindDecode {
			return fmt.Errorf("%s: access patterns apply to decode scenarios only", where)
		}
	}
	envs := []*FaultEnv{c.Faults}
	lastFrom := -1.0
	for _, e := range c.Epochs {
		if e.From < 0 || e.From >= 1 {
			return fmt.Errorf("%s: epoch from=%g outside [0,1)", where, e.From)
		}
		if e.From <= lastFrom {
			return fmt.Errorf("%s: epochs must be sorted by from", where)
		}
		lastFrom = e.From
		if e.Faults == nil {
			return fmt.Errorf("%s: epoch at %g needs a fault environment", where, e.From)
		}
		envs = append(envs, e.Faults)
	}
	for _, env := range envs {
		if env == nil {
			continue
		}
		if err := s.validateEnv(where, env); err != nil {
			return err
		}
	}
	switch s.Kind {
	case KindPrograms:
		prog := c.Program
		if prog == "" {
			prog = c.Name
		}
		if workload.ByName(prog) == nil {
			return fmt.Errorf("%s: unknown program %q", where, prog)
		}
		if c.Inference != nil {
			return fmt.Errorf("%s: inference config on a programs client", where)
		}
	case KindInference:
		inf := c.Inference
		if inf == nil {
			inf = &InferenceSpec{}
		}
		switch inf.Activation {
		case "", "relu", "square":
		default:
			return fmt.Errorf("%s: unknown activation %q (relu or square)", where, inf.Activation)
		}
		if inf.Samples < 0 {
			return fmt.Errorf("%s: negative sample count", where)
		}
		if c.Program != "" {
			return fmt.Errorf("%s: program named on an inference client", where)
		}
	}
	return nil
}

func (s *Spec) validateEnv(where string, env *FaultEnv) error {
	if env.Rate < 0 || env.Rate > 1 {
		return fmt.Errorf("%s: fault rate %g outside [0,1]", where, env.Rate)
	}
	switch env.Kind {
	case "", "none":
	case "in-model", "rowhammer":
		if s.Kind != KindDecode && s.Kind != KindReplay {
			return fmt.Errorf("%s: %q faults apply to decode scenarios", where, env.Kind)
		}
	case "model":
		if s.Kind != KindDecode && s.Kind != KindReplay {
			return fmt.Errorf("%s: %q faults apply to decode scenarios", where, env.Kind)
		}
		if _, err := faults.New(env.Model, dram.WordGeometry{SymbolBits: 8}); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	case "rs-mask":
		if s.Kind != KindPrograms && s.Kind != KindInference {
			return fmt.Errorf("%s: rs-mask faults apply to programs/inference scenarios", where)
		}
	default:
		return fmt.Errorf("%s: unknown fault kind %q (none, in-model, model, rowhammer, rs-mask)", where, env.Kind)
	}
	if env.Standing && env.Kind != "" && env.Kind != "none" && s.Kind != KindDecode {
		return fmt.Errorf("%s: standing faults apply to decode scenarios", where)
	}
	return nil
}

func (s *Spec) validatePhases() error {
	if len(s.Phases) == 0 {
		return nil
	}
	if s.Kind != KindDecode {
		return fmt.Errorf("scenario %q: phases apply to decode scenarios", s.Name)
	}
	if s.Selection == "block" {
		return fmt.Errorf("scenario %q: phases and block selection both partition the budget — pick one", s.Name)
	}
	byName := make(map[string]bool, len(s.Clients))
	for i := range s.Clients {
		byName[s.Clients[i].Name] = true
	}
	sum := 0.0
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("scenario %q: phase %d needs a name", s.Name, i)
		}
		if p.Fraction <= 0 {
			return fmt.Errorf("scenario %q: phase %q needs a positive fraction", s.Name, p.Name)
		}
		sum += p.Fraction
		for _, cn := range p.Clients {
			if !byName[cn] {
				return fmt.Errorf("scenario %q: phase %q references unknown client %q", s.Name, p.Name, cn)
			}
		}
	}
	if math.Abs(sum-1) > fractionSlack {
		return fmt.Errorf("scenario %q: phase fractions sum to %g, want 1", s.Name, sum)
	}
	return nil
}

// SetBudget scales the spec to a budget of n trials (the -n flag): per
// client for the block-stratified kinds (the figure campaigns), total
// otherwise.
func (s *Spec) SetBudget(n int) {
	if n <= 0 {
		return
	}
	s.applyDefaults() // the block/mix decision must be resolved before scaling
	if s.Selection == "block" && (s.Kind == KindPrograms || s.Kind == KindInference) {
		s.Trials = n * len(s.Clients)
	} else {
		s.Trials = n
	}
}

// fractions returns the effective client shares (equal when all zero).
func clientFractions(clients []Client) []float64 {
	fr := make([]float64, len(clients))
	allZero := true
	for i := range clients {
		fr[i] = clients[i].Fraction
		if fr[i] > 0 {
			allZero = false
		}
	}
	if allZero {
		for i := range fr {
			fr[i] = 1 / float64(len(fr))
		}
	}
	return fr
}

// boundaries splits n trials across shares by rounding the cumulative
// fraction — exact for equal shares, monotone always. boundaries[k] is
// the first index past share k.
func boundaries(n int, shares []float64) []int {
	out := make([]int, len(shares))
	cum := 0.0
	prev := 0
	for i, f := range shares {
		cum += f
		b := int(math.Round(cum * float64(n)))
		if b < prev {
			b = prev
		}
		if b > n {
			b = n
		}
		out[i] = b
		prev = b
	}
	if len(out) > 0 {
		out[len(out)-1] = n
	}
	return out
}

// Summary is the JSON-friendly digest of a spec embedded in run
// summaries and rendered by cmd/eccreport's Scenario section.
type Summary struct {
	Name    string          `json:"name"`
	Kind    string          `json:"kind"`
	Trials  int             `json:"trials"`
	Seed    int64           `json:"seed"`
	Code    string          `json:"code,omitempty"`
	Lines   int             `json:"lines,omitempty"`
	Tick    string          `json:"tick,omitempty"`
	Memctl  bool            `json:"memctl,omitempty"`
	Latency bool            `json:"latency,omitempty"`
	Preset  string          `json:"preset,omitempty"` // built-in preset the run used, "" for spec files
	Notes   string          `json:"notes,omitempty"`
	Clients []ClientSummary `json:"clients,omitempty"`
	Phases  []string        `json:"phases,omitempty"`
}

// ClientSummary is one client's digest line.
type ClientSummary struct {
	Name     string  `json:"name"`
	Fraction float64 `json:"fraction"`
	Arrival  string  `json:"arrival,omitempty"`
	Access   string  `json:"access,omitempty"`
	Faults   string  `json:"faults,omitempty"`
}

// Summarize digests the spec for reports.
func (s *Spec) Summarize() *Summary {
	sum := &Summary{
		Name: s.Name, Kind: s.Kind, Trials: s.Trials, Seed: s.Seed,
		Code: s.Code, Lines: s.Lines, Notes: s.Notes,
		Memctl:  s.Memctl != nil && s.Memctl.Enabled,
		Latency: s.Latency != nil && s.Latency.Enabled,
	}
	if s.TickNs > 0 {
		sum.Tick = time.Duration(s.TickNs).String()
	}
	fr := clientFractions(s.Clients)
	for i := range s.Clients {
		c := &s.Clients[i]
		cs := ClientSummary{Name: c.Name, Fraction: fr[i]}
		if c.Arrival != nil && c.Arrival.Process != "" {
			cs.Arrival = c.Arrival.Process
		} else {
			cs.Arrival = "uniform"
		}
		if c.Access != nil && c.Access.Pattern != "" {
			cs.Access = c.Access.Pattern
		} else if s.Kind == KindDecode {
			cs.Access = "uniform"
		}
		cs.Faults = envLabel(c.Faults)
		for _, e := range c.Epochs {
			cs.Faults += fmt.Sprintf(" | from %g: %s", e.From, envLabel(e.Faults))
		}
		sum.Clients = append(sum.Clients, cs)
	}
	for _, p := range s.Phases {
		label := fmt.Sprintf("%s (%g%%)", p.Name, 100*p.Fraction)
		if len(p.Clients) > 0 {
			label += ": " + strings.Join(p.Clients, ",")
		}
		sum.Phases = append(sum.Phases, label)
	}
	return sum
}

func envLabel(env *FaultEnv) string {
	if env == nil || env.Kind == "" || env.Kind == "none" {
		return "none"
	}
	label := env.Kind
	if env.Model != "" {
		label += ":" + env.Model
	}
	if env.Rate > 0 && env.Rate < 1 {
		label += fmt.Sprintf("@%g", env.Rate)
	}
	if env.Standing {
		label += "+standing"
	}
	return label
}

// inferenceDefaults resolves an inference client's configuration.
func inferenceDefaults(c *Client) (act inference.Activation, samples int, amplify bool) {
	inf := c.Inference
	if inf == nil {
		inf = &InferenceSpec{}
	}
	act = inference.ReLU
	if inf.Activation == "square" {
		act = inference.Square
	}
	samples = inf.Samples
	if samples == 0 {
		samples = 500
	}
	return act, samples, inf.Amplify
}
