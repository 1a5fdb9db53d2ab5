// Package polyecc is a from-scratch Go implementation of Polymorphic ECC
// (Manzhosov & Sethumadhavan, "Polymorphic Error Correction", MICRO 2024):
// a memory error-correction scheme that pairs an inlined cryptographic
// MAC per 64-byte cacheline with a systematic residue code per DDR5
// codeword, and corrects errors *iteratively* by reinterpreting the same
// residue remainder under many fault models — redundancy polymorphism.
//
// The package is a facade over the internal implementation. A minimal
// round trip:
//
//	code, _ := polyecc.New(polyecc.ConfigM2005(), polyecc.NewSipHashMAC(key, 40))
//	line := code.EncodeLine(&data)           // data is a *[64]byte
//	line.Words[0] = line.Words[0].FlipBit(12) // memory goes wrong
//	got, report := code.DecodeLine(line)     // got == data again
//
// Configurations follow the paper's Table IV: ConfigM511 (56-bit MAC,
// single-symbol correction), ConfigM1021 (48-bit MAC, adds double-bit
// errors), ConfigM2005 (40-bit MAC, adds double bounded faults and
// ChipKill+1), and ConfigM131049 (16-bit symbols, 60-bit MAC).
//
// For experiments that inject physical faults, Code.ToBurst and
// Code.FromBurst move encoded lines across a modelled 40-bit DDR5
// sub-channel; the Sim* helpers expose the paper's fault models.
//
// The decode path is observable: attach a DecodeMetrics collector
// (Config.Metrics) for outcome/per-model counters and the iteration
// histogram, a TraceFunc (Config.Trace) for per-trial events, and a
// LatencyCollector's probe (Config.Latency) for per-outcome encode and
// decode time histograms — the probe is the only clock, and only a
// probed Code stamps Report.Elapsed. Serve everything live with
// ServeMetrics (/debug/vars + /debug/pprof). All three are strictly
// opt-in; an uninstrumented Code pays nothing.
package polyecc

import (
	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/latency"
	"polyecc/internal/mac"
	"polyecc/internal/poly"
	"polyecc/internal/telemetry"
)

// LineBytes is the protected cacheline size.
const LineBytes = poly.LineBytes

// Core types, re-exported from the implementation.
type (
	// Config selects a Polymorphic ECC instance (multiplier, symbol
	// geometry, fault-model order, iteration budget, ablation knobs).
	Config = poly.Config
	// Code is a ready-to-use Polymorphic ECC instance.
	Code = poly.Code
	// Line is an encoded cacheline: one residue codeword per DDR5 slice
	// with the MAC distributed across the codewords.
	Line = poly.Line
	// Report describes what DecodeLine did.
	Report = poly.Report
	// Status classifies a decode outcome.
	Status = poly.Status
	// FaultModel identifies one error family the corrector can
	// reinterpret a remainder under.
	FaultModel = poly.FaultModel
	// MAC computes a keyed tag of at most 64 bits; any implementation
	// can fill the inlined-MAC slot (§IV of the paper).
	MAC = mac.MAC
	// Burst is the 640 bits a DDR5 ECC sub-channel transfers per
	// cacheline, the injection surface for physical fault models.
	Burst = dram.Burst
	// Injector corrupts a burst according to one fault model.
	Injector = faults.Injector

	// DecodeMetrics collects live decode-path telemetry: outcome
	// counters, per-fault-model trial/hit counters, and the iteration
	// histogram. Attach one via Config.Metrics and publish it to
	// /debug/vars with its Publish method.
	DecodeMetrics = telemetry.DecodeMetrics
	// LatencyCollector keeps allocation-free encode and decode time
	// histograms per outcome class (encode, clean, corrected,
	// uncorrectable). Attach a probe via Config.Latency =
	// collector.Probe() (one probe per goroutine; Probe.Fork mints
	// more), read per-class percentiles from Payload().Ops (keyed
	// "encode", "clean", "corrected", "uncorrectable"), and publish
	// them to /debug/vars with Publish.
	LatencyCollector = latency.Collector
	// TraceEvent describes one candidate application within a
	// correction trial (Config.Trace receives these).
	TraceEvent = poly.TraceEvent
	// TraceFunc observes correction trials; nil hooks cost nothing.
	TraceFunc = poly.TraceFunc
	// Scratch is reusable per-goroutine encode/decode working memory:
	// thread one through Code.EncodeLineScratch, Code.FromBurstScratch,
	// and Code.DecodeLineScratch (one goroutine at a time) and the hot
	// path performs no heap allocation. Build with Code.NewScratch.
	Scratch = poly.Scratch
	// Result pairs one decode's output with its input index — what
	// Code.DecodeLines produces per line.
	Result = poly.Result
)

// Decode statuses.
const (
	StatusClean         = poly.StatusClean
	StatusCorrected     = poly.StatusCorrected
	StatusUncorrectable = poly.StatusUncorrectable
)

// Fault models.
const (
	ModelChipKill      = poly.ModelChipKill
	ModelSSC           = poly.ModelSSC
	ModelDEC           = poly.ModelDEC
	ModelBFBF          = poly.ModelBFBF
	ModelChipKillPlus1 = poly.ModelChipKillPlus1
)

// New builds a Code from a configuration and a MAC whose width matches
// the configuration's free MAC bits.
func New(cfg Config, m MAC) (*Code, error) { return poly.New(cfg, m) }

// MustNew is New for known-good configurations.
func MustNew(cfg Config, m MAC) *Code { return poly.MustNew(cfg, m) }

// ConfigM511 is the 8-bit-symbol code with the smallest multiplier and a
// 56-bit cacheline MAC (single-symbol correction only).
func ConfigM511() Config { return poly.ConfigM511() }

// ConfigM1021 is the 8-bit-symbol code with a 48-bit MAC that also
// supports double-bit errors.
func ConfigM1021() Config { return poly.ConfigM1021() }

// ConfigM2005 is the paper's flagship configuration: 40-bit MAC and
// support for SSC, DEC, BF+BF, and ChipKill+1.
func ConfigM2005() Config { return poly.ConfigM2005() }

// ConfigM131049 is the 16-bit-symbol configuration with a 60-bit MAC.
func ConfigM131049() Config { return poly.ConfigM131049() }

// NewDecodeMetrics builds a decode-telemetry collector with the default
// bucket layout; share it across Codes and goroutines freely.
func NewDecodeMetrics() *DecodeMetrics { return telemetry.NewDecodeMetrics() }

// NewLatencyCollector builds an empty encode/decode timing collector.
func NewLatencyCollector() *LatencyCollector { return latency.NewCollector() }

// ServeMetrics starts the observability HTTP server (/debug/vars with
// every published collector plus /debug/pprof) on addr in a background
// goroutine, returning the resolved listen address.
func ServeMetrics(addr string) (string, error) { return telemetry.StartServer(addr, nil, nil) }

// NewSipHashMAC returns a SipHash-2-4 MAC truncated to bits — the fast
// software default.
func NewSipHashMAC(key [16]byte, bits int) MAC { return mac.MustSipHash(key, bits) }

// NewQarmaMAC returns a QARMA-style chained MAC truncated to bits —
// modelling the hardware MAC unit of the paper's Table VI.
func NewQarmaMAC(key [16]byte, bits int) MAC { return mac.MustQarma(key, bits) }

// Simulation fault models over DDR5 bursts (§VIII-B of the paper). The
// geometry is derived from the code's symbol width.

// SimChipKill returns a whole-device-failure injector.
func SimChipKill(c *Code) Injector {
	return faults.ChipKill{Geometry: simGeo(c)}
}

// SimSSC returns an independent single-symbol-error injector.
func SimSSC(c *Code) Injector {
	return faults.SSC{Geometry: simGeo(c)}
}

// SimDEC returns a double-bit-error injector corrupting words codewords
// per cacheline (0 = all).
func SimDEC(c *Code, words int) Injector {
	return faults.DEC{Geometry: simGeo(c), Words: words}
}

// SimBFBF returns a double-bounded-fault injector.
func SimBFBF(c *Code) Injector {
	return faults.BFBF{Geometry: simGeo(c)}
}

// SimChipKillPlus1 returns a device-failure-plus-stuck-pin injector.
func SimChipKillPlus1(c *Code) Injector {
	return faults.ChipKillPlus1{Geometry: simGeo(c)}
}

// SimRandomBits returns an injector flipping exactly n random wire bits.
func SimRandomBits(n int) Injector { return faults.RandomBits{N: n} }

func simGeo(c *Code) dram.WordGeometry {
	return dram.WordGeometry{SymbolBits: c.Geometry().SymbolBits}
}
