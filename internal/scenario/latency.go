package scenario

import (
	"sync/atomic"
	"time"

	"polyecc/internal/latency"
)

// runLat is one run's latency state: the collector and the wall-clock
// window each phase's decodes spanned. A nil *runLat is the disabled
// state.
type runLat struct {
	coll   *latency.Collector
	clocks []phaseClock
}

// newRunLat resolves the run's latency collector: a caller-supplied
// Opts.Latency wins (the -latency flag shape, where the collector is
// also published and served); a spec latency stanza without one gets a
// private collector so the digest still lands in the result.
func newRunLat(s *Spec, opts Opts, p *plan) *runLat {
	coll := opts.Latency
	if coll == nil && s.Latency != nil && s.Latency.Enabled {
		coll = latency.NewCollector()
	}
	if coll == nil {
		return nil
	}
	return &runLat{coll: coll, clocks: make([]phaseClock, len(p.phases))}
}

// digest assembles the result digest; nil when latency is off.
func (rl *runLat) digest(p *plan) *LatencyDigest {
	if rl == nil {
		return nil
	}
	return latDigest(rl.coll, phaseWall(rl.clocks, p))
}

// workerLat is one goroutine's latency handles: a probe for its codes
// and private stripes on the per-client and per-phase histograms,
// indexed by the plan's client and phase positions, so attribution is
// two slice lookups and two uncontended atomic observes — no RNG
// consumed, so outcome counts stay bit-identical at any worker count.
// A nil *workerLat discards everything.
type workerLat struct {
	probe   *latency.Probe
	clients []*latency.Stripe
	phases  []*latency.Stripe
	clocks  []phaseClock
}

func (rl *runLat) worker(p *plan) *workerLat {
	if rl == nil {
		return nil
	}
	s := p.spec
	wl := &workerLat{
		probe:   rl.coll.Probe(),
		clients: make([]*latency.Stripe, len(s.Clients)),
		phases:  make([]*latency.Stripe, len(p.phases)),
		clocks:  rl.clocks,
	}
	for i := range s.Clients {
		wl.clients[i] = rl.coll.Client(s.Clients[i].Name).Handle()
	}
	for i := range p.phases {
		wl.phases[i] = rl.coll.Phase(p.phases[i].name).Handle()
	}
	return wl
}

// observe attributes one decode's elapsed time (stamped because the
// probe instruments the code) to its client, when it has one, and its
// phase, and widens the phase's wall-clock window.
func (wl *workerLat) observe(st *step, d time.Duration) {
	if wl == nil {
		return
	}
	if st.client >= 0 {
		wl.clients[st.client].Observe(d)
	}
	wl.phases[st.phase].Observe(d)
	wl.clocks[st.phase].stamp(time.Now().UnixNano())
}

// phaseClock tracks the wall-clock window of one phase's trials across
// workers: CAS-min on the earliest stamp, CAS-max on the latest. A zero
// first means the phase never ran (e.g. a resumed campaign skipped it).
type phaseClock struct {
	first atomic.Int64
	last  atomic.Int64
}

func (pc *phaseClock) stamp(now int64) {
	for {
		f := pc.first.Load()
		if f != 0 && f <= now {
			break
		}
		if pc.first.CompareAndSwap(f, now) {
			break
		}
	}
	for {
		l := pc.last.Load()
		if l >= now {
			break
		}
		if pc.last.CompareAndSwap(l, now) {
			break
		}
	}
}

// wall renders the clocks into a per-phase wall-clock map (ms).
func phaseWall(clocks []phaseClock, p *plan) map[string]float64 {
	wall := map[string]float64{}
	for i := range clocks {
		f, l := clocks[i].first.Load(), clocks[i].last.Load()
		if f == 0 || l < f {
			continue
		}
		wall[p.phases[i].name] = float64(l-f) / 1e6
	}
	return wall
}

// LatencyDigest is the run-level latency summary embedded in Result
// (and through it in faultinject -summary documents): the standard
// percentile set per operation class, client, and phase, the wall-clock
// window each phase's trials spanned, and the clean-vs-corrected bucket
// overlay eccreport charts.
type LatencyDigest struct {
	latency.Payload
	PhaseWallMs map[string]float64 `json:"phase_wall_ms,omitempty"`
	Overlay     *LatencyOverlay    `json:"overlay,omitempty"`
}

// LatencyOverlay is the non-empty-bucket dump of the clean and
// corrected decode histograms — the raw material of the clean-vs-
// faulted latency distribution chart.
type LatencyOverlay struct {
	Clean     []latency.BucketCount `json:"clean,omitempty"`
	Corrected []latency.BucketCount `json:"corrected,omitempty"`
}

// latDigest assembles the result digest from a run's collector. A nil
// collector (latency not enabled) digests to nil, keeping summaries
// byte-identical to pre-latency runs.
func latDigest(coll *latency.Collector, wall map[string]float64) *LatencyDigest {
	if coll == nil {
		return nil
	}
	d := &LatencyDigest{Payload: coll.Payload()}
	if len(wall) > 0 {
		d.PhaseWallMs = wall
	}
	var snap latency.Snapshot
	ov := &LatencyOverlay{}
	coll.Op(latency.OpDecodeClean).Snapshot(&snap)
	ov.Clean = snap.NonEmptyBuckets()
	coll.Op(latency.OpDecodeCorrected).Snapshot(&snap)
	ov.Corrected = snap.NonEmptyBuckets()
	if len(ov.Clean) > 0 || len(ov.Corrected) > 0 {
		d.Overlay = ov
	}
	return d
}
