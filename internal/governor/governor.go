// Package governor is the watermark-based resource governor behind the
// serving tier's graceful degradation: a byte budget with High and
// Critical watermarks, a set of tracked consumers (hot-cache occupancy,
// engine arena footprints, queue depths — anything that can report its
// bytes), and a ladder of degradation steps that engage as observed
// pressure crosses each step's watermark and release — in reverse
// order — as pressure drains back below it, with hysteresis so the
// system does not flap at a boundary.
//
// The governor itself is policy-free: it observes, classifies the
// pressure into a band, and invokes the registered steps. What a step
// does (shrink the hot cache, cap arena growth, shed Batch-class
// admission) is the caller's wiring — see internal/serve. Steps engage
// lowest watermark first and release highest first, so the cheapest
// remediation is always tried before load shedding and the most
// aggressive one is always undone first on recovery.
package governor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Band classifies observed pressure against the watermarks.
type Band int32

const (
	// BandNormal: pressure below the High watermark; no remediation.
	BandNormal Band = iota
	// BandHigh: pressure at or above the High watermark; resource
	// remediation (cache shrink, arena caps) is engaged but no load is
	// shed.
	BandHigh
	// BandCritical: pressure at or above the Critical watermark;
	// admission shedding engages, lowest class first.
	BandCritical
)

// String names the band for stats, metrics labels and dashboards.
func (b Band) String() string {
	switch b {
	case BandNormal:
		return "normal"
	case BandHigh:
		return "high"
	case BandCritical:
		return "critical"
	default:
		return fmt.Sprintf("band(%d)", int32(b))
	}
}

// Defaults for Config zero values.
const (
	DefaultHighFrac     = 0.75
	DefaultCriticalFrac = 0.90
	DefaultHysteresis   = 0.05
	DefaultInterval     = 100 * time.Millisecond
)

// Config shapes a governor. The zero value of every field except
// BudgetBytes defaults sensibly; a zero or negative BudgetBytes means
// "no governor" and callers should not construct one.
type Config struct {
	// BudgetBytes is the byte budget the tracked consumers must fit in.
	// Must be positive.
	BudgetBytes int64
	// HighFrac and CriticalFrac place the watermarks as fractions of
	// the budget (zero means the defaults 0.75 and 0.90). Both must lie
	// in (0, 1] and CriticalFrac must be at or above HighFrac; New
	// rejects any other setting instead of repairing it.
	HighFrac     float64
	CriticalFrac float64
	// Hysteresis is how far below a watermark pressure must fall before
	// the band drops back and the watermark's steps release (default
	// 0.05). Prevents flapping when pressure sits at a boundary.
	Hysteresis float64
	// Interval is the background observation cadence (default 100ms).
	// Tests can drive the governor manually with Observe instead of
	// Start.
	Interval time.Duration
}

// withDefaults fills zero fields and rejects settings that make no
// sense: a non-positive budget, a watermark outside (0, 1], or a
// Critical watermark below the High one.
func (c Config) withDefaults() (Config, error) {
	if c.BudgetBytes <= 0 {
		return c, fmt.Errorf("governor: BudgetBytes = %d", c.BudgetBytes)
	}
	if c.HighFrac == 0 {
		c.HighFrac = DefaultHighFrac
	}
	if c.CriticalFrac == 0 {
		c.CriticalFrac = DefaultCriticalFrac
	}
	if c.HighFrac < 0 || c.HighFrac > 1 || c.CriticalFrac < 0 || c.CriticalFrac > 1 {
		return c, fmt.Errorf("governor: watermarks High %v / Critical %v outside (0, 1]", c.HighFrac, c.CriticalFrac)
	}
	if c.CriticalFrac < c.HighFrac {
		return c, fmt.Errorf("governor: CriticalFrac %v below HighFrac %v", c.CriticalFrac, c.HighFrac)
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	return c, nil
}

// consumer is one tracked byte source.
type consumer struct {
	name  string
	bytes func() int64
	last  int64 // bytes at the most recent observation (under mu)
}

// step is one rung of the degradation ladder.
type step struct {
	name    string
	frac    float64
	apply   func(pressure float64)
	release func()
	engaged bool
}

// ConsumerBytes is one consumer's share of a Snapshot.
type ConsumerBytes struct {
	Name  string
	Bytes int64
}

// StepState is one ladder step's state in a Snapshot.
type StepState struct {
	Name    string
	Frac    float64
	Engaged bool
}

// Snapshot is one observation's result: the band, the tracked total
// against the budget, and the per-consumer / per-step detail.
type Snapshot struct {
	Band         Band
	BudgetBytes  int64
	TrackedBytes int64
	// Pressure is TrackedBytes / BudgetBytes.
	Pressure float64
	// PeakBand is the highest band ever reached (never resets).
	PeakBand  Band
	Consumers []ConsumerBytes
	Steps     []StepState
	// Observations counts ticks; Transitions counts upward band
	// changes (both monotonic).
	Observations int64
	Transitions  int64
}

// Governor observes tracked consumers against a byte budget and drives
// the registered degradation ladder. Track/AddStep/OnTick must all be
// called before Start; Observe, Band, Snapshot, SetBudget and Close are
// safe for concurrent use afterwards.
type Governor struct {
	mu        sync.Mutex
	cfg       Config
	budget    atomic.Int64
	consumers []consumer
	steps     []step // sorted by frac ascending
	onTick    []func(Snapshot)

	band        atomic.Int32
	peakBand    atomic.Int32
	tracked     atomic.Int64
	observes    atomic.Int64
	transitions atomic.Int64

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a governor over the given budget. A non-positive
// BudgetBytes is rejected — "no budget" means "no governor", which
// callers express by not constructing one — and so are watermarks that
// make no sense (see Config).
func New(cfg Config) (*Governor, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Governor{
		cfg:  norm,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	g.budget.Store(norm.BudgetBytes)
	return g, nil
}

// HighFrac returns the normalized High watermark: where ladder steps
// that remediate resources without shedding belong.
func (g *Governor) HighFrac() float64 { return g.cfg.HighFrac }

// CriticalFrac returns the normalized Critical watermark.
func (g *Governor) CriticalFrac() float64 { return g.cfg.CriticalFrac }

// Track registers a byte source under the budget. Not safe after
// Start.
func (g *Governor) Track(name string, bytes func() int64) {
	g.mu.Lock()
	g.consumers = append(g.consumers, consumer{name: name, bytes: bytes})
	g.mu.Unlock()
}

// AddStep registers one rung of the degradation ladder at the given
// pressure fraction. apply runs on every observation while pressure is
// at or above frac (so a step can remediate adaptively, shrinking
// further as pressure keeps rising); release runs once when pressure
// falls below frac − Hysteresis. Steps engage in ascending frac order
// and release in descending order. Not safe after Start.
func (g *Governor) AddStep(name string, frac float64, apply func(pressure float64), release func()) {
	g.mu.Lock()
	g.steps = append(g.steps, step{name: name, frac: frac, apply: apply, release: release})
	sort.SliceStable(g.steps, func(i, j int) bool { return g.steps[i].frac < g.steps[j].frac })
	g.mu.Unlock()
}

// OnTick registers a callback invoked with each observation's snapshot
// — the piggyback hook for periodic work that wants the governor's
// cadence (adaptive per-table cache budgets, re-probe scheduling). Not
// safe after Start.
func (g *Governor) OnTick(f func(Snapshot)) {
	g.mu.Lock()
	g.onTick = append(g.onTick, f)
	g.mu.Unlock()
}

// SetBudget replaces the byte budget; the next observation reclassifies
// against it. Shrinking the budget under steady consumers raises
// pressure — the mechanism load-shedding tests and operator
// interventions use.
func (g *Governor) SetBudget(bytes int64) {
	if bytes > 0 {
		g.budget.Store(bytes)
	}
}

// Band returns the current band (atomically, without observing).
func (g *Governor) Band() Band { return Band(g.band.Load()) }

// TrackedBytes returns the most recent observation's tracked total.
func (g *Governor) TrackedBytes() int64 { return g.tracked.Load() }

// BudgetBytes returns the current budget.
func (g *Governor) BudgetBytes() int64 { return g.budget.Load() }

// Transitions returns the count of upward band transitions (monotonic
// — the signal CI smoke checks assert on, since the band itself may
// have recovered by scrape time).
func (g *Governor) Transitions() int64 { return g.transitions.Load() }

// Observe runs one observation: read every consumer, classify the
// pressure, engage/apply/release ladder steps, and return the
// snapshot. Safe for concurrent use; the background loop calls it on
// every tick.
func (g *Governor) Observe() Snapshot {
	g.mu.Lock()
	budget := g.budget.Load()
	var total int64
	for i := range g.consumers {
		b := g.consumers[i].bytes()
		if b < 0 {
			b = 0
		}
		g.consumers[i].last = b
		total += b
	}
	g.tracked.Store(total)
	pressure := float64(total) / float64(budget)

	// Classify with hysteresis: rise at the watermark, fall only below
	// watermark − hysteresis.
	prev := Band(g.band.Load())
	next := prev
	switch {
	case pressure >= g.cfg.CriticalFrac:
		next = BandCritical
	case pressure >= g.cfg.HighFrac:
		if prev < BandHigh {
			next = BandHigh
		} else if prev == BandCritical && pressure < g.cfg.CriticalFrac-g.cfg.Hysteresis {
			next = BandHigh
		}
	default:
		if prev > BandNormal && pressure < g.cfg.HighFrac-g.cfg.Hysteresis {
			next = BandNormal
		} else if prev == BandCritical && pressure < g.cfg.CriticalFrac-g.cfg.Hysteresis {
			next = BandHigh
		}
	}
	if next > prev {
		g.transitions.Add(1)
	}
	g.band.Store(int32(next))
	if int32(next) > g.peakBand.Load() {
		g.peakBand.Store(int32(next))
	}

	// Ladder: engage/apply ascending, release descending, so the
	// cheapest remediation always engages first and the most aggressive
	// one always releases first.
	for i := range g.steps {
		st := &g.steps[i]
		if pressure >= st.frac {
			st.engaged = true
			if st.apply != nil {
				st.apply(pressure)
			}
		}
	}
	for i := len(g.steps) - 1; i >= 0; i-- {
		st := &g.steps[i]
		if st.engaged && pressure < st.frac-g.cfg.Hysteresis {
			st.engaged = false
			if st.release != nil {
				st.release()
			}
		}
	}

	snap := Snapshot{
		Band:         next,
		BudgetBytes:  budget,
		TrackedBytes: total,
		Pressure:     pressure,
		PeakBand:     Band(g.peakBand.Load()),
		Observations: g.observes.Add(1),
		Transitions:  g.transitions.Load(),
		Consumers:    make([]ConsumerBytes, len(g.consumers)),
		Steps:        make([]StepState, len(g.steps)),
	}
	for i := range g.consumers {
		snap.Consumers[i] = ConsumerBytes{Name: g.consumers[i].name, Bytes: g.consumers[i].last}
	}
	for i := range g.steps {
		snap.Steps[i] = StepState{Name: g.steps[i].name, Frac: g.steps[i].frac, Engaged: g.steps[i].engaged}
	}
	ticks := g.onTick
	g.mu.Unlock()
	for _, f := range ticks {
		f(snap)
	}
	return snap
}

// Snapshot returns the most recent observation's view without running a
// new one (consumer byte funcs are not called).
func (g *Governor) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	budget := g.budget.Load()
	total := g.tracked.Load()
	snap := Snapshot{
		Band:         Band(g.band.Load()),
		BudgetBytes:  budget,
		TrackedBytes: total,
		Pressure:     float64(total) / float64(budget),
		PeakBand:     Band(g.peakBand.Load()),
		Observations: g.observes.Load(),
		Transitions:  g.transitions.Load(),
		Consumers:    make([]ConsumerBytes, len(g.consumers)),
		Steps:        make([]StepState, len(g.steps)),
	}
	for i := range g.consumers {
		snap.Consumers[i] = ConsumerBytes{Name: g.consumers[i].name, Bytes: g.consumers[i].last}
	}
	for i := range g.steps {
		snap.Steps[i] = StepState{Name: g.steps[i].name, Frac: g.steps[i].frac, Engaged: g.steps[i].engaged}
	}
	return snap
}

// Start launches the background observation loop at the configured
// interval. Idempotent.
func (g *Governor) Start() {
	g.startOnce.Do(func() {
		go func() {
			defer close(g.done)
			t := time.NewTicker(g.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-g.stop:
					return
				case <-t.C:
					g.Observe()
				}
			}
		}()
	})
}

// Close stops the background loop (if started) and releases every
// still-engaged ladder step, highest watermark first, so a shut-down
// governor leaves no remediation stuck on. Idempotent.
func (g *Governor) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		g.startOnce.Do(func() { close(g.done) }) // never started: unblock done
		<-g.done
		g.mu.Lock()
		defer g.mu.Unlock()
		for i := len(g.steps) - 1; i >= 0; i-- {
			st := &g.steps[i]
			if st.engaged {
				st.engaged = false
				if st.release != nil {
					st.release()
				}
			}
		}
	})
}
