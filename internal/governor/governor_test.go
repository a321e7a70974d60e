package governor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewRejectsBadBudget(t *testing.T) {
	for _, b := range []int64{0, -1, -1 << 20} {
		if _, err := New(Config{BudgetBytes: b}); err == nil {
			t.Fatalf("New(BudgetBytes=%d): want error", b)
		}
	}
}

// TestNewNormalizesWatermarks is the governor's defaults-and-validation
// table: zero watermarks take the defaults, the normalized fractions
// are what the governor reports, and settings that make no sense are
// rejected instead of silently repaired.
func TestNewNormalizesWatermarks(t *testing.T) {
	tests := []struct {
		name               string
		cfg                Config
		wantErr            bool
		wantHigh, wantCrit float64
	}{
		{"defaults", Config{BudgetBytes: 1}, false, DefaultHighFrac, DefaultCriticalFrac},
		{"explicit", Config{BudgetBytes: 1, HighFrac: 0.5, CriticalFrac: 0.8}, false, 0.5, 0.8},
		{"equal watermarks", Config{BudgetBytes: 1, HighFrac: 0.8, CriticalFrac: 0.8}, false, 0.8, 0.8},
		{"full budget", Config{BudgetBytes: 1, HighFrac: 1, CriticalFrac: 1}, false, 1, 1},
		{"high only", Config{BudgetBytes: 1, HighFrac: 0.6}, false, 0.6, DefaultCriticalFrac},
		{"critical only", Config{BudgetBytes: 1, CriticalFrac: 0.95}, false, DefaultHighFrac, 0.95},
		{"inverted", Config{BudgetBytes: 1, HighFrac: 0.8, CriticalFrac: 0.5}, true, 0, 0},
		{"critical below default high", Config{BudgetBytes: 1, CriticalFrac: 0.5}, true, 0, 0},
		{"high above budget", Config{BudgetBytes: 1, HighFrac: 1.5, CriticalFrac: 1.5}, true, 0, 0},
		{"critical above budget", Config{BudgetBytes: 1, CriticalFrac: 1.2}, true, 0, 0},
		{"negative high", Config{BudgetBytes: 1, HighFrac: -0.1}, true, 0, 0},
		{"negative critical", Config{BudgetBytes: 1, CriticalFrac: -0.9}, true, 0, 0},
		{"no budget", Config{HighFrac: 0.5, CriticalFrac: 0.8}, true, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := New(tt.cfg)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("New(%+v) = nil error, want rejection", tt.cfg)
				}
				return
			}
			if err != nil {
				t.Fatalf("New(%+v): %v", tt.cfg, err)
			}
			defer g.Close()
			if g.HighFrac() != tt.wantHigh {
				t.Errorf("HighFrac = %v, want %v", g.HighFrac(), tt.wantHigh)
			}
			if g.CriticalFrac() != tt.wantCrit {
				t.Errorf("CriticalFrac = %v, want %v", g.CriticalFrac(), tt.wantCrit)
			}
		})
	}
}

// TestBandsAndHysteresis drives pressure up and down across the
// watermarks and checks the band rises at the watermark but falls only
// below watermark − hysteresis.
func TestBandsAndHysteresis(t *testing.T) {
	var bytes atomic.Int64
	g, err := New(Config{BudgetBytes: 1000, HighFrac: 0.75, CriticalFrac: 0.90, Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.Track("test", bytes.Load)

	steps := []struct {
		bytes int64
		want  Band
	}{
		{100, BandNormal},
		{740, BandNormal},
		{750, BandHigh},     // at the High watermark
		{730, BandHigh},     // inside hysteresis: holds
		{699, BandNormal},   // below High − hysteresis: falls
		{900, BandCritical}, // straight to Critical
		{870, BandCritical}, // inside hysteresis: holds
		{840, BandHigh},     // below Critical − hysteresis
		{920, BandCritical},
		{100, BandNormal}, // collapse straight down
	}
	for i, st := range steps {
		bytes.Store(st.bytes)
		snap := g.Observe()
		if snap.Band != st.want {
			t.Fatalf("step %d: bytes=%d band=%v want %v", i, st.bytes, snap.Band, st.want)
		}
		if snap.TrackedBytes != st.bytes {
			t.Fatalf("step %d: TrackedBytes=%d want %d", i, snap.TrackedBytes, st.bytes)
		}
	}
	if g.Transitions() != 3 { // Normal→High, High→Critical, High→Critical
		t.Fatalf("Transitions=%d want 3", g.Transitions())
	}
	if snap := g.Snapshot(); snap.PeakBand != BandCritical {
		t.Fatalf("PeakBand=%v want critical", snap.PeakBand)
	}
}

// TestLadderOrder checks steps engage lowest watermark first, apply on
// every tick while engaged-at-pressure, and release highest first.
func TestLadderOrder(t *testing.T) {
	var bytes atomic.Int64
	g, err := New(Config{BudgetBytes: 1000, HighFrac: 0.75, CriticalFrac: 0.90, Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	g.Track("test", bytes.Load)

	var mu sync.Mutex
	var events []string
	record := func(ev string) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	// Registered out of order on purpose: AddStep must sort by frac.
	g.AddStep("shed-normal", 1.0, func(float64) { record("shed-normal") }, func() { record("release-normal") })
	g.AddStep("shrink", 0.75, func(float64) { record("shrink") }, func() { record("release-shrink") })
	g.AddStep("shed-batch", 0.90, func(float64) { record("shed-batch") }, func() { record("release-batch") })

	ramp := []int64{500, 800, 950, 1050, 940, 800, 500}
	for _, b := range ramp {
		bytes.Store(b)
		g.Observe()
	}
	g.Close()
	want := []string{
		"shrink",               // 800
		"shrink", "shed-batch", // 950
		"shrink", "shed-batch", "shed-normal", // 1050
		"shrink", "shed-batch", "release-normal", // 940: normal releases first
		"shrink", "release-batch", // 800
		"release-shrink", // 500
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(want) {
		t.Fatalf("events = %v\nwant %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q want %q\nall: %v", i, events[i], want[i], events)
		}
	}
}

// TestSetBudget checks shrinking the budget under steady consumers
// raises pressure and the band follows.
func TestSetBudget(t *testing.T) {
	var bytes atomic.Int64
	bytes.Store(500)
	g, err := New(Config{BudgetBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.Track("test", bytes.Load)
	if snap := g.Observe(); snap.Band != BandNormal {
		t.Fatalf("band=%v want normal", snap.Band)
	}
	g.SetBudget(520) // 500/520 ≈ 0.96 ≥ critical watermark
	if snap := g.Observe(); snap.Band != BandCritical {
		t.Fatalf("band after SetBudget=%v want critical", snap.Band)
	}
	g.SetBudget(0) // ignored: budget must stay positive
	if got := g.BudgetBytes(); got != 520 {
		t.Fatalf("BudgetBytes after SetBudget(0)=%d want 520", got)
	}
}

// TestOnTickAndStart checks the background loop drives observations and
// OnTick callbacks, and Close releases engaged steps.
func TestOnTickAndStart(t *testing.T) {
	var bytes atomic.Int64
	bytes.Store(990)
	g, err := New(Config{BudgetBytes: 1000, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int64
	var released atomic.Bool
	g.Track("test", bytes.Load)
	g.AddStep("shed", DefaultCriticalFrac, nil, func() { released.Store(true) })
	g.OnTick(func(s Snapshot) { ticks.Add(1) })
	g.Start()
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop produced %d ticks", ticks.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if g.Band() != BandCritical {
		t.Fatalf("band=%v want critical", g.Band())
	}
	g.Close()
	if !released.Load() {
		t.Fatal("Close did not release the engaged step")
	}
	g.Close() // idempotent
}
