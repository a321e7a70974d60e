package serve

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/governor"
	"updlrm/internal/hotcache"
	"updlrm/internal/metrics"
	"updlrm/internal/trace"
)

// newGovernedServer builds a server whose replicas share one hot cache,
// with a pressure governor whose background loop is effectively
// disabled (hour-long interval) so tests drive observations
// deterministically through srv.gov.Observe().
func newGovernedServer(t *testing.T, shards int, cacheBytes int64, scfg Config) (*Server, *trace.Trace) {
	t.Helper()
	model, profile, ecfg := testFixture(t)
	cache, err := NewHotCacheFor(hotcache.Config{CapacityBytes: cacheBytes}, profile.NumTables, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]core.Config, shards)
	for i := range cfgs {
		cfgs[i] = ecfg
		cfgs[i].HotCache = cache
	}
	engines, err := NewShards(model, profile, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, profile
}

// trackedBytes sums the governor's consumers directly (without running
// an observation, which would also apply ladder steps).
func trackedBytes(srv *Server) int64 {
	b := srv.queueBytes()
	if srv.cache != nil {
		b += srv.cache.SizeBytes()
	}
	for _, e := range srv.engines {
		b += e.ArenaBytes()
	}
	return b
}

// setPressure adjusts the governor's budget so the *current* tracked
// bytes sit at the given pressure.
func setPressure(t *testing.T, srv *Server, p float64) {
	t.Helper()
	tracked := trackedBytes(srv)
	if tracked <= 0 {
		t.Fatal("no tracked bytes; warm the server first")
	}
	budget := int64(float64(tracked) / p)
	if budget < 1 {
		budget = 1
	}
	srv.gov.SetBudget(budget)
}

// TestGovernorShedLadderAndRecovery drives pressure through every band
// with deterministic observations and checks the degradation ladder's
// order: High shrinks the cache without shedding, Critical sheds Batch,
// only the full budget sheds Normal, Critical is never governor-shed,
// and recovery releases in reverse order before the cache re-grows.
func TestGovernorShedLadderAndRecovery(t *testing.T) {
	scfg := Config{
		MaxBatch: 8,
		Governor: governor.Config{BudgetBytes: 1 << 40, Interval: time.Hour},
	}
	srv, profile := newGovernedServer(t, 2, 1<<20, scfg)
	ctx := context.Background()

	predict := func(class Class) error {
		s := profile.Samples[0]
		_, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: class})
		return err
	}
	mustServe := func(class Class) {
		t.Helper()
		if err := predict(class); err != nil {
			t.Fatalf("%v request failed: %v", class, err)
		}
	}
	mustShed := func(class Class) {
		t.Helper()
		if err := predict(class); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%v request: got %v, want ErrOverloaded", class, err)
		}
	}

	// Warm: traffic grows the arenas and populates the cache.
	for i := 0; i < 32; i++ {
		s := profile.Samples[i%len(profile.Samples)]
		if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
			t.Fatal(err)
		}
	}
	if snap := srv.gov.Observe(); snap.Band != governor.BandNormal {
		t.Fatalf("band at huge budget = %v, want normal", snap.Band)
	}
	origCap := srv.HotCache().CapacityBytes()

	// High: resource remediation, no shedding.
	setPressure(t, srv, 0.80)
	if snap := srv.gov.Observe(); snap.Band != governor.BandHigh {
		t.Fatalf("band at 0.80 = %v, want high", snap.Band)
	}
	if got := srv.HotCache().CapacityBytes(); got >= origCap {
		t.Fatalf("cache capacity %d not shrunk from %d at High", got, origCap)
	}
	if srv.HotCache().Resizes() == 0 {
		t.Fatal("no cache resize recorded at High")
	}
	for _, e := range srv.engines {
		if e.ArenaCap() == 0 {
			t.Fatal("arena growth not capped at High")
		}
	}
	mustServe(Critical)
	mustServe(Normal)
	mustServe(Batch)

	// Critical: Batch sheds, Normal and Critical still serve.
	setPressure(t, srv, 0.95)
	if snap := srv.gov.Observe(); snap.Band != governor.BandCritical {
		t.Fatalf("band at 0.95 = %v, want critical", snap.Band)
	}
	mustShed(Batch)
	mustServe(Normal)
	mustServe(Critical)

	// Past the full budget: Normal sheds too; Critical never does.
	setPressure(t, srv, 1.05)
	srv.gov.Observe()
	mustShed(Batch)
	mustShed(Normal)
	mustServe(Critical)

	// Recovery releases in reverse order: Normal re-admits first while
	// Batch stays shed...
	setPressure(t, srv, 0.93)
	srv.gov.Observe()
	mustServe(Normal)
	mustShed(Batch)
	mustServe(Critical)

	// ...then everything releases and the cache re-grows to its
	// configured capacity.
	setPressure(t, srv, 0.30)
	if snap := srv.gov.Observe(); snap.Band != governor.BandNormal {
		t.Fatalf("band after recovery = %v, want normal", snap.Band)
	}
	mustServe(Batch)
	mustServe(Normal)
	if got := srv.HotCache().CapacityBytes(); got != origCap {
		t.Fatalf("cache capacity %d after recovery, want %d restored", got, origCap)
	}
	for _, e := range srv.engines {
		if e.ArenaCap() != 0 {
			t.Fatal("arena cap not lifted after recovery")
		}
	}

	st := srv.Stats()
	if st.PerClass[Critical].ShedPressure != 0 {
		t.Fatalf("Critical was governor-shed %d times", st.PerClass[Critical].ShedPressure)
	}
	if st.PerClass[Batch].ShedPressure == 0 || st.PerClass[Normal].ShedPressure == 0 {
		t.Fatalf("pressure sheds not recorded: batch=%d normal=%d",
			st.PerClass[Batch].ShedPressure, st.PerClass[Normal].ShedPressure)
	}
	if st.GovernorTransitions < 2 {
		t.Fatalf("GovernorTransitions = %d, want >= 2", st.GovernorTransitions)
	}
	if st.GovernorPeakBand != "critical" {
		t.Fatalf("GovernorPeakBand = %q, want critical", st.GovernorPeakBand)
	}
	if st.CacheResizes == 0 {
		t.Fatal("Stats.CacheResizes = 0 after governor shrinks")
	}
}

// probeHitRate runs a fixed probe sequence and returns the cache hit
// rate over exactly that window (cumulative counters differenced).
func probeHitRate(t *testing.T, srv *Server, profile *trace.Trace, n int) float64 {
	t.Helper()
	ctx := context.Background()
	before := srv.HotCache().Stats()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			s := profile.Samples[i%len(profile.Samples)]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: Critical}); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := srv.HotCache().Stats()
	hits := after.Hits - before.Hits
	total := hits + after.Misses - before.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// TestGovernorShrinkCoherentUnderUpdates is the pressure soak: while a
// live update stream mutates rows and concurrent predictors serve, the
// governor repeatedly shrinks and re-grows the shared cache. Afterwards
// serving must be value-coherent with a reference engine that applied
// the same deltas (no resize may resurrect a stale cached row), the
// cache capacity must be fully restored, and the hit rate must recover
// to its pre-pressure level. Run with -race in CI.
func TestGovernorShrinkCoherentUnderUpdates(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	cache, err := NewHotCacheFor(hotcache.Config{CapacityBytes: 1 << 20}, profile.NumTables, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []core.Config{ecfg, ecfg}
	for i := range cfgs {
		cfgs[i].HotCache = cache
	}
	engines, err := NewShards(model, profile, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, Config{
		MaxBatch: 8,
		Governor: governor.Config{BudgetBytes: 1 << 40, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref, err := core.New(model.Clone(), profile, ecfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Warm and measure the pre-pressure hit rate.
	preRate := probeHitRate(t, srv, profile, 64)

	// Concurrent load: predictors (Critical — never governor-shed) and
	// one sequential updater whose applied deltas we replay on ref.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := profile.Samples[(i+w*17)%len(profile.Samples)]
				if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: Critical}); err != nil {
					t.Errorf("predict under pressure: %v", err)
					return
				}
			}
		}(w)
	}
	var applied []Delta
	var appliedMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		embDim := model.Cfg.EmbDim
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vec := make([]float32, embDim)
			vec[i%embDim] = float32(i%7) * 0.25
			d := Delta{Table: i % profile.NumTables, Row: int32(i % 16), Vec: vec}
			if err := srv.ApplyDeltas(ctx, []Delta{d}); err != nil {
				if errors.Is(err, ErrUpdateOverloaded) {
					continue
				}
				t.Errorf("update under pressure: %v", err)
				return
			}
			appliedMu.Lock()
			applied = append(applied, d)
			appliedMu.Unlock()
		}
	}()

	// Pressure cycles: shrink hard, then recover, repeatedly.
	for cycle := 0; cycle < 10; cycle++ {
		setPressure(t, srv, 1.02)
		srv.gov.Observe()
		time.Sleep(2 * time.Millisecond)
		setPressure(t, srv, 0.30)
		srv.gov.Observe()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Value coherence: replay the applied deltas on the reference engine
	// and compare CTRs — a stale cache entry surviving a resize would
	// diverge here. Cache hits fold into the pooled sum host-side ahead
	// of the DPU partials, so cached serving is only equal within
	// summation-order tolerance (see core's hot-cache equivalence test);
	// a genuinely stale row diverges far beyond it.
	appliedMu.Lock()
	deltas := applied
	appliedMu.Unlock()
	if len(deltas) == 0 {
		t.Fatal("update stream applied nothing")
	}
	for _, d := range deltas {
		if _, err := ref.ApplyDeltas(d.Table, []int32{d.Row}, d.Vec); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.RunBatch(trace.MakeBatch(profile, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range profile.Samples[:16] {
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: Critical})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(float64(resp.CTR) - float64(want.CTR[i])); diff > 1e-4 {
			t.Fatalf("sample %d: served CTR %v != reference %v (diff %g) after shrink cycles + updates", i, resp.CTR, want.CTR[i], diff)
		}
	}

	// Full recovery: capacity restored and the hit rate back to (at
	// least half of) its pre-pressure level.
	if got, want := srv.HotCache().CapacityBytes(), int64(1<<20); got != want {
		t.Fatalf("cache capacity %d after recovery, want %d", got, want)
	}
	postRate := probeHitRate(t, srv, profile, 64)
	if preRate > 0 && postRate < preRate*0.5 {
		t.Fatalf("hit rate did not recover: pre %.3f post %.3f", preRate, postRate)
	}
}

// TestSLOAdmissionBeatsDepthOnly floods one shard with slow Batch
// traffic next to a dense Normal stream and a paced Critical probe, on
// two identically loaded servers: one depth-only, one with per-class
// SLO targets. SLO admission must shed the Batch flood at the door
// (the Normal stream's predicted wait exceeds its target whenever work
// is in flight) and keep Critical's measured p99 strictly below the
// depth-only baseline at equal offered load.
//
// p99 is computed client-side over a sequential post-warmup Critical
// probe stream, so the startup transient — where both servers have
// already-admitted Batch debt — cannot dominate the tail.
func TestSLOAdmissionBeatsDepthOnly(t *testing.T) {
	run := func(withSLO bool) (time.Duration, Stats) {
		var scfg Config
		scfg.MaxBatch = 8
		scfg.QueueDepth = 32
		if withSLO {
			// Any in-flight modeled backlog exceeds 1ns, so the Batch
			// flood is shed whenever the Normal keeper stream has work
			// outstanding. Critical's own target is realistic and never
			// missed (modeled costs are microseconds) — it exercises the
			// per-class config without adding shed pressure of its own.
			scfg.Classes[Normal].SLOTargetNs = 1
			scfg.Classes[Critical].SLOTargetNs = int64(50 * time.Millisecond)
		}
		srv, profile, _ := newTestServer(t, 1, scfg)
		// Make Batch service genuinely slow so head-of-line blocking is
		// what the two servers differ on.
		srv.testHookBatch = func(_ int, mb *microBatch) {
			if mb.class == Batch {
				time.Sleep(5 * time.Millisecond)
			} else {
				time.Sleep(200 * time.Microsecond)
			}
		}
		ctx := context.Background()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Batch flood: paced far above service capacity (a shed returns
		// instantly — an unpaced loop would starve the scheduler of CPU
		// rather than model offered load).
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s := profile.Samples[(i+w*31)%len(profile.Samples)]
					_, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: Batch})
					if err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("batch flood: %v", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}(w)
		}
		// Normal keeper stream: dense enough that predicted wait stays
		// positive, closing the idle windows a Batch burst could slip
		// through.
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s := profile.Samples[(i+w*53)%len(profile.Samples)]
					_, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: Normal})
					if err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("normal stream: %v", err)
						return
					}
					time.Sleep(150 * time.Microsecond)
				}
			}(w)
		}
		time.Sleep(60 * time.Millisecond) // reach steady state
		lats := make([]time.Duration, 0, 100)
		for i := 0; i < 100; i++ {
			s := profile.Samples[i%len(profile.Samples)]
			t0 := time.Now()
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: Critical}); err != nil {
				t.Fatalf("critical probe %d: %v", i, err)
			}
			lats = append(lats, time.Since(t0))
			time.Sleep(500 * time.Microsecond)
		}
		close(stop)
		wg.Wait()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[98], srv.Stats() // p99 of 100 sequential probes
	}

	d99, depth := run(false)
	s99, slo := run(true)

	if slo.PerClass[Batch].ShedSLO == 0 {
		t.Fatal("SLO admission shed no Batch traffic under flood")
	}
	if depth.PerClass[Batch].ShedSLO != 0 {
		t.Fatalf("depth-only baseline recorded %d SLO sheds", depth.PerClass[Batch].ShedSLO)
	}
	if slo.PerClass[Critical].Shed != 0 || depth.PerClass[Critical].Shed != 0 {
		t.Fatalf("Critical was shed: slo=%d depth=%d",
			slo.PerClass[Critical].Shed, depth.PerClass[Critical].Shed)
	}
	if !(s99 < d99) {
		t.Fatalf("Critical p99 with SLO admission %v not below depth-only %v", s99, d99)
	}
}

// TestEDFOrderUnit checks the in-place EDF sort: earliest deadline
// first, zero deadlines after every deadlined request, stable among
// equals.
func TestEDFOrderUnit(t *testing.T) {
	base := time.Now()
	mk := func(offset time.Duration, zero bool) *pending {
		p := &pending{}
		if !zero {
			p.deadline = base.Add(offset)
		}
		return p
	}
	a := mk(3*time.Second, false)
	b := mk(1*time.Second, false)
	c := mk(0, true)
	d := mk(2*time.Second, false)
	e := mk(1*time.Second, false) // equal to b; must stay after it
	ps := []*pending{a, b, c, d, e}
	edfOrder(ps)
	want := []*pending{b, e, d, a, c}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("edfOrder position %d wrong (got deadline %v)", i, ps[i].deadline)
		}
	}
}

// TestEDFSelectsEarliestDeadlines plugs the pipeline, queues four
// Normal requests with descending deadlines, and checks the first
// Normal micro-batch cut carries the two earliest deadlines — the
// scheduler's EDF selection across the widened SLO staging window.
func TestEDFSelectsEarliestDeadlines(t *testing.T) {
	var scfg Config
	scfg.MaxBatch = 2
	scfg.QueueDepth = 16
	scfg.Classes[Normal].SLOTargetNs = int64(time.Hour) // enable SLO machinery; never sheds
	srv, profile, _ := newTestServer(t, 1, scfg)

	hold := make(chan struct{})
	type rec struct {
		class     Class
		deadlines []time.Time
	}
	var mu sync.Mutex
	var recs []rec
	srv.testHookBatch = func(_ int, mb *microBatch) {
		r := rec{class: mb.class}
		for _, p := range mb.pend {
			r.deadlines = append(r.deadlines, p.deadline)
		}
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		<-hold
	}
	var routed atomic.Int64
	srv.testHookRoute = func(Class, int, int) { routed.Add(1) }
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)

	ctx := context.Background()
	var wg sync.WaitGroup
	predict := func(class Class, reqCtx context.Context, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := profile.Samples[i%len(profile.Samples)]
			if _, err := srv.Predict(reqCtx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: class}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}

	// Plug the pipeline: worker held on plug 1, plug 2's batch fills the
	// shard channel, plug 3 blocks the scheduler mid-route.
	predict(Critical, ctx, 0)
	waitFor(t, "worker to hold plug 1", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recs) == 1
	})
	predict(Critical, ctx, 1)
	waitFor(t, "plug 2 routed", func() bool { return routed.Load() == 2 })
	predict(Critical, ctx, 2)
	time.Sleep(20 * time.Millisecond) // scheduler now blocked routing plug 3

	// Four Normal requests, deadlines descending: the last to arrive has
	// the earliest deadline.
	base := time.Now()
	offsets := []time.Duration{10 * time.Hour, 9 * time.Hour, 8 * time.Hour, 7 * time.Hour}
	var cancels []context.CancelFunc
	for i, off := range offsets {
		dctx, cancel := context.WithDeadline(ctx, base.Add(off))
		cancels = append(cancels, cancel)
		predict(Normal, dctx, 3+i)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	waitFor(t, "normals queued", func() bool { return len(srv.classCh[Normal]) == 4 })

	release()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, r := range recs {
		if r.class != Normal {
			continue
		}
		if len(r.deadlines) != 2 {
			t.Fatalf("first Normal batch size %d, want 2", len(r.deadlines))
		}
		// The two earliest deadlines (7h, 8h) must ride the first cut, in
		// EDF order.
		if !r.deadlines[0].Equal(base.Add(7*time.Hour)) || !r.deadlines[1].Equal(base.Add(8*time.Hour)) {
			t.Fatalf("first Normal cut deadlines %v, want [7h 8h] offsets from %v", r.deadlines, base)
		}
		return
	}
	t.Fatal("no Normal batch observed")
}

// TestReprobeRefreshesStaleProfile poisons one shard's router profile
// with an absurd cost and checks the background re-probe loop
// re-anchors it toward the engine's true static costs.
func TestReprobeRefreshesStaleProfile(t *testing.T) {
	srv, _, _ := newTestServer(t, 2, Config{ReprobeInterval: 2 * time.Millisecond})
	p := &srv.router.shards[0]
	p.mu.Lock()
	p.perReq = metrics.Breakdown{MLPNs: 1e12}
	p.s0, p.s1, p.s2, p.sy, p.sxy = 1, 1, 1, 1e12, 1e12
	p.mu.Unlock()

	waitFor(t, "a completed re-probe", func() bool { return srv.Stats().Reprobes >= 1 })
	waitFor(t, "profile to re-anchor", func() bool {
		st := srv.Stats()
		return st.Shards[0].PredictedPerReqNs < 1e11 &&
			!math.IsNaN(st.Shards[0].PredictedPerReqNs)
	})
}
