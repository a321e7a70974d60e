package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"updlrm/internal/core"
)

// TestClassString pins the class labels reports rely on.
func TestClassString(t *testing.T) {
	cases := map[Class]string{Critical: "critical", Normal: "normal", Batch: "batch", Class(7): "class(7)"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

// TestUnknownClassRejected: a request tagged with an out-of-range class
// is a caller error, not a scheduling decision.
func TestUnknownClassRejected(t *testing.T) {
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 1})
	s := profile.Samples[0]
	_, err := srv.Predict(context.Background(), Request{Dense: s.Dense, Sparse: s.Sparse, Class: Class(9)})
	if err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestClassParamsDefaults pins the per-class normalization: Critical
// closes micro-batches opportunistically by default, the other classes
// inherit the server window, every class inherits MaxBatch/QueueDepth,
// and the default weights order Critical > Normal > Batch.
func TestClassParamsDefaults(t *testing.T) {
	cfg := Config{MaxBatch: 8, QueueDepth: 64, BatchWindow: time.Millisecond}.withDefaults()
	crit, norm, batch := cfg.classParams(Critical), cfg.classParams(Normal), cfg.classParams(Batch)
	if crit.window != 0 {
		t.Errorf("Critical window = %v, want opportunistic (0)", crit.window)
	}
	if norm.window != time.Millisecond || batch.window != time.Millisecond {
		t.Errorf("Normal/Batch windows = %v/%v, want 1ms", norm.window, batch.window)
	}
	for c, p := range map[Class]classParams{Critical: crit, Normal: norm, Batch: batch} {
		if p.maxBatch != 8 || p.depth != 64 {
			t.Errorf("%v: maxBatch/depth = %d/%d, want 8/64", c, p.maxBatch, p.depth)
		}
	}
	if !(crit.weight > norm.weight && norm.weight > batch.weight) {
		t.Errorf("default weights not ordered: crit=%v norm=%v batch=%v", crit.weight, norm.weight, batch.weight)
	}

	// Explicit overrides win; a negative window forces opportunistic.
	cfg.Classes[Batch] = ClassConfig{Weight: 3, MaxBatch: 2, BatchWindow: -1, QueueDepth: 5}
	ov := cfg.classParams(Batch)
	if ov.weight != 3 || ov.maxBatch != 2 || ov.window != 0 || ov.depth != 5 {
		t.Errorf("override params = %+v", ov)
	}
}

// TestDRRFairnessUnderBatchPressure preloads the scheduler with a
// sustained Batch-class backlog, then injects Critical traffic, with
// the single worker parked so the whole contention is resolved by the
// deficit scheduler alone. The recorded dispatch order is deterministic
// (modeled costs, parked worker, windows disabled), and must show both
// QoS guarantees in scheduling-slot units:
//
//   - bounded Critical delay: every Critical dispatches within a couple
//     of DRR rounds of the release point, far earlier than its FIFO
//     position behind the Batch flood;
//   - no Batch starvation: while Critical backlog drains, Batch still
//     receives at least its weight's share of every round.
func TestDRRFairnessUnderBatchPressure(t *testing.T) {
	const (
		nBatch = 120
		nCrit  = 30
	)
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 1, QueueDepth: 1024})

	// Park the worker so no request completes until release; the
	// scheduler stalls with one batch in flight, one queued at the
	// shard, and one held mid-route.
	proceed := make(chan struct{})
	srv.testHookBatch = func(int, *microBatch) { <-proceed }
	var mu sync.Mutex
	var order []Class
	var routed atomic.Int64
	srv.testHookRoute = func(c Class, size, shard int) {
		mu.Lock()
		order = append(order, c)
		mu.Unlock()
		routed.Add(1)
	}
	var once sync.Once
	release := func() { once.Do(func() { close(proceed) }) }
	t.Cleanup(release)

	ctx := context.Background()
	var wg sync.WaitGroup
	predict := func(i int, c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := profile.Samples[i%len(profile.Samples)]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: c}); err != nil {
				t.Errorf("request %d (%v): %v", i, c, err)
			}
		}()
	}

	// Sustained Batch pressure: the scheduler consumes exactly three
	// (worker, shard queue, blocked route) and stalls.
	for i := 0; i < nBatch; i++ {
		predict(i, Batch)
	}
	waitFor(t, "scheduler to stall on batch flood", func() bool {
		return routed.Load() == 3 && len(srv.classCh[Batch]) == nBatch-3
	})
	// Critical traffic arrives behind the flood.
	for i := 0; i < nCrit; i++ {
		predict(nBatch+i, Critical)
	}
	waitFor(t, "critical queue to fill", func() bool { return len(srv.classCh[Critical]) == nCrit })

	release()
	wg.Wait()
	srv.Close()

	mu.Lock()
	seq := append([]Class(nil), order...)
	mu.Unlock()
	if len(seq) != nBatch+nCrit {
		t.Fatalf("dispatched %d batches, want %d", len(seq), nBatch+nCrit)
	}
	// The pre-release dispatches are the three Batch requests the
	// stalled pipeline already held; the contest starts after them.
	post := seq[3:]
	lastCrit := -1
	for i, c := range post {
		if c == Critical {
			lastCrit = i
		}
	}
	if lastCrit < 0 {
		t.Fatal("no critical dispatch recorded")
	}
	// Bounded delay: with weights 16:1 the 30 Criticals fit in two DRR
	// rounds (16+1, 14+1 dispatches); allow slack for round-boundary
	// effects. Under FIFO they would sit behind the ~117 queued Batch
	// requests.
	if lastCrit >= 40 {
		t.Fatalf("last critical dispatched at slot %d; DRR should finish them within ~32 slots", lastCrit)
	}
	if fifoSlot := nBatch - 3; lastCrit >= fifoSlot {
		t.Fatalf("critical p100 slot %d not below its FIFO position %d", lastCrit, fifoSlot)
	}
	// Anti-starvation: while Critical backlog drained (the first
	// lastCrit+1 slots), Batch still got dispatches. Its fair share of
	// those slots is weight/(weight sum) = 1/17; require at least half
	// of that (the acceptance bound: within 2x of fair share).
	contested := post[:lastCrit+1]
	batchServed := 0
	for _, c := range contested {
		if c == Batch {
			batchServed++
		}
	}
	fair := float64(len(contested)) * 1.0 / 17.0
	if float64(batchServed) < fair/2 {
		t.Fatalf("batch got %d of %d contested slots; fair share %.1f, want >= %.1f",
			batchServed, len(contested), fair, fair/2)
	}

	st := srv.Stats()
	if st.PerClass[Critical].Requests != nCrit || st.PerClass[Batch].Requests != nBatch {
		t.Fatalf("per-class requests = %d critical / %d batch, want %d/%d",
			st.PerClass[Critical].Requests, st.PerClass[Batch].Requests, nCrit, nBatch)
	}
	if st.PerClass[Normal].Requests != 0 {
		t.Fatalf("Normal served %d requests, want 0", st.PerClass[Normal].Requests)
	}
	if st.PerClass[Critical].P99Ns <= 0 || st.PerClass[Batch].P99Ns <= 0 {
		t.Fatalf("per-class percentiles missing: %+v", st.PerClass)
	}
	// The parked-worker backlog made every Batch request wait out the
	// Critical drain: its queueing tail must dominate Critical's.
	if st.PerClass[Critical].QueueP99Ns >= st.PerClass[Batch].QueueP99Ns {
		t.Fatalf("critical queue p99 %.0f >= batch queue p99 %.0f",
			st.PerClass[Critical].QueueP99Ns, st.PerClass[Batch].QueueP99Ns)
	}
}

// TestWindowsYieldToStagedCritical: batching windows of lower classes
// must not hold while Critical work is already staged. A Normal and a
// Batch request open the round with a long window; the Critical
// arrival aborts Normal's window (arrival path), and Batch's window —
// which would otherwise run its full length with the Critical request
// sitting staged — must be skipped entirely (staged path), so the
// Critical round-trip stays far below one window.
func TestWindowsYieldToStagedCritical(t *testing.T) {
	const window = 400 * time.Millisecond
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 4, BatchWindow: window})
	ctx := context.Background()
	req := func(i int, c Class) Request {
		s := profile.Samples[i]
		return Request{Dense: s.Dense, Sparse: s.Sparse, Class: c}
	}
	var wg sync.WaitGroup
	for i, c := range []Class{Normal, Batch} {
		wg.Add(1)
		go func(i int, c Class) {
			defer wg.Done()
			if _, err := srv.Predict(ctx, req(i, c)); err != nil {
				t.Errorf("%v request: %v", c, err)
			}
		}(i, c)
	}
	// Let the scheduler open Normal's window with both requests queued.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if _, err := srv.Predict(ctx, req(2, Critical)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 300*time.Millisecond {
		t.Fatalf("critical round-trip %v; lower-class windows (%v each) did not yield", d, window)
	}
	wg.Wait()
}

// TestCriticalP99UnderMixedLoad is the wall-clock acceptance check: at
// equal offered load, a mixed Critical/Batch stream through the QoS
// scheduler must give Critical a strictly lower p99 than the same
// stream served FIFO (everything Normal — the pre-QoS behaviour). The
// loads are closed-loop with far more in-flight clients than service
// parallelism, so queueing dominates and the separation is large
// (roughly the full queue-drain depth vs a couple of batches); skipped
// under -short to keep the race-CI step timing-free.
func TestCriticalP99UnderMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock percentile comparison; run without -short")
	}
	model, profile, ecfg := testFixture(t)
	// One overload burst: every request is enqueued while the single
	// shard's first batch is held, so both runs start the clock with the
	// same deep backlog — FIFO tails are then a full queue drain, while
	// the QoS run lets Critical jump it.
	const requests = 640
	run := func(mixed bool) Stats {
		engines, err := NewShards(model, profile, []core.Config{ecfg})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(engines, Config{MaxBatch: 8, QueueDepth: 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hold := make(chan struct{})
		srv.testHookBatch = func(int, *microBatch) { <-hold }
		var once sync.Once
		release := func() { once.Do(func() { close(hold) }) }
		defer release()

		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			class := Normal
			if mixed {
				class = Batch
				if i%10 == 0 {
					class = Critical
				}
			}
			wg.Add(1)
			go func(i int, class Class) {
				defer wg.Done()
				s := profile.Samples[i%len(profile.Samples)]
				if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: class}); err != nil {
					t.Error(err)
				}
			}(i, class)
		}
		waitFor(t, "burst to queue behind the held worker", func() bool {
			queued := 0
			for c := range srv.classCh {
				queued += len(srv.classCh[c])
			}
			// The stalled pipeline holds at most three batches outside
			// the queues (worker, shard queue, blocked route) plus one
			// class's staging area.
			return queued >= requests-4*8
		})
		release()
		wg.Wait()
		return srv.Stats()
	}

	fifo := run(false)
	qos := run(true)
	if fifo.Requests != requests || qos.Requests != requests {
		t.Fatalf("served %d FIFO / %d QoS requests, want %d", fifo.Requests, qos.Requests, requests)
	}
	crit := qos.PerClass[Critical]
	if crit.Requests == 0 {
		t.Fatal("no critical requests served")
	}
	if crit.P99Ns >= fifo.P99Ns {
		t.Fatalf("critical p99 %.0f ns not strictly below FIFO p99 %.0f ns", crit.P99Ns, fifo.P99Ns)
	}
	// Batch is throttled, not starved: it still carries the bulk of the
	// stream to completion.
	if got := qos.PerClass[Batch].Requests; got < requests/2 {
		t.Fatalf("batch served %d of %d, want the flood to complete", got, requests)
	}
}
