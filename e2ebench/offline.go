package main

import (
	"fmt"
	"syscall"
	"time"

	"updlrm/internal/metrics"
	"updlrm/internal/trace"
)

// poolBatches cuts the pool into the offline replay's fixed batches.
func poolBatches(in *inputs) []*trace.Batch {
	out := make([]*trace.Batch, 0, poolSize/batchSize)
	for lo := 0; lo < poolSize; lo += batchSize {
		out = append(out, trace.MakeBatch(in.pool, lo, lo+batchSize))
	}
	return out
}

// offlinePass runs every pool batch once, untimed: it checks the CTRs
// and returns the modeled per-batch mean breakdown and each batch's
// modeled time in ms, which depend only on the seed.
func offlinePass(d *deployment, in *inputs, chk *checker) (metrics.Breakdown, []float64, int64, error) {
	var sum metrics.Breakdown
	var wrong int64
	batches := poolBatches(in)
	batchMs := make([]float64, 0, len(batches))
	for bi, b := range batches {
		res, err := d.engine.RunBatch(b)
		if err != nil {
			return sum, nil, wrong, err
		}
		batchMs = append(batchMs, res.Breakdown.TotalNs()/1e6)
		for s, ctr := range res.CTR {
			if !chk.ok(ctr, bi*batchSize+s) {
				wrong++
			}
		}
		sum.Add(res.Breakdown)
	}
	sum.Scale(1 / float64(len(batches)))
	return sum, batchMs, wrong, nil
}

// offlinePhase is one timed replay window.
type offlinePhase struct {
	lat []float64 // per-batch RunBatch wall, ms, in replay order
	// byBatch[b] holds pool batch b's RunBatch wall times, ms.
	byBatch        [][]float64
	samples, wrong int64
	batches        int64
	elapsed        time.Duration
	cpu            time.Duration // process CPU time over the phase
}

// passRate is samples per second of one pass over the pool with each
// batch at the q-quantile of its replay wall times; n is the number of
// timed replays behind it.
//
// throughput_per_s takes q = 0, each batch's fastest replay in the run.
// The replay is compute-bound, and on a shared host a vCPU runs well
// under full speed while another tenant works on the same core (on a
// 2-vCPU VM, ten back-to-back runs of the same code put the median
// batch at 3222-5868 samples/s). The fastest of a batch's ~60-70
// replays is its time on an undisturbed core, which a run still sees
// unless the whole run was slowed.
func (ph *offlinePhase) passRate(q float64) (rate float64, n int) {
	var samples, secs float64
	for _, ts := range ph.byBatch {
		if len(ts) == 0 {
			continue
		}
		samples += batchSize
		secs += quantile(ts, q) / 1e3
		n += len(ts)
	}
	if secs == 0 {
		return 0, n
	}
	return samples / secs, n
}

// runOffline replays the pool batches round-robin through RunBatch for
// dur, checking every CTR.
func runOffline(d *deployment, in *inputs, chk *checker, dur time.Duration, spans *spanLog) (*offlinePhase, error) {
	batches := poolBatches(in)
	ph := &offlinePhase{byBatch: make([][]float64, len(batches))}
	cpu0 := processCPU()
	start := time.Now()
	if spans != nil {
		spans.base = start
	}
	for i := 0; time.Since(start) < dur; i++ {
		bi := i % len(batches)
		t0 := time.Now()
		res, err := d.engine.RunBatch(batches[bi])
		t1 := time.Now()
		ph.batches++
		if err != nil {
			return nil, fmt.Errorf("run batch: %w", err)
		}
		spans.add("core.run_batch", t0, t1, -1, int64(i))
		ph.lat = append(ph.lat, ms(t1.Sub(t0)))
		ph.byBatch[bi] = append(ph.byBatch[bi], ms(t1.Sub(t0)))
		for s, ctr := range res.CTR {
			if !chk.ok(ctr, bi*batchSize+s) {
				ph.wrong++
			}
		}
		ph.samples += int64(len(res.CTR))
	}
	ph.elapsed = time.Since(start)
	ph.cpu = processCPU() - cpu0
	return ph, nil
}

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
