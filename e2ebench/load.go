package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"updlrm/internal/metrics"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
)

// status is one operation's outcome.
type status uint8

const (
	statusOK     status = iota
	statusShed          // refused by admission control
	statusFailed        // returned an error
	statusWrong         // answered, but the output failed the check
)

// requestTimeout bounds one call, so a wedged system fails the run
// instead of hanging it.
const requestTimeout = 10 * time.Second

// event is one scheduled operation of the open-loop generator: a
// prediction or an update call.
type event struct {
	at     time.Duration // scheduled send time, from the phase start
	sample int32         // pool index of a prediction
	class  serve.Class
	update int32 // update call index; -1 for a prediction
}

// schedule draws the phase's arrivals: Poisson predictions at the
// workload's offered rate and, for write workloads, Poisson update calls
// at the rate that yields writesPer100 row deltas per 100 lookups.
// firstUpdate numbers the calls so consecutive phases use fresh rows.
func schedule(w workload, in *inputs, rng *rand.Rand, dur time.Duration, firstUpdate int) []event {
	var evs []event
	var weights int
	for _, m := range w.mix {
		weights += m
	}
	for at := expGap(rng, w.rps); at < dur; at += expGap(rng, w.rps) {
		e := event{at: at, sample: int32(rng.IntN(poolSize)), update: -1}
		pick := rng.IntN(weights)
		for c, m := range w.mix {
			if pick < m {
				e.class = serve.Class(c)
				break
			}
			pick -= m
		}
		evs = append(evs, e)
	}
	if rate := w.updateCallRate(in); rate > 0 {
		next := int32(firstUpdate)
		var ups []event
		for at := expGap(rng, rate); at < dur; at += expGap(rng, rate) {
			ups = append(ups, event{at: at, update: next})
			next++
		}
		evs = mergeEvents(evs, ups)
	}
	return evs
}

// updateCallRate is the write stream's ApplyDeltas calls per second.
func (w workload) updateCallRate(in *inputs) float64 {
	return w.rps * in.lookupsPerSample * w.writesPer100 / 100 / (2 * updateRows)
}

// expGap draws one Poisson inter-arrival gap at rate per second.
func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

func mergeEvents(a, b []event) []event {
	out := make([]event, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].at < a[0].at {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// reqResult is one prediction's record.
type reqResult struct {
	lag     time.Duration // generator's send time − scheduled time
	lat     time.Duration // completion − scheduled time
	queueNs float64
	batch   int
	class   serve.Class
	st      status
	bd      metrics.Breakdown
}

// updResult is one ApplyDeltas call's record.
type updResult struct {
	lag time.Duration // generator's send time − scheduled time
	lat time.Duration // completion − scheduled time
	st  status
}

// servingPhase is one measured window of open-loop load.
type servingPhase struct {
	evs  []event
	reqs []reqResult // indexed like evs
	upds []updResult // indexed like evs
	dur  time.Duration
	err  error // first unexpected error, for the report
}

// runServing replays the schedule against the deployment. One goroutine
// walks the schedule; every operation then runs on its own goroutine,
// so a slow system shows up as latency, never as throttled arrivals.
// The generator notes how late it sent each operation (the health
// check behind loadgen.lag_p99_ms); latencies are timed from the
// scheduled send, whatever the lag.
func runServing(d *deployment, in *inputs, chk *checker, evs []event,
	dur time.Duration, spans *spanLog) (*servingPhase, error) {
	updates, err := in.spec.Updates(updateRows * (int(lastUpdate(evs)) + 1))
	if err != nil {
		return nil, err
	}
	ph := &servingPhase{evs: evs, reqs: make([]reqResult, len(evs)),
		upds: make([]updResult, len(evs)), dur: dur}
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
	)
	noteErr := func(err error) {
		errMu.Lock()
		if ph.err == nil {
			ph.err = err
		}
		errMu.Unlock()
	}
	start := time.Now()
	if spans != nil {
		spans.base = start
	}
	for i := range evs {
		due := start.Add(evs[i].at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(due)
		wg.Add(1)
		if evs[i].update < 0 {
			ph.reqs[i].lag = lag
			go func(i int) {
				defer wg.Done()
				ph.predict(d.inf, in, chk, i, due, spans, noteErr)
			}(i)
		} else {
			ph.upds[i].lag = lag
			go func(i int) {
				defer wg.Done()
				u := int(evs[i].update)
				ph.update(d.inf, in, i, due, updates[u*updateRows:(u+1)*updateRows], spans, noteErr)
			}(i)
		}
	}
	wg.Wait()
	return ph, nil
}

// lastUpdate is the highest update call index in evs (-1 for none).
func lastUpdate(evs []event) int32 {
	m := int32(-1)
	for _, e := range evs {
		m = max(m, e.update)
	}
	return m
}

func (ph *servingPhase) predict(inf serve.Inferencer, in *inputs, chk *checker, i int,
	due time.Time, spans *spanLog, noteErr func(error)) {
	e := &ph.evs[i]
	smp := &in.pool.Samples[e.sample]
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	call := time.Now()
	resp, err := inf.Predict(ctx, serve.Request{Dense: smp.Dense, Sparse: smp.Sparse, Class: e.class})
	end := time.Now()
	cancel()
	r := &ph.reqs[i]
	r.lat = end.Sub(due)
	r.class = e.class
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		r.st = statusShed
	case err != nil:
		r.st = statusFailed
		noteErr(fmt.Errorf("predict: %w", err))
	default:
		r.queueNs, r.batch, r.bd = resp.QueueNs, resp.BatchSize, resp.Breakdown
		if !chk.ok(resp.CTR, int(e.sample)) {
			r.st = statusWrong
		}
	}
	if spans != nil {
		req := int64(i)
		root := spans.add("request", due, end, -1, req)
		spans.add("loadgen.lag", due, due.Add(r.lag), root, req)
		if r.st == statusOK || r.st == statusWrong {
			queued := call.Add(time.Duration(r.queueNs))
			if queued.After(end) {
				queued = end
			}
			spans.add("serve.queue", call, queued, root, req)
			spans.add("serve.service", queued, end, root, req)
		}
	}
}

// update sends one self-cancelling update call.
func (ph *servingPhase) update(inf serve.Inferencer, in *inputs, i int, due time.Time,
	rows []synth.RowUpdate, spans *spanLog, noteErr func(error)) {
	deltas := cancellingDeltas(rows, in.modelCfg.EmbDim)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	call := time.Now()
	err := inf.ApplyDeltas(ctx, deltas)
	end := time.Now()
	cancel()
	u := &ph.upds[i]
	u.lat = end.Sub(due)
	switch {
	case errors.Is(err, serve.ErrUpdateOverloaded):
		u.st = statusShed
	case err != nil:
		u.st = statusFailed
		noteErr(fmt.Errorf("apply deltas: %w", err))
	}
	spans.add("serve.apply_deltas", call, end, -1, int64(i))
}

// cancellingDeltas builds one update call's deltas: +δ on every row,
// then −δ on the same rows. ApplyDeltas runs a call on each shard's
// worker between batches, so every write-path cost is paid (delta push,
// MRAM read-modify-write, version bumps, hot-cache invalidation) while
// no prediction can observe a moved embedding: outputs stay checkable
// against the fixed reference.
func cancellingDeltas(rows []synth.RowUpdate, dim int) []serve.Delta {
	plus := make([]float32, dim)
	minus := make([]float32, dim)
	for j := range plus {
		plus[j], minus[j] = deltaValue, -deltaValue
	}
	out := make([]serve.Delta, 0, 2*len(rows))
	for _, vec := range [2][]float32{plus, minus} {
		for _, r := range rows {
			out = append(out, serve.Delta{Table: r.Table, Row: r.Row, Vec: vec})
		}
	}
	return out
}

// servingSummary is a phase's figures after the warm-up is dropped.
type servingSummary struct {
	attempted, failed, wrong, errs int64
	offeredRPS, achievedRPS        float64
	goodputRPS                     float64
	served                         int // predictions answered in the window
	// lat, crit and upd are timed from the scheduled send; lag is how
	// late the generator sent each prediction. All in ms.
	lat, crit, upd, lag []float64
	// stallFrac is the share of operations sent more than stallSlop
	// late: a health check, like lag.
	stallFrac      float64
	batchMean      float64
	critClass      serve.Class
	modeledBatchUs float64
	perBatch       metrics.Breakdown // per-batch means
}

// summarize reduces a phase. Operation counts and the output check
// cover every operation; rates and latencies drop those scheduled
// before warm.
func (ph *servingPhase) summarize(w workload, warm time.Duration) servingSummary {
	var s servingSummary
	s.critClass = topClass(w)
	span := (ph.dur - warm).Seconds()
	var offered, sent, late int
	var modeledSum, batchSum, invBatch float64
	for i, e := range ph.evs {
		st := ph.reqs[i].st
		if e.update >= 0 {
			st = ph.upds[i].st
		}
		s.attempted++
		switch st {
		case statusShed:
			s.failed++
		case statusFailed:
			s.failed++
			s.errs++
		case statusWrong:
			s.failed++
			s.wrong++
		}
		if e.at < warm {
			continue
		}
		lag := ph.reqs[i].lag
		if e.update >= 0 {
			lag = ph.upds[i].lag
		}
		sent++
		if lag > stallSlop {
			late++
		}
		if e.update >= 0 {
			if st == statusOK {
				s.upd = append(s.upd, ms(ph.upds[i].lat))
			}
			continue
		}
		offered++
		r := &ph.reqs[i]
		s.lag = append(s.lag, ms(r.lag))
		if st != statusOK && st != statusWrong {
			continue
		}
		if st == statusOK && r.lat <= latencyLimit {
			s.goodputRPS++
		}
		s.served++
		s.lat = append(s.lat, ms(r.lat))
		if r.class == s.critClass {
			s.crit = append(s.crit, ms(r.lat))
		}
		batchSum += float64(r.batch)
		modeledSum += r.bd.TotalNs()
		// Every request of a micro-batch carries the batch's breakdown:
		// weighting by 1/size turns the per-request sum into a per-batch
		// mean.
		inv := 1 / float64(max(r.batch, 1))
		invBatch += inv
		addScaled(&s.perBatch, r.bd, inv)
	}
	if sent > 0 {
		s.stallFrac = float64(late) / float64(sent)
	}
	if span > 0 {
		s.offeredRPS = float64(offered) / span
		s.achievedRPS = float64(s.served) / span
		s.goodputRPS /= span
	}
	if s.served > 0 {
		s.batchMean = batchSum / float64(s.served)
		s.modeledBatchUs = modeledSum / float64(s.served) / 1e3
	}
	if invBatch > 0 {
		s.perBatch.Scale(1 / invBatch)
	}
	return s
}

// stallSlop is the generator's ordinary lateness: Go's timers fire up to
// about a millisecond late even on an idle host. A send later than this
// means the generator could not run on time (CPU steal, or the process's
// own goroutines and collections holding every P), and a run where that
// is common has latencies that say as much about the host as about the
// system; printLoad flags it.
const stallSlop = time.Millisecond

// topClass is the highest-priority class the workload sends.
func topClass(w workload) serve.Class {
	for _, c := range []serve.Class{serve.Critical, serve.Normal, serve.Batch} {
		if w.mix[c] > 0 {
			return c
		}
	}
	return serve.Normal
}

func addScaled(dst *metrics.Breakdown, src metrics.Breakdown, f float64) {
	src.Scale(f)
	dst.Add(src)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
