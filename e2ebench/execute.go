package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/synth"
	"updlrm/internal/tensor"
)

// warmFrac is the share of a measured phase, from its start, whose
// operations are excluded from every figure (capped at maxWarm).
const (
	warmFrac = 0.1
	maxWarm  = time.Second
)

// Set-up is timed over at least minSetupReps builds, and more (up to
// maxSetupReps) while the builds have taken less than setupBudget, so
// that a cheap set-up is still timed over a second or more.
const (
	minSetupReps = 9
	maxSetupReps = 25
	setupBudget  = 2500 * time.Millisecond
)

// The measured phase samples the heap every heapSampleEvery and keeps
// each heapWindow's peak.
const (
	heapSampleEvery = 5 * time.Millisecond
	heapWindow      = time.Second
)

func execute(o options, log io.Writer) (*report, error) {
	w := o.workload
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	fp := hostFingerprint(tensor.KernelExact)
	fmt.Fprintf(log, "host: %s\n", fp)
	fmt.Fprintf(log, "run: workload=%s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)

	in, err := makeInputs(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	chk := in.checker(w, o.perturbAt)

	// setup_s: model plus deployment construction, several times, each
	// from a collected heap; the last deployment is the one measured.
	// The process CPU time of the builds is printed beside their wall
	// time: on a host whose CPUs other tenants share, the wall time
	// follows their load, and the CPU time shows whether the work did.
	var setups, setupCPU []float64
	var dep *deployment
	for begin := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(begin) < setupBudget); {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		dep, err = deploy(w, in)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (processCPU() - c0).Seconds())
	}
	defer dep.close()
	fmt.Fprintf(log, "setup: %d builds, median %.4f s of wall time, %.4f s of CPU time\n",
		len(setups), median(setups), median(setupCPU))

	rep := &report{}
	dur := time.Duration(o.seconds * float64(time.Second))
	rng := rand.New(rand.NewPCG(o.seed, 0x6532656265))
	if o.trace {
		err = tracedRun(o, w, in, dep, chk, rng, dur, fp, rep, log)
	} else {
		rep.add("setup_s", "s", "measured", median(setups), len(setups))
		runtime.GC()
		heap := startPeakSampler(heapSampleEvery, heapWindow, heapInUseBytes)
		err = plainRun(w, in, dep, chk, rng, dur, rep, log)
		peaks, n := heap.stop()
		// The median second's peak: the heap a run holds at its height,
		// in every second alike. The run's single highest sample is
		// printed beside it; it comes from whichever second a host stall
		// let the heap overshoot the collector's goal.
		rep.add("heap_peak_mb", "MB", "measured", median(peaks)/(1<<20), n)
		fmt.Fprintf(log, "heap: peak in use %.1f MB in the median second, %.1f MB at most, over %d samples; live after a final collection %.1f MB\n",
			median(peaks)/(1<<20), quantile(peaks, 1)/(1<<20), n, float64(liveHeapBytes())/(1<<20))
	}
	if err != nil {
		return nil, err
	}
	if rep.attempted < 1 {
		return nil, errNoOps
	}
	fmt.Fprintf(log, "check: %d CTRs; worst |CTR - CPU reference| %.3g (tolerance %g); %d not bit-identical to it\n",
		chk.checked(), chk.worst.load(), chk.tol, chk.notBitCPU.Load())
	if chk.engine != nil {
		fmt.Fprintln(log, "check: every CTR also compared bit-for-bit with a standalone core.Engine")
	}
	rep.print(log)
	return rep, nil
}

func warmOf(dur time.Duration) time.Duration {
	return min(time.Duration(float64(dur)*warmFrac), maxWarm)
}

// plainRun is the untraced run behind the end-to-end figures.
func plainRun(w workload, in *inputs, dep *deployment, chk *checker, rng *rand.Rand,
	dur time.Duration, rep *report, log io.Writer) error {
	if w.kind == offline {
		modeled, batchMs, wrong, err := offlinePass(dep, in, chk)
		if err != nil {
			return err
		}
		ph, err := runOffline(dep, in, chk, dur, nil)
		if err != nil {
			return err
		}
		// Replay latency is the paper's per-batch inference time, on the
		// modeled clock; the host's wall time per batch is what
		// throughput_per_s measures (see passRate).
		secs := ph.elapsed.Seconds()
		tput, n := ph.passRate(0)
		rep.add("throughput_per_s", "1/s", "measured", tput, n)
		rep.add("modeled_batch_us", "us", "modeled", modeled.TotalNs()/1e3, len(batchMs))
		rep.add("goodput_per_s", "1/s", "measured", tput*float64(ph.samples-ph.wrong)/float64(ph.samples), n)
		rep.add("latency_p50_ms", "ms", "modeled", quantile(batchMs, 0.5), len(batchMs))
		rep.attempted, rep.failed = poolSize+ph.samples, wrong+ph.wrong
		rep.add("ok_frac", "frac", "measured", 1-float64(rep.failed)/float64(rep.attempted), int(rep.attempted))
		rep.correct = rep.failed == 0
		medTput, _ := ph.passRate(0.5)
		fmt.Fprintf(log, "replay: %d batches of %d in %.2fs at GOMAXPROCS %d (after one untimed checking pass): %.1f samples/s with each batch at its fastest replay, %.1f/s at its median, %.1f/s over the phase, %.1f per CPU-second (%.2f CPUs busy)\n",
			ph.batches, batchSize, secs, runtime.GOMAXPROCS(0), tput, medTput,
			float64(ph.samples)/secs, float64(ph.samples)/ph.cpu.Seconds(), ph.cpu.Seconds()/secs)
		return nil
	}

	evs := schedule(w, in, rng, dur, 0)
	ph, err := runServing(dep, in, chk, evs, dur, nil)
	if err != nil {
		return err
	}
	s := ph.summarize(w, warmOf(dur))
	if ph.err != nil {
		fmt.Fprintf(log, "first error: %v\n", ph.err)
	}
	span := (dur - warmOf(dur)).Seconds()
	rep.add("throughput_per_s", "1/s", "measured", s.achievedRPS, s.served)
	rep.add("modeled_batch_us", "us", "modeled", s.modeledBatchUs, s.served)
	rep.add("goodput_per_s", "1/s", "measured", s.goodputRPS, s.served)
	rep.add("latency_p50_ms", "ms", "measured", quantile(s.lat, 0.5), len(s.lat))
	rep.attempted, rep.failed = s.attempted, s.failed
	rep.add("ok_frac", "frac", "measured", 1-float64(s.failed)/float64(max(s.attempted, 1)), int(s.attempted))
	rep.correct = s.wrong == 0 && s.errs == 0
	printLoad(log, w, s, span)
	return nil
}

func printLoad(log io.Writer, w workload, s servingSummary, span float64) {
	fmt.Fprintf(log, "load: offered %.1f/s (target %.0f/s), achieved %.1f/s, goodput %.1f/s over %.2fs after warm-up\n",
		s.offeredRPS, w.rps, s.achievedRPS, s.goodputRPS, span)
	fmt.Fprintf(log, "load: %d predictions served, %d update calls, highest class %v (n=%d), mean batch %.2f\n",
		s.served, len(s.upd), s.critClass, len(s.crit), s.batchMean)
	lagP99 := quantile(s.lag, 0.99)
	fmt.Fprintf(log, "load: generator lag p50 %.3f ms, p99 %.3f ms (n=%d); %.2f%% of sends more than %v late\n",
		quantile(s.lag, 0.5), lagP99, len(s.lag), 100*s.stallFrac, stallSlop)
	fmt.Fprintf(log, "load: latency from the scheduled send p50 %.3f ms, p99 %.3f ms (n=%d); %v p99 %.3f ms (n=%d); update calls p99 %.3f ms (n=%d)\n",
		quantile(s.lat, 0.5), quantile(s.lat, 0.99), len(s.lat), s.critClass, quantile(s.crit, 0.99), len(s.crit),
		quantile(s.upd, 0.99), len(s.upd))
	if lagP99 > ms(lagLimit) {
		fmt.Fprintf(log, "load: WARNING: generator lag p99 above %v: this run's latencies include the generator's own stalls and are not the system's\n", lagLimit)
	}
}

// lagLimit is the generator lag p99 above which a run's latencies are
// flagged as invalid.
const lagLimit = 2 * time.Millisecond

// applyCancelling is cancellingDeltas through Engine.ApplyDeltas: one
// call per table the rows touch, +δ then −δ.
func applyCancelling(eng *core.Engine, rows []synth.RowUpdate, dim int) (core.UpdateResult, error) {
	// signs holds updateRows rows of +δ then updateRows rows of −δ; the
	// n rows either side of the middle are one call's deltas.
	signs := make([]float32, 2*updateRows*dim)
	for i := range signs {
		signs[i] = deltaValue
		if i >= updateRows*dim {
			signs[i] = -deltaValue
		}
	}
	var total core.UpdateResult
	var rs []int32
	for t := 0; t < eng.NumTables(); t++ {
		rs = rs[:0]
		for _, u := range rows {
			if u.Table == t {
				rs = append(rs, u.Row)
			}
		}
		n := len(rs)
		if n == 0 {
			continue
		}
		rs = append(rs, rs...)
		res, err := eng.ApplyDeltas(t, rs, signs[(updateRows-n)*dim:(updateRows+n)*dim])
		if err != nil {
			return total, err
		}
		total.Rows += res.Rows
		total.Invalidations += res.Invalidations
		total.Breakdown.Add(res.Breakdown)
	}
	return total, nil
}

// heapInUseBytes is the Go heap's object bytes right now: live objects
// plus those not yet swept, i.e. the heap the process is holding.
func heapInUseBytes() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// peakSampler calls sample on a ticker and keeps the largest value of
// each window.
type peakSampler struct {
	stopCh, done chan struct{}
	peaks        []float64 // one per window sampled
	n            int
}

func startPeakSampler(every, window time.Duration, sample func() float64) *peakSampler {
	p := &peakSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		start, cur := time.Now(), -1
		for {
			select {
			case <-p.stopCh:
				return
			case now := <-tick.C:
				v := sample()
				p.n++
				if w := int(now.Sub(start) / window); w != cur {
					p.peaks, cur = append(p.peaks, v), w
				} else {
					p.peaks[len(p.peaks)-1] = max(p.peaks[len(p.peaks)-1], v)
				}
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the window peaks and the sample
// count.
func (p *peakSampler) stop() ([]float64, int) {
	close(p.stopCh)
	<-p.done
	return p.peaks, p.n
}

// liveHeapBytes collects garbage and returns the live Go heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// cpuProfile records a CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// writeSpans dumps the traced phase's spans as JSON lines.
func writeSpans(dir string, o options, fp fingerprint, spans *spanLog) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	header := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Host     fingerprint `json:"host"`
	}{o.workload.name, o.seed, fp}
	werr := spans.writeJSONL(f, header)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}

var errNoOps = errors.New("no operations measured")
