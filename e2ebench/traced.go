package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"updlrm/internal/metrics"
	"updlrm/internal/serve"
)

// tracedRun measures an untraced half, then a traced half (spans, CPU
// profile, timed transport, governor sampling), then the replay probes,
// and reports the per-layer figures.
func tracedRun(o options, w workload, in *inputs, dep *deployment, chk *checker, rng *rand.Rand,
	dur time.Duration, fp fingerprint, rep *report, log io.Writer) error {
	half := dur / 2
	spans := &spanLog{}
	lay := layerFigures{}

	switch w.kind {
	case offline:
		modeled, _, wrong, err := offlinePass(dep, in, chk)
		if err != nil {
			return err
		}
		plain, err := runOffline(dep, in, chk, half, nil)
		if err != nil {
			return err
		}
		prof, err := startCPUProfile()
		if err != nil {
			return err
		}
		traced, err := runOffline(dep, in, chk, half, spans)
		lay.profile = prof.stop()
		if err != nil {
			return err
		}
		lay.overhead = median(traced.lat)/median(plain.lat) - 1
		// Measured replay tails, from the untraced half: per-batch
		// RunBatch wall time.
		lay.latP99 = quantile(plain.lat, 0.99)
		lay.critP99, lay.tailN, lay.critN = lay.latP99, len(plain.lat), len(plain.lat)
		lay.overheadN = int(traced.batches)
		lay.modeled, lay.modeledN = modeled, poolSize/batchSize
		rep.attempted = poolSize + plain.samples + traced.samples
		rep.failed = plain.wrong + traced.wrong + wrong
		rep.correct = rep.failed == 0
	default:
		evs := schedule(w, in, rng, half, 0)
		plain, err := runServing(dep, in, chk, evs, half, nil)
		if err != nil {
			return err
		}
		ps := plain.summarize(w, warmOf(half))

		evs = schedule(w, in, rng, half, int(lastUpdate(evs))+1)
		var gathersBefore int64
		if dep.front != nil {
			gathersBefore = dep.front.ClusterStats().GatherBatches
			dep.fabric.record(true, spans)
		}
		gov := startPeakSampler(250*time.Millisecond, half, func() float64 {
			if dep.server == nil || dep.server.Config().Governor.BudgetBytes == 0 {
				return 0
			}
			return dep.server.Stats().GovernorPressure
		})
		prof, err := startCPUProfile()
		if err != nil {
			return err
		}
		traced, err := runServing(dep, in, chk, evs, half, spans)
		lay.profile = prof.stop()
		peaks, _ := gov.stop()
		lay.pressurePeak = quantile(peaks, 1)
		if err != nil {
			return err
		}
		ts := traced.summarize(w, warmOf(half))
		for _, ph := range []*servingPhase{plain, traced} {
			if ph.err != nil {
				fmt.Fprintf(log, "first error: %v\n", ph.err)
			}
		}
		for _, h := range []struct {
			name string
			s    servingSummary
		}{{"untraced", ps}, {"traced", ts}} {
			fmt.Fprintf(log, "%s half:\n", h.name)
			printLoad(log, w, h.s, (half - warmOf(half)).Seconds())
		}

		p50Plain := median(ps.lat)
		lay.overhead = (median(ts.lat) - p50Plain) / p50Plain
		lay.overheadN = ts.served
		// The pooled tails, timed from the scheduled send, come from the
		// untraced half, with the generator's lag as their health check.
		// They are per-layer figures, without a bound: on a shared
		// 2-vCPU VM they follow the host's CPU steal (p99 3.3 ms at 1%
		// steal, 10.9 ms at 12.6%), too much for any bound to hold.
		lay.latP99, lay.tailN = quantile(ps.lat, 0.99), len(ps.lat)
		lay.critP99, lay.critN = quantile(ps.crit, 0.99), len(ps.crit)
		lay.updP99, lay.updN = quantile(ps.upd, 0.99), len(ps.upd)
		lay.lagP99 = quantile(ps.lag, 0.99)
		lay.lagN = len(ps.lag)
		lay.stallFrac = ps.stallFrac
		lay.batchMean = ts.batchMean
		lay.modeled, lay.modeledN = ts.perBatch, ts.served
		rep.attempted = ps.attempted + ts.attempted
		rep.failed = ps.failed + ts.failed
		rep.correct = ps.wrong+ps.errs+ts.wrong+ts.errs == 0

		t0 := time.Now()
		st := dep.inf.Stats()
		lay.statsMs = ms(time.Since(t0))
		lay.shardSkew = skew(shardRequests(dep, st.Shards))
		lay.invalidations = float64(st.CacheInvalidations)
		if st.UpdateBatches > 0 {
			lay.modeledUpdateUs = st.UpdateModeledNs / float64(st.UpdateBatches) / 1e3
		}
		if dep.front != nil {
			rpcs, bytes := dep.fabric.snapshot()
			dep.fabric.record(false, nil)
			batches := dep.front.ClusterStats().GatherBatches - gathersBefore
			lay.rpcP50 = quantile(rpcs, 0.5) / 1e3
			lay.rpcP99 = quantile(rpcs, 0.99) / 1e3
			lay.rpcN = len(rpcs)
			if batches > 0 {
				lay.rpcsPerBatch = float64(len(rpcs)) / float64(batches)
			}
			if traced.served() > 0 {
				lay.wirePerReq = float64(bytes) / float64(traced.served())
			}
		}
	}

	probes, err := runProbes(w, in, spans)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	lay.probes = probes
	path, err := writeSpans(o.out, o, fp, spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if path != "" {
		fmt.Fprintf(log, "spans: %d written to %s\n", spans.len(), path)
	}
	lay.spans = spans
	return lay.report(rep, log)
}

// served counts the phase's answered predictions (warm-up included).
func (ph *servingPhase) served() int {
	n := 0
	for i, e := range ph.evs {
		if e.update < 0 && (ph.reqs[i].st == statusOK || ph.reqs[i].st == statusWrong) {
			n++
		}
	}
	return n
}

// shardRequests returns requests per shard: the server's shards, or the
// cluster's backend nodes (lookup RPCs).
func shardRequests(dep *deployment, shards []serve.ShardStats) []float64 {
	var out []float64
	for _, s := range shards {
		out = append(out, float64(s.Requests))
	}
	if len(out) == 0 && dep.front != nil {
		for _, n := range dep.front.ClusterStats().Nodes {
			out = append(out, float64(n.Lookups))
		}
	}
	return out
}

// skew is max/mean: 1 for perfectly even load.
func skew(vs []float64) float64 {
	m := mean(vs)
	if m == 0 {
		return 0
	}
	var top float64
	for _, v := range vs {
		top = max(top, v)
	}
	return top / m
}

// layerFigures gathers what the per-layer report needs.
type layerFigures struct {
	profile   []byte
	spans     *spanLog
	probes    *probeResult
	overhead  float64
	overheadN int
	// Pooled tails of the untraced half, ms.
	latP99, critP99, updP99 float64
	tailN, critN, updN      int
	lagP99                  float64
	stallFrac               float64
	lagN                    int
	batchMean               float64
	statsMs                 float64
	shardSkew               float64
	invalidations           float64
	pressurePeak            float64
	modeled                 metrics.Breakdown
	modeledN                int
	modeledUpdateUs         float64
	rpcP50, rpcP99          float64
	rpcN                    int
	rpcsPerBatch            float64
	wirePerReq              float64
}

func (l *layerFigures) report(rep *report, log io.Writer) error {
	p := l.probes
	lts := l.spans.selfTimes()
	queue := selfOf(lts, "serve.queue")
	service := selfOf(lts, "serve.service")
	meas := "measured"
	rep.add("loadgen.latency_p99_ms", "ms", meas, l.latP99, l.tailN)
	rep.add("loadgen.crit_p99_ms", "ms", meas, l.critP99, l.critN)
	rep.add("loadgen.update_p99_ms", "ms", meas, l.updP99, l.updN)
	rep.add("loadgen.lag_p99_ms", "ms", meas, l.lagP99, l.lagN)
	rep.add("loadgen.stall_frac", "frac", meas, l.stallFrac, l.lagN)
	rep.add("serve.queue_p50_ms", "ms", meas, quantile(queue.durs, 0.5)/1e6, queue.count)
	rep.add("serve.queue_p99_ms", "ms", meas, quantile(queue.durs, 0.99)/1e6, queue.count)
	rep.add("serve.service_p50_ms", "ms", meas, quantile(service.durs, 0.5)/1e6, service.count)
	rep.add("serve.batch_size_mean", "count", meas, l.batchMean, queue.count)
	rep.add("serve.shard_skew", "ratio", meas, l.shardSkew, 1)
	rep.add("serve.stats_ms", "ms", meas, l.statsMs, 1)
	rep.add("core.new_ms", "ms", meas, p.newMs, 1)
	rep.add("grace.mine_ms", "ms", meas, p.mineMs, numTables)
	rep.add("core.batch1_us", "us", meas, p.batch1Us, p.batch1Samples)
	rep.add("core.embed_us_per_sample", "us", meas, p.embedUsPerSample, poolSize)
	rep.add("dlrm.forward_us_per_sample", "us", meas, p.forwardUsPerSample, poolSize)
	rep.add("grace.cover_ns_per_bag", "ns", meas, p.coverNsPerBag, p.coverBags)
	rep.add("grace.group_read_frac", "frac", "count", p.groupReadFrac, poolSize)
	rep.add("core.mram_bytes_per_sample", "B", "modeled", p.mramBytesPerSample, poolSize)
	rep.add("core.update_us_per_row", "us", meas, p.updateUsPerRow, p.updateRows)
	rep.add("hotcache.invalidations", "count", "count", l.invalidations, 1)
	rep.add("hotcache.hit_frac", "frac", "count", p.cacheHitFrac, p.cacheProbe)
	rep.add("hotcache.probe_ns", "ns", meas, p.cacheProbeNs, p.cacheProbe)
	rep.add("cluster.rpc_p50_us", "us", meas, l.rpcP50, l.rpcN)
	rep.add("cluster.rpc_p99_us", "us", meas, l.rpcP99, l.rpcN)
	rep.add("cluster.rpcs_per_batch", "count", "count", l.rpcsPerBatch, l.rpcN)
	rep.add("cluster.wire_bytes_per_req", "B", "count", l.wirePerReq, l.rpcN)
	rep.add("governor.pressure_peak", "frac", meas, l.pressurePeak, 1)

	bd := l.modeled
	updUs := l.modeledUpdateUs
	if updUs == 0 {
		updUs = p.modeledUpdateUs
	}
	for _, m := range []struct {
		name string
		ns   float64
	}{
		{"modeled.cpu_to_dpu_us", bd.CPUToDPUNs},
		{"modeled.dpu_lookup_us", bd.DPULookupNs},
		{"modeled.dpu_to_cpu_us", bd.DPUToCPUNs},
		{"modeled.host_agg_us", bd.HostAggNs},
		{"modeled.host_cache_us", bd.HostCacheNs},
		{"modeled.mlp_us", bd.MLPNs},
		{"modeled.network_us", bd.NetworkNs},
	} {
		rep.add(m.name, "us", "modeled", m.ns/1e3, l.modeledN)
	}
	rep.add("modeled.update_us", "us", "modeled", updUs, 1)

	shares, n, err := selfShares(l.profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, g := range profileGroups {
		rep.add("profile."+g.metric+"_frac", "frac", meas, shares[g.metric], int(n))
	}
	rep.add("trace.overhead_frac", "frac", meas, l.overhead, l.overheadN)
	rep.add("trace.spans", "count", "count", float64(l.spans.len()), l.spans.len())

	fmt.Fprintf(log, "%-24s %8s %12s\n", "span self time", "count", "total ms")
	for _, lt := range lts {
		fmt.Fprintf(log, "%-24s %8d %12.3f\n", lt.name, lt.count, float64(lt.selfNs)/1e6)
	}
	return nil
}
