// QoS study, in two parts.
//
// Part 1 — priority isolation: the same overload burst (latency-
// critical ranking traffic mixed into a best-effort backfill flood) is
// served twice, once FIFO (everything Normal — the pre-QoS server) and
// once through the weighted deficit-round-robin scheduler. The table
// shows Critical's percentiles collapsing while Batch keeps its
// guaranteed share of every scheduling round.
//
// Part 2 — heterogeneous shards: the same mixed-class stream is served
// by homogeneous two-shard deployments of each partitioning method and
// by a heterogeneous deployment mixing two methods. The profile router
// scores every micro-batch against each shard's fixed-plus-marginal
// cost fit (seeded from static probes, tracked by EWMA), so small
// Critical batches and large Batch-class batches can land on different
// configurations; the table reports each deployment's percentiles and
// where the heterogeneous router sent the traffic.
//
// Run with: go run ./examples/qos
// Flags:    -requests for the stream length, -preset for the workload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"

	"updlrm"
	"updlrm/internal/metrics"
)

func main() {
	var (
		preset   = flag.String("preset", "read", "workload preset (see updlrm.PresetNames)")
		requests = flag.Int("requests", 1024, "live requests per run")
	)
	flag.Parse()

	spec, err := updlrm.Preset(*preset)
	if err != nil {
		log.Fatal(err)
	}
	spec = updlrm.Scaled(spec, 0.005, 0.5)
	spec.Tables = 4
	const profileN = 512
	stream, err := spec.Generate(profileN + *requests)
	if err != nil {
		log.Fatal(err)
	}
	profile := &updlrm.Trace{
		NumTables:    stream.NumTables,
		RowsPerTable: stream.RowsPerTable,
		DenseDim:     stream.DenseDim,
		Samples:      stream.Samples[:profileN],
	}
	live := stream.Samples[profileN:]
	model, err := updlrm.NewModel(updlrm.DefaultModelConfig(stream.RowsPerTable))
	if err != nil {
		log.Fatal(err)
	}

	// 10% latency-critical traffic over a best-effort flood.
	classes := make([]updlrm.RequestClass, len(live))
	for i := range classes {
		classes[i] = updlrm.BatchClass
		if i%10 == 0 {
			classes[i] = updlrm.CriticalClass
		}
	}

	if err := isolationStudy(model, profile, live, classes); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := heteroStudy(model, profile, live, classes); err != nil {
		log.Fatal(err)
	}
}

// burst fires every request at once (an overload burst: arrivals far
// outpace service, so scheduling policy decides the tails) and waits
// for the stream to drain.
func burst(srv *updlrm.Server, live []updlrm.Sample, classes []updlrm.RequestClass) error {
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, len(live))
	for i, s := range live {
		wg.Add(1)
		go func(s updlrm.Sample, class updlrm.RequestClass) {
			defer wg.Done()
			_, err := srv.Predict(ctx, updlrm.ServeRequest{Dense: s.Dense, Sparse: s.Sparse, Class: class})
			if err != nil && !errors.Is(err, updlrm.ErrServerOverloaded) {
				errs <- err
			}
		}(s, classes[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// isolationStudy is part 1: FIFO vs QoS on the same overload burst.
func isolationStudy(model *updlrm.Model, profile *updlrm.Trace, live []updlrm.Sample, classes []updlrm.RequestClass) error {
	fmt.Println("Part 1: QoS isolation under an overload burst (10% critical, 90% batch)")

	ecfg := updlrm.DefaultEngineConfig()
	ecfg.TotalDPUs = 64
	allNormal := make([]updlrm.RequestClass, len(live))
	var rows [][]string
	for _, run := range []struct {
		name    string
		classes []updlrm.RequestClass
	}{
		{"fifo (all normal)", allNormal},
		{"qos (16:4:1 weights)", classes},
	} {
		srv, err := updlrm.NewServer(model, profile, ecfg, updlrm.ServerConfig{
			Shards: 2, MaxBatch: 16, QueueDepth: 4096,
		})
		if err != nil {
			return err
		}
		if err := burst(srv, live, run.classes); err != nil {
			srv.Close()
			return err
		}
		st := srv.Stats()
		srv.Close()
		rows = append(rows, []string{
			run.name, "all",
			fmt.Sprintf("%d", st.Requests),
			metrics.FormatNs(st.P50Ns), metrics.FormatNs(st.P99Ns),
			metrics.FormatNs(st.QueueP99Ns),
		})
		for c := updlrm.RequestClass(0); c < updlrm.NumRequestClasses; c++ {
			cs := st.PerClass[c]
			if cs.Requests == 0 {
				continue
			}
			rows = append(rows, []string{
				run.name, c.String(),
				fmt.Sprintf("%d", cs.Requests),
				metrics.FormatNs(cs.P50Ns), metrics.FormatNs(cs.P99Ns),
				metrics.FormatNs(cs.QueueP99Ns),
			})
		}
	}
	fmt.Print(metrics.Table(
		[]string{"server", "class", "requests", "p50", "p99", "q.p99"}, rows))
	return nil
}

// heteroStudy is part 2: homogeneous deployments of each method vs a
// heterogeneous mix, same mixed-class burst.
func heteroStudy(model *updlrm.Model, profile *updlrm.Trace, live []updlrm.Sample, classes []updlrm.RequestClass) error {
	fmt.Println("Part 2: heterogeneous shards vs homogeneous deployments (same mixed burst)")

	base := updlrm.DefaultEngineConfig()
	base.TotalDPUs = 64
	mk := func(m updlrm.PartitionMethod) updlrm.EngineConfig {
		cfg := base
		cfg.Method = m
		return cfg
	}
	deployments := []struct {
		name   string
		shards []updlrm.EngineConfig
	}{
		{"2x uniform", []updlrm.EngineConfig{mk(updlrm.Uniform), mk(updlrm.Uniform)}},
		{"2x nonuniform", []updlrm.EngineConfig{mk(updlrm.NonUniform), mk(updlrm.NonUniform)}},
		{"2x cacheaware", []updlrm.EngineConfig{mk(updlrm.CacheAware), mk(updlrm.CacheAware)}},
		{"uniform+cacheaware", []updlrm.EngineConfig{mk(updlrm.Uniform), mk(updlrm.CacheAware)}},
		{"nonuniform+cacheaware", []updlrm.EngineConfig{mk(updlrm.NonUniform), mk(updlrm.CacheAware)}},
	}

	var rows [][]string
	for _, d := range deployments {
		srv, err := updlrm.NewServer(model, profile, updlrm.EngineConfig{}, updlrm.ServerConfig{
			ShardConfigs: d.shards, MaxBatch: 16, QueueDepth: 4096,
		})
		if err != nil {
			return err
		}
		if err := burst(srv, live, classes); err != nil {
			srv.Close()
			return err
		}
		st := srv.Stats()
		srv.Close()
		split := "-"
		if len(st.Shards) == 2 {
			split = fmt.Sprintf("%d/%d", st.Shards[0].Requests, st.Shards[1].Requests)
		}
		rows = append(rows, []string{
			d.name,
			fmt.Sprintf("%d", st.Requests),
			metrics.FormatNs(st.PerClass[updlrm.CriticalClass].P99Ns),
			metrics.FormatNs(st.P50Ns),
			metrics.FormatNs(st.P99Ns),
			fmt.Sprintf("%.0f", st.ThroughputRPS),
			split,
		})
	}
	fmt.Print(metrics.Table(
		[]string{"deployment", "requests", "crit p99", "p50", "p99", "rps", "shard split"}, rows))
	fmt.Println("\nshard split: requests served by shard 0 / shard 1 — how the profile")
	fmt.Println("router divided the mixed burst between the two configurations.")
	return nil
}
