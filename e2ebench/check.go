package main

import (
	"math"
	"sync/atomic"
)

// checker validates served CTRs against two references:
//
//   - cpu, dlrm.EmbedCPU + Model.ForwardBatch, within tol. The engine
//     sums each bag as per-DPU partial sums, so its float32 order differs
//     from the CPU's sequential bag sum by an ulp or two: bit equality
//     with this reference does not hold on any partitioned plan.
//   - engine, a standalone core.Engine built independently from the same
//     model, profile and config, bit for bit (when non-nil). Deployments
//     must not change a prediction: shards, the cluster fabric and
//     replayed batches all reproduce the engine's CTRs exactly.
type checker struct {
	cpu, engine []float32
	tol         float64
	// perturbAt, when positive, corrupts the perturbAt-th checked CTR
	// before comparing it: the self-test's proof that a wrong output is
	// counted as a failed operation.
	perturbAt int64
	n         atomic.Int64
	worst     atomicMax    // largest |CTR - cpu|
	notBitCPU atomic.Int64 // CTRs not bit-identical to cpu (informational)
}

// ok checks the CTR served for pool sample i.
func (c *checker) ok(got float32, i int) bool {
	if n := c.n.Add(1); n == c.perturbAt {
		got = c.perturb(got)
	}
	want := c.cpu[i]
	if math.Float32bits(got) != math.Float32bits(want) {
		c.notBitCPU.Add(1)
	}
	d := math.Abs(float64(got) - float64(want))
	c.worst.observe(d)
	if !(d <= c.tol) { // also catches NaN
		return false
	}
	return c.engine == nil || math.Float32bits(got) == math.Float32bits(c.engine[i])
}

// perturb moves v by the smallest step the check must catch: one ulp
// under bit equality, just past the tolerance otherwise.
func (c *checker) perturb(v float32) float32 {
	if c.engine != nil {
		return math.Nextafter32(v, 2)
	}
	return v + float32(2*c.tol)
}

// checked is how many CTRs the checker has seen.
func (c *checker) checked() int64 { return c.n.Load() }

// atomicMax tracks the largest observed value.
type atomicMax struct{ bits atomic.Uint64 }

func (m *atomicMax) observe(v float64) {
	for {
		old := m.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMax) load() float64 { return math.Float64frombits(m.bits.Load()) }
