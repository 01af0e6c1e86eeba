package server

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// ChaosOptions injects worker-level faults into shard campaigns, the
// distribution-layer analogue of harness.ChaosOptions. Decisions are
// seeded per (shard, attempt) — never per wall clock — so a soak test
// can predict exactly which leases misbehave, and a reassigned attempt
// draws fresh faults:
//
//   - kill: the server dies mid-shard — it cancels every campaign and
//     stops answering HTTP, which is indistinguishable from a killed
//     process;
//   - stall: the shard's inspect hangs, so heartbeats stop while the
//     shard keeps running;
//   - corrupt: the shipped journal has one byte flipped.
type ChaosOptions struct {
	// Seed keys every fault decision.
	Seed int64
	// KillRate is the probability a shard kills its server mid-shard.
	KillRate float64
	// StallRate is the probability a shard's heartbeats stall while it
	// keeps running.
	StallRate float64
	// CorruptRate is the probability a shipped journal has a byte
	// flipped.
	CorruptRate float64
}

// Faults is one shard attempt's drawn fault set.
type Faults struct {
	Kill      bool
	KillAfter int // units admitted before the kill fires
	Stall     bool
	Corrupt   bool
}

// Decide draws the fault set for one (shard, attempt) of units units,
// keyed on the chaos seed — deterministic wherever the lease lands. A
// nil ChaosOptions draws no faults.
func (o *ChaosOptions) Decide(shard, attempt, units int) Faults {
	var f Faults
	if o == nil {
		return f
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "fabric-chaos:%d:%d:%d", o.Seed, shard, attempt)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	if rng.Float64() < o.KillRate {
		f.Kill = true
		f.KillAfter = units/2 + 1 // mid-shard, after real work has folded
	}
	if rng.Float64() < o.StallRate {
		f.Stall = true
	}
	if rng.Float64() < o.CorruptRate {
		f.Corrupt = true
	}
	return f
}
