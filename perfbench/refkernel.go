package main

import (
	"math/rand"
	"time"
)

// refKernel is a fixed piece of work that uses none of the program under
// test. The wall-time metrics are ratios to it: each sweep (or pass) is
// divided by a run of the kernel made right after it, so that the speed of
// the shared machine at that moment cancels out.
//
// On a host shared with other tenants the program's timings move by a
// quarter or more from one run to the next, while pure arithmetic and
// DRAM-bound loops hardly move: what changes is how much of the core's
// caches the neighbours leave. The kernel therefore does what those
// timings are sensitive to: a pointer chase over a working set the size of
// one core's L2 cache, hash-map updates and short-lived allocations. Across
// runs of the same binary, a sweep's ratio to it spreads several times less
// than the sweep's wall time does.
type refKernel struct {
	next []int32 // one random cycle through every index
	keys []int32
	keep []*refNode
	sink int64
}

// refNode is the kernel's allocation.
type refNode struct {
	val  int64
	next *refNode
}

const (
	refCycle   = 1 << 19 // 2 MB of int32 links
	refSteps   = 200_000
	refKeys    = 1 << 14
	refRounds  = 8
	refAllocs  = 300_000
	refKeepOne = 4 // one node in refKeepOne stays reachable until the run ends
)

// newRefKernel builds the kernel's inputs; they are the same in every run.
func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(refCycle)
	next := make([]int32, refCycle)
	for i := range perm {
		next[perm[i]] = int32(perm[(i+1)%refCycle])
	}
	keys := make([]int32, refKeys)
	for i := range keys {
		keys[i] = int32(rng.Intn(1 << 22))
	}
	return &refKernel{next: next, keys: keys}
}

// run does the kernel's work once and returns its wall time in ms.
func (k *refKernel) run() float64 {
	start := time.Now()
	p := int32(0)
	for i := 0; i < refSteps; i++ {
		p = k.next[p]
	}
	m := map[int32]int64{}
	for r := int32(0); r < refRounds; r++ {
		for i, key := range k.keys {
			m[key^r] += int64(i)
		}
	}
	k.keep = k.keep[:0]
	for i := 0; i < refAllocs; i++ {
		n := &refNode{val: int64(i)}
		if i%refKeepOne == 0 {
			k.keep = append(k.keep, n)
		}
		if len(k.keep) > 0 {
			n.next = k.keep[i%len(k.keep)]
		}
	}
	k.sink += int64(p) + int64(len(m)) + k.keep[len(k.keep)-1].val
	return ms(time.Since(start))
}
