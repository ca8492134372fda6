// Package shard is the nationwide-scale tier of the serving stack: a
// consistent-hash ring placing antennas on the N shards of one bounded
// serve.Sinks ingest tier, and a thin HTTP router fronting M serve
// replicas that fans revision-tagged model snapshots out through the
// existing SwapSnapshot/Refresher machinery — so every replica serves the
// same registered revision and every acked batch survives shard kills
// and graceful shutdown.
//
// The package deliberately reuses the single-node building blocks instead
// of inventing parallel ones: the ingest tier is the server's own
// serve.Sinks (per-shard queues over plain collect.Sinks), handed to every
// replica; replicas are plain serve.Servers; fault injection rides the
// same internal/fault sites; and the refresher, attached to replica 0,
// folds the tier's merged totals and fans each swap out through its one
// OnSwap seam.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/rng"
)

// DefaultVirtualNodes is the per-shard virtual-node count. 128 vnodes keep
// the per-shard share of the hash space within a few percent of ideal for
// the shard counts this system runs (2–16).
const DefaultVirtualNodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a seeded consistent-hash ring. Each shard contributes
// VirtualNodes points drawn from its own rng stream derived from (seed,
// shard) — streams are independent, so adding shard N+1 never moves the
// points of shards 0..N and removing a shard remaps only the keys it
// owned. Dead shards keep their points (marked not-alive); ownership walks
// forward to the next alive point, which is what makes Remove minimal.
type Ring struct {
	seed   uint64
	vnodes int

	mu     sync.RWMutex
	points []ringPoint // sorted by (hash, shard)
	alive  []bool      // indexed by shard id
	aliveN int
}

// NewRing builds a ring over shards ≥ 1 initial shards. virtualNodes ≤ 0
// selects DefaultVirtualNodes. The same (shards, virtualNodes, seed)
// always yields the same placement — see Digest.
func NewRing(shards, virtualNodes int, seed uint64) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", shards)
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	r := &Ring{seed: seed, vnodes: virtualNodes}
	for s := 0; s < shards; s++ {
		r.appendShardLocked(s)
	}
	r.sortPointsLocked()
	r.noteChange(r.occupancySnapshot())
	return r, nil
}

// appendShardLocked adds shard s's virtual nodes from its private stream.
func (r *Ring) appendShardLocked(s int) {
	src := rng.New(mix64(r.seed) ^ mix64(uint64(s)+1))
	for k := 0; k < r.vnodes; k++ {
		r.points = append(r.points, ringPoint{hash: src.Uint64(), shard: s})
	}
	r.alive = append(r.alive, true)
	r.aliveN++
}

func (r *Ring) sortPointsLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// Place maps an antenna id to its owning shard: the first alive virtual
// node at or clockwise of the key's mixed hash. The ring always holds at
// least one alive shard (Remove refuses to kill the last), so Place never
// fails.
func (r *Ring) Place(key uint32) int {
	h := mix64(uint64(key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(h)
}

func (r *Ring) ownerLocked(h uint64) int {
	n := len(r.points)
	i := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for step := 0; step < n; step++ {
		p := r.points[(i+step)%n]
		if r.alive[p.shard] {
			return p.shard
		}
	}
	return -1
}

// Add grows the ring by one shard and returns its id. Existing shards'
// points do not move, so only the keys the new shard now owns remap.
func (r *Ring) Add() int {
	r.mu.Lock()
	id := len(r.alive)
	r.appendShardLocked(id)
	r.sortPointsLocked()
	occ := r.occupancyLocked()
	r.mu.Unlock()
	r.noteChange(occ)
	return id
}

// Remove marks a shard dead, remapping only the keys it owned (its points
// pass ownership forward to the next alive point). Removing an unknown,
// already-dead, or the last alive shard is an error.
func (r *Ring) Remove(shard int) error {
	r.mu.Lock()
	if shard < 0 || shard >= len(r.alive) {
		r.mu.Unlock()
		return fmt.Errorf("shard: ring has no shard %d", shard)
	}
	if !r.alive[shard] {
		r.mu.Unlock()
		return fmt.Errorf("shard: shard %d already removed", shard)
	}
	if r.aliveN == 1 {
		r.mu.Unlock()
		return fmt.Errorf("shard: cannot remove the last alive shard %d", shard)
	}
	r.alive[shard] = false
	r.aliveN--
	occ := r.occupancyLocked()
	r.mu.Unlock()
	r.noteChange(occ)
	return nil
}

// noteChange records a membership change and the resulting per-alive-shard
// occupancy shares.
func (r *Ring) noteChange(occ []float64) {
	obs.Add("shard.ring.changes", 1)
	h := obs.GetHistogram("shard.ring.occupancy", nil)
	for _, share := range occ {
		if share > 0 {
			h.Observe(share)
		}
	}
}

// Shards returns the total shard count, dead shards included (shard ids
// are stable; they never compact).
func (r *Ring) Shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.alive)
}

// Alive returns the number of alive shards.
func (r *Ring) Alive() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.aliveN
}

// IsAlive reports whether a shard id is currently alive.
func (r *Ring) IsAlive(shard int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return shard >= 0 && shard < len(r.alive) && r.alive[shard]
}

// Occupancy returns each shard's exact share of the 64-bit hash space
// (dead shards report 0; shares sum to 1 up to float rounding). Computed
// from arc lengths, not sampling.
func (r *Ring) Occupancy() []float64 {
	return r.occupancySnapshot()
}

func (r *Ring) occupancySnapshot() []float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.occupancyLocked()
}

func (r *Ring) occupancyLocked() []float64 {
	occ := make([]float64, len(r.alive))
	n := len(r.points)
	if n == 0 || r.aliveN == 0 {
		return occ
	}
	const hashSpace = 18446744073709551616.0 // 2^64
	for i := 0; i < n; i++ {
		owner := r.aliveOwnerFromLocked(i)
		prev := r.points[(i+n-1)%n].hash
		// uint64 subtraction wraps, so the arc through zero is measured
		// correctly for i == 0.
		arc := r.points[i].hash - prev
		occ[owner] += float64(arc) / hashSpace
	}
	return occ
}

// aliveOwnerFromLocked resolves the alive shard owning the arc that ends
// at point index i: the first alive point at or after i, wrapping.
func (r *Ring) aliveOwnerFromLocked(i int) int {
	n := len(r.points)
	for step := 0; step < n; step++ {
		p := r.points[(i+step)%n]
		if r.alive[p.shard] {
			return p.shard
		}
	}
	return -1
}

// Digest folds the full placement state — every point's position, owner,
// and liveness — into one 64-bit FNV-1a value. Two rings agreeing on the
// digest place every key identically; chaos harnesses print it so
// run-to-run placement reproducibility is checkable.
func (r *Ring) Digest() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var h uint64 = 0xcbf29ce484222325
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	for _, p := range r.points {
		mix(p.hash)
		v := uint64(p.shard) << 1
		if r.alive[p.shard] {
			v |= 1
		}
		mix(v)
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer used both to spread antenna ids around the circle and to derive
// per-shard rng streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
