// Package b is the dependency side of the driver summary-layer fixture:
// it defines the primitive facts (a lock acquisition, a pool release, a
// retention) that package a must observe transitively through the
// summary table, plus a plain callee for call-graph edges.
package b

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Counter is package-level mutable state.
var Counter int

// Bump writes the global directly.
func Bump() {
	Counter++
}

// Rec is a pooled record.
type Rec struct {
	N int
}

// Pool recycles Recs.
type Pool struct {
	free []*Rec
	last *Rec
}

// Put releases r (parameter 0) to the pool's free list.
func (p *Pool) Put(r *Rec) {
	p.free = append(p.free, r)
}

// Keep retains r (parameter 0) beyond the call.
func (p *Pool) Keep(r *Rec) {
	p.last = r
}

// LockShard acquires (and releases) one PG/shard lock.
func LockShard(pr *sim.Proc, locks *core.ShardLocks) {
	l := locks.Get(9)
	l.Lock(pr)
	l.Unlock(pr)
}
