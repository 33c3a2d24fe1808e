// Package a is the dependent side of the driver summary-layer fixture:
// every function here inherits its facts from package b through the
// fixpoint, never performing the primitive action itself.
package a

import (
	"repro/internal/analysis/testdata/src/driver/b"
	"repro/internal/core"
	"repro/internal/sim"
)

// CallBump calls across the package boundary.
func CallBump() {
	b.Bump()
}

// CallBumpTwice is one more hop away.
func CallBumpTwice() {
	CallBump()
}

// HandOff passes its parameter (index 1) to a releasing callee.
func HandOff(p *b.Pool, r *b.Rec) {
	p.Put(r)
}

// Hold passes its parameter (index 1) to a retaining callee.
func Hold(p *b.Pool, r *b.Rec) {
	p.Keep(r)
}

// UseLock transitively acquires the PG/shard lock.
func UseLock(pr *sim.Proc, locks *core.ShardLocks) {
	b.LockShard(pr, locks)
}

// Pure does none of the above.
func Pure(x int) int {
	return x + 1
}
