// Package flagged violates the lockorder contract: a versioned-field write
// with no version bump, and one whose bump comes only after the write.
package flagged

import "sync/atomic"

type packer struct {
	version atomic.Uint64
	// xs is the live weight state; warm-start readers key off the version,
	// so every write needs a preceding bump.
	//gridroute:versioned
	xs []float64
}

func (p *packer) commit(e int) {
	p.version.Add(1)
	p.xs[e] = 1
}

func (p *packer) commitUnstamped(e int) {
	p.xs[e] = 1 // want `write to versioned field xs without a preceding version bump`
}

func (p *packer) commitLate(e int) {
	p.xs[e] = 1 // want `write to versioned field xs without a preceding version bump`
	p.version.Add(1)
}
