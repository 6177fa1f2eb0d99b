// Package clean follows the lockorder contract: every versioned-field write
// comes after a version bump, whole-field initialization is exempt, and the
// allow hatch covers a deliberate exception.
package clean

import "sync/atomic"

type packer struct {
	version atomic.Uint64
	//gridroute:versioned
	xs []float64
}

func newPacker(n int) *packer {
	return &packer{xs: make([]float64, n)}
}

func (p *packer) commit(e int) {
	p.version.Add(1)
	p.xs[e] = 1
}

func (p *packer) reset(e int) {
	p.xs[e] = 0 //gridlint:allow fixture: a reviewed exception with its reason
}
