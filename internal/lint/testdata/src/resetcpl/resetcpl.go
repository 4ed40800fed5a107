// Package resetcpl is the resetcomplete fixture: constructor/Reset
// parity in the shapes resettable types use.
package resetcpl

// Pool misses one field in its reset path.
type Pool struct {
	seed  int64
	cache map[string]int
	slots []int
	label string // want "field Pool.label is set by constructor NewPool but never reassigned in Reset"
	gen   uint64 //lint:keep generation survives recycling so stale handles stay inert
}

func NewPool(seed int64, label string) *Pool {
	return &Pool{
		seed:  seed,
		cache: map[string]int{},
		slots: make([]int, 0, 8),
		label: label,
		gen:   1,
	}
}

// Reset covers seed directly, cache via delete, slots via its helper —
// but forgets label; gen is annotated as deliberately kept.
func (p *Pool) Reset(seed int64) {
	p.seed = seed
	for k := range p.cache {
		delete(p.cache, k)
	}
	p.trim()
}

func (p *Pool) trim() {
	p.slots = p.slots[:0]
}

// Wholesale is reset by rewriting the whole struct: every field counts.
type Wholesale struct {
	a, b int
	c    []int
}

func NewWholesale() *Wholesale {
	return &Wholesale{a: 1, b: 2, c: []int{3}}
}

func (w *Wholesale) Reset() {
	*w = Wholesale{a: 1}
}

// NoReset has a constructor but no Reset method: out of scope.
type NoReset struct {
	x int
}

func NewNoReset() *NoReset { return &NoReset{x: 1} }
