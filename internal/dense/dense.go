// Package dense provides epoch-stamped flat-array state for hot paths.
//
// Every bookkeeping structure on the routing hot paths (edge occupancy in
// the verifiers, lane/quota tables in the randomized router, per-node packet
// groups in detailed routing) is a sparse view over a known, compact integer
// universe: w×node×axis link ids, tile×plane×lane ids, grid node ids. The
// map-based implementations paid a hash per touch — millions per experiment.
// The types here replace them with flat slices plus an epoch stamp per cell,
// so clearing between runs (or between simulation steps) is O(1): bump the
// epoch and every cell reads as zero again. Buffers grow monotonically and
// are reused, which makes repeated runs (sweeps, retries) allocation-free
// once warm.
package dense

// Counts is a reusable dense multiset over [0, universe): a map[int]int
// replacement with O(1) clearing and no hashing. The zero value is ready to
// use after a Reset.
type Counts struct {
	epoch   uint32
	stamp   []uint32
	val     []int32
	touched []int32
}

// Reset clears all counts and (re)sizes the universe. Existing buffers are
// reused when large enough, so a warm Counts allocates nothing.
//
//gridroute:hotpath
func (c *Counts) Reset(universe int) {
	if cap(c.stamp) < universe {
		c.stamp = make([]uint32, universe)
		c.val = make([]int32, universe)
	}
	c.stamp = c.stamp[:universe]
	c.val = c.val[:universe]
	c.touched = c.touched[:0]
	c.epoch++
	if c.epoch == 0 {
		// Epoch wrapped: stale stamps from 2^32 resets ago could alias.
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
}

// Len returns the universe size.
func (c *Counts) Len() int { return len(c.val) }

// Get returns the count at i (0 if never written this epoch).
//
//gridroute:hotpath
func (c *Counts) Get(i int) int {
	if c.stamp[i] != c.epoch {
		return 0
	}
	return int(c.val[i])
}

// Add adds delta to the count at i and returns the new value.
//
//gridroute:hotpath
func (c *Counts) Add(i, delta int) int {
	if c.stamp[i] != c.epoch {
		c.stamp[i] = c.epoch
		c.val[i] = int32(delta)
		c.touched = append(c.touched, int32(i))
		return delta
	}
	c.val[i] += int32(delta)
	return int(c.val[i])
}

// Touched returns the indices written this epoch, in first-write order. The
// slice is invalidated by the next Reset; callers must not retain it.
func (c *Counts) Touched() []int32 { return c.touched }

// Buckets groups items (numbered 0..items-1) by an integer key in
// [0, universe): a map[int][]int replacement. Chains preserve Put order, and
// Keys returns distinct keys in first-seen order, so iteration is
// deterministic. The zero value is ready to use after a Reset.
type Buckets struct {
	epoch uint32
	stamp []uint32
	head  []int32
	tail  []int32
	next  []int32
	keys  []int32
}

// Reset clears all buckets and (re)sizes the key universe and item count.
// Warm Buckets allocate nothing.
//
//gridroute:hotpath
func (b *Buckets) Reset(universe, items int) {
	if cap(b.stamp) < universe {
		b.stamp = make([]uint32, universe)
		b.head = make([]int32, universe)
		b.tail = make([]int32, universe)
	}
	b.stamp = b.stamp[:universe]
	b.head = b.head[:universe]
	b.tail = b.tail[:universe]
	if cap(b.next) < items {
		b.next = make([]int32, items)
	}
	b.next = b.next[:items]
	b.keys = b.keys[:0]
	b.epoch++
	if b.epoch == 0 {
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.epoch = 1
	}
}

// Put appends item to the bucket of key. Each item must be Put at most once
// per epoch.
//
//gridroute:hotpath
func (b *Buckets) Put(key, item int) {
	b.next[item] = -1
	if b.stamp[key] != b.epoch {
		b.stamp[key] = b.epoch
		b.head[key] = int32(item)
		b.tail[key] = int32(item)
		b.keys = append(b.keys, int32(key))
		return
	}
	b.next[b.tail[key]] = int32(item)
	b.tail[key] = int32(item)
}

// Keys returns the distinct keys seen this epoch in first-Put order. The
// slice is invalidated by the next Reset.
func (b *Buckets) Keys() []int32 { return b.keys }

// First returns the first item of key's bucket, or -1 when empty.
//
//gridroute:hotpath
func (b *Buckets) First(key int) int {
	if b.stamp[key] != b.epoch {
		return -1
	}
	return int(b.head[key])
}

// Next returns the item following item in its bucket, or -1 at the end.
func (b *Buckets) Next(item int) int { return int(b.next[item]) }
