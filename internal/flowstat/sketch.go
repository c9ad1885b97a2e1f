package flowstat

// splitmix64 is the finalizer used to derive the per-row sketch indexes
// from one flow hash (same mixer family the RSS steering uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CountMin is a count-min sketch over evicted flow mass: depth rows of a
// power-of-two width. Cells are plain: a table's sketch is only touched
// under the table's hold. Point estimates overestimate by at most εN
// with probability 1-(1/2)^depth, where ε = e/width and N is the total
// mass added.
type CountMin struct {
	width uint64 // power of two
	depth int
	cells []uint64 // depth rows of width cells
	added uint64   // total mass, for the εN error bound
}

// NewCountMin builds a sketch; width is rounded up to a power of two.
func NewCountMin(width, depth int) *CountMin {
	w := uint64(1)
	for int(w) < width {
		w <<= 1
	}
	if depth < 1 {
		depth = 1
	}
	return &CountMin{width: w, depth: depth, cells: make([]uint64, w*uint64(depth))}
}

// Add folds n into every row's cell for hash.
func (c *CountMin) Add(hash, n uint64) {
	h := hash
	for d := 0; d < c.depth; d++ {
		h = splitmix64(h)
		c.cells[uint64(d)*c.width+(h&(c.width-1))] += n
	}
	c.added += n
}

// Estimate returns the minimum over rows — the classic point estimate.
func (c *CountMin) Estimate(hash uint64) uint64 {
	est := ^uint64(0)
	h := hash
	for d := 0; d < c.depth; d++ {
		h = splitmix64(h)
		if v := c.cells[uint64(d)*c.width+(h&(c.width-1))]; v < est {
			est = v
		}
	}
	return est
}

// Width returns the (rounded) row width.
func (c *CountMin) Width() int { return int(c.width) }

// Depth returns the row count.
func (c *CountMin) Depth() int { return c.depth }

// Added returns the total mass folded in.
func (c *CountMin) Added() uint64 { return c.added }

// TopK is a space-saving top-k summary of evicted flow mass, touched
// only under its table's hold. It is four parallel arrays so that Offer,
// which runs on every eviction and usually misses, scans k compact
// hashes and k compact counts rather than striding whole entries.
type TopK struct {
	hashes []uint64
	counts []uint64 // accumulated evicted count
	errs   []uint64 // overestimation bound inherited from the entry displaced
	tups   []tuple
}

// NewTopK builds a summary keeping k flows.
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{
		hashes: make([]uint64, 0, k), counts: make([]uint64, 0, k),
		errs: make([]uint64, 0, k), tups: make([]tuple, 0, k),
	}
}

// find returns hash's index in the summary, or -1.
func (t *TopK) find(hash uint64) int {
	for i, h := range t.hashes {
		if h == hash {
			return i
		}
	}
	return -1
}

// Offer folds an evicted flow record into the summary: increment if
// present, insert if there is room, otherwise displace the current
// minimum (space-saving: the newcomer inherits min.count as its error
// bound, keeping the invariant true_count ≤ count ≤ true_count + err).
func (t *TopK) Offer(r *rawRec) {
	if i := t.find(r.hash); i >= 0 {
		t.counts[i] += r.pkts
		if !t.tups[i].tupOK {
			t.tups[i] = r.tuple
		}
		return
	}
	if len(t.hashes) < cap(t.hashes) {
		t.hashes = append(t.hashes, r.hash)
		t.counts = append(t.counts, r.pkts)
		t.errs = append(t.errs, 0)
		t.tups = append(t.tups, r.tuple)
		return
	}
	m := 0
	for i, c := range t.counts {
		if c < t.counts[m] {
			m = i
		}
	}
	t.hashes[m], t.errs[m], t.tups[m] = r.hash, t.counts[m], r.tuple
	t.counts[m] += r.pkts
}
