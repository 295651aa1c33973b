package workloads

import "prism"

// ZipfFE is a Zipfian front-end — the third traffic-shaped workload,
// and the purest page-pressure generator: a shared table of whole
// pages (striped over processors by first touch) hammered by skewed
// random reads. Each round alternates two barrier-separated phases:
//
//  1. read: every processor draws `ops` (page, word) samples from its
//     Zipfian stream and folds the words into a private checksum —
//     the hot head of the distribution is read by everyone, the tail
//     drags each node through many remote pages.
//  2. update: every processor bumps a version word on each page it
//     owns, invalidating all replicas of the whole working set.
//
// Against the capped page-cache policies the tail forces continuous
// client page-ins and evictions; the update phase keeps even the hot
// head from settling.
type ZipfFE struct {
	pages  int
	ops    int
	rounds int
	zipfs  float64

	n         int // processors
	wordsPage int
	table     []uint64
	sums      []uint64 // per-proc checksum
	reads     []int64  // per-proc completed reads
	zt        *zipfTable

	base prism.VAddr
}

const zipfPageBytes = 4096

func init() {
	Register(Descriptor{
		Name:    "zipf",
		Aliases: []string{"zipffe"},
		DefaultParams: Params{
			"pages":  "2048",
			"ops":    "2048",
			"rounds": "2",
			"zipf":   "0.9",
		},
		New: func(size Size, p Params) (prism.Workload, error) { return newZipfFE(p) },
	})
}

func newZipfFE(p Params) (*ZipfFE, error) {
	w := &ZipfFE{}
	var err error
	if w.pages, err = p.Int("pages"); err != nil {
		return nil, err
	}
	if w.ops, err = p.Int("ops"); err != nil {
		return nil, err
	}
	if w.rounds, err = p.Int("rounds"); err != nil {
		return nil, err
	}
	if w.zipfs, err = p.Float("zipf"); err != nil {
		return nil, err
	}
	w.wordsPage = zipfPageBytes / 8
	return w, nil
}

// Name implements prism.Workload.
func (w *ZipfFE) Name() string { return "zipf" }

// Setup implements prism.Workload.
func (w *ZipfFE) Setup(m *prism.Machine) error {
	w.n = procsOf(m)
	w.zt = newZipfTable(w.pages, w.zipfs)
	w.table = make([]uint64, w.pages*w.wordsPage)
	w.sums = make([]uint64, w.n)
	w.reads = make([]int64, w.n)
	var err error
	w.base, err = m.Alloc("zipf.data", uint64(len(w.table)*8))
	return err
}

// Run implements prism.Workload.
func (w *ZipfFE) Run(ctx *prism.Ctx) {
	p := ctx.P
	me := ctx.ID

	// First-touch stripe: page g belongs to proc g mod N.
	for g := me; g < w.pages; g += w.n {
		base := g * w.wordsPage
		for i := 0; i < w.wordsPage; i++ {
			w.table[base+i] = mix64(uint64(base + i))
		}
		p.WriteRange(u64a(w.base, base), zipfPageBytes)
	}

	ctx.BeginParallel()

	r := rng("zipf", me)
	for round := 0; round < w.rounds; round++ {
		// Phase 1: skewed reads.
		for i := 0; i < w.ops; i++ {
			g := w.zt.sample(r)
			word := g*w.wordsPage + int(r.Int63n(int64(w.wordsPage)))
			w.sums[me] += w.table[word]
			w.reads[me]++
			p.Read(u64a(w.base, word))
			p.Compute(1)
		}
		p.Barrier(1)

		// Phase 2: owners bump their pages' version words.
		for g := me; g < w.pages; g += w.n {
			word := g * w.wordsPage
			w.table[word] = mix64(w.table[word] ^ uint64(round+1))
			p.Write(u64a(w.base, word))
		}
		p.Barrier(2)
	}

	ctx.EndParallel()
}

// Verify checks that every processor completed its full op budget.
func (w *ZipfFE) Verify() bool {
	var total int64
	for _, c := range w.reads {
		total += c
	}
	return total == int64(w.rounds)*int64(w.n)*int64(w.ops)
}

// Checksum folds the per-processor sums (used by differential tests).
func (w *ZipfFE) Checksum() uint64 {
	var c uint64
	for _, s := range w.sums {
		c ^= mix64(s)
	}
	return c
}
