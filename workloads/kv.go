package workloads

import (
	"fmt"

	"prism"
)

// KV is a sharded key-value store under Zipfian load — the first
// traffic-shaped workload, modeled on a memcached-style tier. Keys are
// interleaved over shards (key mod shards) and every shard has one
// owner processor (shard mod procs), the only writer of its keys.
//
// Each round runs three barrier-separated phases (single-writer
// everywhere, so the workload is lock-free in the DESIGN.md §8 sense):
//
//  1. request: every processor samples `ops` keys from its own
//     Zipfian stream and publishes them in its slice of a global
//     request board.
//  2. serve: every processor scans the board and serves the requests
//     that hit its shards — a deterministic writepct% of them as
//     read-modify-writes of the store, the rest as reads.
//  3. readback: every requester reads the current values of the keys
//     it asked for (the client-visible result).
//
// The Zipfian head makes a few store pages globally hot (wide sharer
// sets, invalidation fanout from their owners), while the long tail
// drags every node through many remote pages — the page-cache
// pressure the Dyn-* policies exist for.
type KV struct {
	shards   int
	keys     int
	ops      int
	rounds   int
	writepct int
	zipfs    float64

	n     int // processors
	zt    *zipfTable
	store []uint64
	reqs  []int32
	sums  []uint64 // per-proc checksum accumulator
	srvd  []int64  // per-proc serves

	storeBase prism.VAddr
	reqBase   prism.VAddr
}

func init() {
	Register(Descriptor{
		Name: "kv",
		Params: []Param{
			Count("shards", 64),
			Count("keys", 32768),
			Count("ops", 256),
			Count("rounds", 2),
			Positive("zipf", 0.9),
			Percent("writepct", 30, 1),
		},
		Check: func(a App) error {
			if a.Int("keys") < a.Int("shards") {
				return fmt.Errorf("keys=%d < shards=%d", a.Int("keys"), a.Int("shards"))
			}
			return nil
		},
		New: func(_ Size, a App) prism.Workload {
			return &KV{shards: a.Int("shards"), keys: a.Int("keys"), ops: a.Int("ops"),
				rounds: a.Int("rounds"), writepct: a.Int("writepct"), zipfs: a.Float("zipf")}
		},
	})
}

// Name implements prism.Workload.
func (w *KV) Name() string { return "kv" }

// Setup implements prism.Workload.
func (w *KV) Setup(m *prism.Machine) error {
	w.n = procsOf(m)
	w.zt = newZipfTable(w.keys, w.zipfs)
	w.store = make([]uint64, w.keys)
	w.reqs = make([]int32, w.n*w.ops)
	w.sums = make([]uint64, w.n)
	w.srvd = make([]int64, w.n)
	var err error
	if w.storeBase, err = m.Alloc("kv.store", uint64(w.keys*8)); err != nil {
		return err
	}
	if w.reqBase, err = m.Alloc("kv.req", uint64(w.n*w.ops*4)); err != nil {
		return err
	}
	return nil
}

// ownsShard reports whether proc id serves shard s.
func (w *KV) ownsShard(id, s int) bool { return s%w.n == id }

// Run implements prism.Workload.
func (w *KV) Run(ctx *prism.Ctx) {
	p := ctx.P
	me := ctx.ID

	// Populate the shards this processor owns (first touch homes the
	// interleaved store pages): one simulated write per touched key,
	// the irregular-access convention.
	for k := 0; k < w.keys; k++ {
		if w.ownsShard(me, k%w.shards) {
			w.store[k] = mix64(uint64(k))
			p.Write(u64a(w.storeBase, k))
		}
	}

	ctx.BeginParallel()

	r := rng("kv", me)
	myReqs := w.reqs[me*w.ops : (me+1)*w.ops]
	for round := 0; round < w.rounds; round++ {
		// Phase 1: publish this round's requests (own board slice).
		for i := range myReqs {
			myReqs[i] = int32(w.zt.sample(r))
		}
		p.WriteRange(w.reqBase+prism.VAddr(me*w.ops*4), w.ops*4)
		p.Compute(prism.Time(w.ops))
		p.Barrier(1)

		// Phase 2: serve requests hitting our shards. The board scan
		// is a dense read of every requester's slice; store updates
		// are irregular, one reference per served key.
		p.ReadRange(w.reqBase, w.n*w.ops*4)
		for q := 0; q < w.n; q++ {
			for i := 0; i < w.ops; i++ {
				k := int(w.reqs[q*w.ops+i])
				if !w.ownsShard(me, k%w.shards) {
					continue
				}
				w.srvd[me]++
				if mix64(uint64(k)<<32^uint64(round*w.n*w.ops+q*w.ops+i))%100 < uint64(w.writepct) {
					w.store[k] = mix64(w.store[k] ^ uint64(round+1))
					p.Read(u64a(w.storeBase, k))
					p.Write(u64a(w.storeBase, k))
				} else {
					w.sums[me] += w.store[k]
					p.Read(u64a(w.storeBase, k))
				}
				p.Compute(2)
			}
		}
		p.Barrier(2)

		// Phase 3: read back the values of our own requests.
		for _, k := range myReqs {
			w.sums[me] += w.store[k]
			p.Read(u64a(w.storeBase, int(k)))
		}
		p.Compute(prism.Time(w.ops))
		p.Barrier(3)
	}

	ctx.EndParallel()
}

// Verify checks the serve accounting: every request is routed to
// exactly one shard owner, so total serves must equal total requests.
func (w *KV) Verify() bool {
	var total int64
	for _, s := range w.srvd {
		total += s
	}
	return total == int64(w.rounds)*int64(w.n)*int64(w.ops)
}

// Checksum folds the per-processor sums (deterministic for a given
// machine shape; used by the differential tests).
func (w *KV) Checksum() uint64 {
	var c uint64
	for _, s := range w.sums {
		c ^= mix64(s)
	}
	return c
}
