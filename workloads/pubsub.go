package workloads

import (
	"fmt"

	"prism"
)

// PubSub is a topic-fanout message bus — the second traffic-shaped
// workload. Topic t is owned by processor t mod procs (its only
// publisher); its subscribers are the next `subs` processors after the
// owner in ring order. Each round alternates two barrier-separated
// single-writer phases:
//
//  1. publish: every owner writes `msgs` messages of `payload` bytes
//     into each of its topics' log slots and bumps the topic sequence
//     word.
//  2. consume: every subscriber reads the sequence word and the fresh
//     messages of each subscribed topic, folding them into a private
//     checksum.
//
// One writer fanning out to `subs` readers makes the log pages' lines
// carry wide sharer sets (at dc sizes, wider than a 64-bit bitmap —
// the reason the directory grew mem.NodeSet), and each round's
// republish drives an invalidation storm over exactly those sets.
type PubSub struct {
	topics  int
	subs    int
	msgs    int
	payload int // bytes per message, multiple of 8
	rounds  int

	n        int // processors
	words    int // payload words per message
	log      []uint64
	seqs     []uint64
	sums     []uint64 // per-proc checksum
	consumed []int64  // per-proc messages consumed

	logBase prism.VAddr
	seqBase prism.VAddr
}

func init() {
	Register(Descriptor{
		Name: "pubsub",
		Params: []Param{
			Count("topics", 256),
			Count("subs", 8),
			Count("msgs", 4),
			Count("payload", 512),
			Count("rounds", 3),
		},
		Check: func(a App) error {
			if a.Int("payload")%8 != 0 {
				return fmt.Errorf("payload=%d (want a multiple of 8 bytes)", a.Int("payload"))
			}
			return nil
		},
		New: func(_ Size, a App) prism.Workload {
			return &PubSub{topics: a.Int("topics"), subs: a.Int("subs"), msgs: a.Int("msgs"),
				payload: a.Int("payload"), words: a.Int("payload") / 8, rounds: a.Int("rounds")}
		},
	})
}

// Name implements prism.Workload.
func (w *PubSub) Name() string { return "pubsub" }

// Setup implements prism.Workload.
func (w *PubSub) Setup(m *prism.Machine) error {
	w.n = procsOf(m)
	w.log = make([]uint64, w.topics*w.msgs*w.words)
	w.seqs = make([]uint64, w.topics)
	w.sums = make([]uint64, w.n)
	w.consumed = make([]int64, w.n)
	var err error
	if w.logBase, err = m.Alloc("pubsub.log", uint64(len(w.log)*8)); err != nil {
		return err
	}
	if w.seqBase, err = m.Alloc("pubsub.seq", uint64(w.topics*8)); err != nil {
		return err
	}
	return nil
}

// owner returns topic t's publisher.
func (w *PubSub) owner(t int) int { return t % w.n }

// subscribes reports whether proc id subscribes to topic t: the subs
// processors after the owner in ring order.
func (w *PubSub) subscribes(id, t int) bool {
	d := ((id-w.owner(t)-1)%w.n + w.n) % w.n
	return d < w.subs
}

// fanout returns the number of distinct subscribers per topic.
func (w *PubSub) fanout() int {
	if w.subs >= w.n {
		return w.n - 1
	}
	return w.subs
}

// Run implements prism.Workload.
func (w *PubSub) Run(ctx *prism.Ctx) {
	p := ctx.P
	me := ctx.ID

	// First-touch our topics' log slots and sequence words.
	for t := 0; t < w.topics; t++ {
		if w.owner(t) != me {
			continue
		}
		base := t * w.msgs * w.words
		for i := 0; i < w.msgs*w.words; i++ {
			w.log[base+i] = mix64(uint64(base + i))
		}
		p.WriteRange(u64a(w.logBase, base), w.msgs*w.payload)
		p.Write(u64a(w.seqBase, t))
	}

	ctx.BeginParallel()

	for round := 0; round < w.rounds; round++ {
		// Phase 1: publish a fresh batch on every owned topic.
		for t := 0; t < w.topics; t++ {
			if w.owner(t) != me {
				continue
			}
			base := t * w.msgs * w.words
			for m := 0; m < w.msgs; m++ {
				val := mix64(uint64(t)<<32 ^ uint64(round)<<16 ^ uint64(m))
				for i := 0; i < w.words; i++ {
					w.log[base+m*w.words+i] = val + uint64(i)
				}
			}
			p.WriteRange(u64a(w.logBase, base), w.msgs*w.payload)
			p.Compute(prism.Time(w.msgs * w.words))
			w.seqs[t]++
			p.Write(u64a(w.seqBase, t))
		}
		p.Barrier(1)

		// Phase 2: consume every subscribed topic's batch.
		for t := 0; t < w.topics; t++ {
			if !w.subscribes(me, t) {
				continue
			}
			p.Read(u64a(w.seqBase, t))
			sum := w.seqs[t]
			base := t * w.msgs * w.words
			for i := 0; i < w.msgs*w.words; i++ {
				sum += w.log[base+i]
			}
			p.ReadRange(u64a(w.logBase, base), w.msgs*w.payload)
			p.Compute(prism.Time(w.msgs * w.words))
			w.sums[me] += sum
			w.consumed[me] += int64(w.msgs)
		}
		p.Barrier(2)
	}

	ctx.EndParallel()
}

// Verify checks the fanout accounting: every topic's batch is consumed
// by exactly fanout() subscribers each round.
func (w *PubSub) Verify() bool {
	var total int64
	for _, c := range w.consumed {
		total += c
	}
	return total == int64(w.rounds)*int64(w.topics)*int64(w.fanout())*int64(w.msgs)
}

// Checksum folds the per-processor sums (used by differential tests).
func (w *PubSub) Checksum() uint64 {
	var c uint64
	for _, s := range w.sums {
		c ^= mix64(s)
	}
	return c
}
