package workloads

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// trafficNames lists the traffic-shaped workloads registered by this
// package (the non-paper set).
var trafficNames = []string{"kv", "pubsub", "zipf"}

// verifier is the functional self-check the traffic workloads share.
type verifier interface {
	Verify() bool
	Checksum() uint64
}

func TestTrafficWorkloadsRun(t *testing.T) {
	for _, name := range trafficNames {
		for _, pol := range []string{"SCOMA", "Dyn-LRU"} {
			t.Run(name+"/"+pol, func(t *testing.T) {
				res, w := runMini(t, name, pol)
				if res.Cycles == 0 || res.Refs == 0 {
					t.Fatal("no measured work")
				}
				v := w.(verifier)
				if !v.Verify() {
					t.Error("functional self-check failed")
				}
				if v.Checksum() == 0 {
					t.Error("zero checksum: host algorithm did not run")
				}
			})
		}
	}
}

func TestTrafficDeterminism(t *testing.T) {
	for _, name := range trafficNames {
		a, wa := runMini(t, name, "Dyn-LRU")
		b, wb := runMini(t, name, "Dyn-LRU")
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("%s nondeterministic Results:\n%+v\n%+v", name, a, b)
		}
		if wa.(verifier).Checksum() != wb.(verifier).Checksum() {
			t.Errorf("%s nondeterministic checksum", name)
		}
	}
}

func TestTrafficParamOverrides(t *testing.T) {
	w, err := NewWorkload("kv", MiniSize, Params{"shards": "8", "ops": "64", "zipf": "1.1"})
	if err != nil {
		t.Fatal(err)
	}
	kv := w.(*KV)
	if kv.shards != 8 || kv.ops != 64 || kv.zipfs != 1.1 {
		t.Errorf("overrides not applied: %+v", kv)
	}
	if kv.rounds != 2 {
		t.Errorf("default rounds not preserved: %d", kv.rounds)
	}
	if _, err := NewWorkload("kv", MiniSize, Params{"ops": "zero"}); !errors.Is(err, ErrBadParam) {
		t.Errorf("malformed value: %v", err)
	}
	if _, err := NewWorkload("pubsub", MiniSize, Params{"payload": "100"}); !errors.Is(err, ErrBadParam) {
		t.Errorf("unaligned payload: %v", err)
	}
}

func TestZipfTableDeterministic(t *testing.T) {
	zt := newZipfTable(1024, 0.9)
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	counts := make([]int, 1024)
	for i := 0; i < 10000; i++ {
		a, b := zt.sample(r1), zt.sample(r2)
		if a != b {
			t.Fatalf("sample %d diverged: %d vs %d", i, a, b)
		}
		counts[a]++
	}
	// Skew sanity: rank 0 must dominate the median rank.
	if counts[0] < 10*counts[512]+1 {
		t.Errorf("no Zipfian skew: head %d, median-rank %d", counts[0], counts[512])
	}
}
