package snapshot_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"prism/internal/core"
	"prism/internal/snapshot"
	"prism/internal/testcase"
)

// tree refers to itself, so its walk takes the recursion branch.
type tree struct {
	Name  string
	Kids  []tree
	Left  *tree
	Index map[string]*tree
}

// TestFingerprintMemoMatchesWalk checks that a memoized fingerprint is
// the one a fresh walk computes, on first use and after, for a value
// and a pointer alike.
func TestFingerprintMemoMatchesWalk(t *testing.T) {
	for _, v := range []any{&core.MachineSnapshot{}, &testcase.Case{}, &tree{}} {
		typ := reflect.TypeOf(v).Elem()
		want := snapshot.WalkFingerprint(typ)
		for i, got := range []string{
			snapshot.Fingerprint(v),
			snapshot.Fingerprint(v),
			snapshot.Fingerprint(reflect.New(typ).Elem().Interface()),
		} {
			if got != want {
				t.Errorf("%v call %d: fingerprint %s, fresh walk %s", typ, i, got, want)
			}
		}
	}
}

// firstUse is fingerprinted by nothing but the concurrent test below,
// so its memo entry is filled by racing goroutines.
type firstUse struct {
	A int
	B []string
	C *firstUse
}

func TestFingerprintConcurrentFirstUse(t *testing.T) {
	want := snapshot.WalkFingerprint(reflect.TypeOf(firstUse{}))
	const n = 8
	got := make([]string, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = snapshot.Fingerprint(&firstUse{})
		}()
	}
	start.Done()
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: fingerprint %s, want %s", i, fp, want)
		}
	}
}

type payloadV1 struct {
	Cycles int64
	Name   string
}

// payloadV2 decodes v1's JSON without error, but its shape differs.
type payloadV2 struct {
	Cycles int64
	Name   string
	Extra  []int `json:",omitempty"`
}

// TestDecodeRejectsSchemaDrift: a stream written from one payload shape
// decodes into that shape and is refused by another, with the memo
// warm for both types.
func TestDecodeRejectsSchemaDrift(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, "test", 1, &payloadV1{Cycles: 7, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	for i := 0; i < 2; i++ {
		var v1 payloadV1
		if err := snapshot.Decode(bytes.NewReader(stream), "test", 1, &v1); err != nil || v1.Cycles != 7 {
			t.Fatalf("same shape: %+v, %v", v1, err)
		}
		var v2 payloadV2
		err := snapshot.Decode(bytes.NewReader(stream), "test", 1, &v2)
		if err == nil || !strings.Contains(err.Error(), "schema fingerprint") {
			t.Fatalf("drifted shape: got %v, want a schema fingerprint mismatch", err)
		}
	}
}

// BenchmarkFingerprint is the machine snapshot's schema fingerprint
// once the memo holds it: what every prismd cache key and every
// checkpoint Encode/Decode pays.
func BenchmarkFingerprint(b *testing.B) {
	snapshot.Fingerprint(&core.MachineSnapshot{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snapshot.Fingerprint(&core.MachineSnapshot{})
	}
}
