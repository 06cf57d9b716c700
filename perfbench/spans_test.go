package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"duplo/internal/serving"
)

func testRNG(seed int64) *serving.RNG { return serving.NewRNG(seed) }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "post", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "get", Parent: 0, Start: ms(40), End: ms(70)},
		{Name: "decode", Parent: 2, Start: ms(50), End: ms(60)},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(50), ms(20), ms(20), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// A fan-out: three children on different workers overlap; the parent
	// is covered from 10 to 80 (one interval), so its self time is 30.
	spans := []span{
		{Name: "sweep", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "cell", Parent: 0, Start: ms(10), End: ms(50)},
		{Name: "cell", Parent: 0, Start: ms(20), End: ms(60)},
		{Name: "cell", Parent: 0, Start: ms(55), End: ms(80)},
		// A child running past its parent only covers up to the parent's end.
		{Name: "late", Parent: 0, Start: ms(95), End: ms(120)},
	}
	if got := selfTimes(spans)[0]; got != ms(25) {
		t.Errorf("self(sweep) = %v, want 25ms", got)
	}
}

func TestSelfTimeSkipsOpenSpans(t *testing.T) {
	spans := []span{
		{Name: "a", Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "open", Parent: 0, Start: ms(2), End: -1},
	}
	if got := selfTimes(spans); got[0] != ms(10) || got[1] != 0 {
		t.Errorf("selfTimes = %v, want [10ms 0]", got)
	}
}

func TestNilRecorderIsANoOp(t *testing.T) {
	var r *recorder
	i := r.begin("x", 1, -1, r.lane("l"))
	r.end(i)
	if i != -1 || r.snapshot() != nil || r.writePerfetto("unused", "p") != nil {
		t.Error("nil recorder must record nothing")
	}
}

func TestRecorderNestsAndExportsPerfetto(t *testing.T) {
	r := newRecorder()
	lane := r.lane("worker 0")
	root := r.begin("job", 7, -1, lane)
	child := r.begin("http", 7, root, lane)
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].ID != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Error("child span is not inside its parent")
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.writePerfetto(path, "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string                 `json:"ph"`
			Name string                 `json:"name"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			n++
			if ev.Args["id"] != float64(7) {
				t.Errorf("span %s lost its id: %v", ev.Name, ev.Args)
			}
		}
	}
	if n != 2 {
		t.Errorf("%d complete events exported, want 2", n)
	}
}
