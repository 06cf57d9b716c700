package flatmap

import (
	"math/rand"
	"testing"
)

// checkSame fails unless m holds exactly the entries of ref.
func checkSame(t *testing.T, step int, m *Map[int64], ref map[uint64]int64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("step %d: Len %d, reference %d", step, m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("step %d: Get(%#x) = %d,%v, want %d,true", step, k, got, ok, want)
		}
	}
	used := 0
	for i := range m.slots {
		if m.slots[i].used {
			used++
			if _, ok := ref[m.slots[i].key]; !ok {
				t.Fatalf("step %d: stray key %#x in slot %d", step, m.slots[i].key, i)
			}
		}
	}
	if used != len(ref) {
		t.Fatalf("step %d: %d used slots, want %d", step, used, len(ref))
	}
}

// replay applies an op stream to a Map and to a Go map side by side and
// checks that they hold the same entries after every op. Each op is three
// bytes: the op code, a key selector and a value. Keys are drawn from a
// small pool so Put/Get/Delete keep hitting present keys; the pool mixes
// sequential keys (instruction sequence numbers), line-aligned addresses
// (MSHR keys), zero, and the top of the key space.
func replay(t *testing.T, ops []byte) {
	var m Map[int64]
	ref := map[uint64]int64{}
	key := func(sel byte) uint64 {
		switch sel % 4 {
		case 0:
			return uint64(sel)
		case 1:
			return uint64(sel) << 7
		case 2:
			return ^uint64(0) - uint64(sel)
		default:
			return uint64(sel) * 0x9E3779B97F4A7C15 // collides with the hash
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		k, v := key(ops[i+1]), int64(ops[i+2])
		switch ops[i] % 8 {
		case 0, 1, 2:
			got, ok := m.Put(k, v)
			if want, wantOK := ref[k]; ok != wantOK || got != want {
				t.Fatalf("step %d: Put(%#x) replaced %d,%v, want %d,%v", i/3, k, got, ok, want, wantOK)
			}
			ref[k] = v
		case 3, 4:
			got, ok := m.Delete(k)
			if want, wantOK := ref[k]; ok != wantOK || got != want {
				t.Fatalf("step %d: Delete(%#x) = %d,%v, want %d,%v", i/3, k, got, ok, want, wantOK)
			}
			delete(ref, k)
		case 5:
			got, ok := m.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: Get(%#x) = %d,%v, want %d,%v", i/3, k, got, ok, want, wantOK)
			}
		case 6:
			// The MSHR sweep: drop entries whose value is at or below a
			// threshold.
			m.DeleteIf(func(_ uint64, val int64) bool { return val <= v })
			for rk, rv := range ref {
				if rv <= v {
					delete(ref, rk)
				}
			}
		case 7:
			if ops[i+2]%4 == 0 {
				m.Reset()
				clear(ref)
			}
		}
		checkSame(t, i/3, &m, ref)
	}
}

// TestMapMatchesGoMap replays seeded random op streams, long enough to
// grow the table several times and to run sweeps and Resets mid-stream.
func TestMapMatchesGoMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*4000)
		rng.Read(ops)
		replay(t, ops)
	}
}

// TestMapGrowthAndReset fills past several doublings, empties the table
// with Reset, and checks that refilling to the same size reuses the slot
// array without allocating.
func TestMapGrowthAndReset(t *testing.T) {
	var m Map[int32]
	const n = 5000
	for i := 0; i < n; i++ {
		m.Put(uint64(i)<<7, int32(i))
	}
	if m.Len() != n {
		t.Fatalf("Len %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(uint64(i) << 7); !ok || v != int32(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	size := len(m.slots)
	allocs := testing.AllocsPerRun(5, func() {
		m.Reset()
		for i := 0; i < n; i++ {
			m.Put(uint64(i)<<7, int32(i))
		}
	})
	if allocs != 0 || len(m.slots) != size {
		t.Fatalf("refill after Reset: %.0f allocs, %d slots (was %d)", allocs, len(m.slots), size)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset %d", m.Len())
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("Get hit after Reset")
	}
}

// TestMapDeleteIfWrapsAround sweeps a table whose probe runs wrap past the
// end of the slot array, the case where backward-shift deletion moves
// entries the scan has already passed.
func TestMapDeleteIfWrapsAround(t *testing.T) {
	var m Map[int64]
	m.Put(0, 0) // allocate minSlots slots
	m.Delete(0)
	// Keys whose home is the last slot.
	var keys []uint64
	for k := uint64(1); len(keys) < 6; k++ {
		if m.home(k) == len(m.slots)-1 {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		m.Put(k, int64(i))
	}
	m.DeleteIf(func(_ uint64, v int64) bool { return v%2 == 0 })
	if m.Len() != 3 {
		t.Fatalf("Len %d after sweep, want 3", m.Len())
	}
	for i, k := range keys {
		_, ok := m.Get(k)
		if ok != (i%2 == 1) {
			t.Fatalf("key %d present=%v after sweep", i, ok)
		}
	}
}

// FuzzMapOps replays arbitrary op streams against a Go map (see replay for
// the encoding).
func FuzzMapOps(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 6, 5, 1, 0, 3, 1, 0, 5, 2, 0})
	f.Add([]byte{0, 3, 9, 0, 7, 8, 0, 11, 7, 6, 0, 8, 5, 3, 0, 7, 0, 4})
	seq := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		seq = append(seq, 0, byte(4*i), byte(i))
	}
	f.Add(append(seq, 6, 0, 31, 7, 0, 0, 0, 4, 1))
	f.Fuzz(func(t *testing.T, ops []byte) {
		replay(t, ops)
	})
}
