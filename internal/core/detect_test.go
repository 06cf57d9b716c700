package duplo

import (
	"math/rand"
	"testing"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// TestTableIIWorkflow reproduces Table II of the paper step by step: four
// wmma.load instructions against the Fig. 6 workspace with a small LHB.
//
//	#1 wmma.load.a array_idx 2  -> element 2, entry 2: miss, allocate
//	#2 wmma.load.b (filter)     -> outside workspace: bypass
//	#3 wmma.load.a array_idx 10 -> element 2, entry 2: hit, register reuse
//	#4 wmma.load.a array_idx 28 -> element 6, entry 2 (6 mod 4): conflict,
//	                               entry replacement
func TestTableIIWorkflow(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	layout := lowering.NewLayout(p, 0x1000, 2)
	du, err := NewDetectionUnit(DetectionUnitConfig{
		// Table II's entry arithmetic (element 6 -> entry 6 mod 4 = 2)
		// implies plain modulo indexing.
		LHB:           LHBConfig{Entries: 4, Ways: 1, ModuloIndex: true},
		LatencyCycles: 2,
	}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if du.Awake() {
		t.Fatal("unit must start power-gated")
	}
	if err := du.Program(p, layout); err != nil {
		t.Fatal(err)
	}
	if !du.Awake() {
		t.Fatal("Program must wake the unit")
	}

	// The paper's array indices are over the logical 4x9 workspace; our
	// addresses use the KPad=16 pitch, so convert (row, col).
	addrOf := func(arrayIdx int) uint64 { return layout.Addr(arrayIdx/9, arrayIdx%9) }

	// #1: array_idx 2 -> element 2, compulsory miss, entry allocation.
	r1, seq1 := du.Access(0, 4, addrOf(2), 0) // dst %r4
	if r1.Kind != AccessMiss || r1.ID.Elem != 2 {
		t.Fatalf("inst 1: %+v", r1)
	}

	// #2: wmma.load.b reads the filter matrix, outside the workspace.
	r2, _ := du.Access(0, 2, 0x9000_0000, 0)
	if r2.Kind != AccessBypass {
		t.Fatalf("inst 2: %+v", r2)
	}

	// #3: array_idx 10 -> different address, same element ID 2: hit; the
	// destination is renamed to inst 1's physical register.
	r3, _ := du.Access(0, 3, addrOf(10), 0)
	if r3.Kind != AccessHit || r3.ID.Elem != 2 {
		t.Fatalf("inst 3: %+v", r3)
	}
	if r3.Reg != r1.Reg {
		t.Fatalf("inst 3 must reuse inst 1's register: %d vs %d", r3.Reg, r1.Reg)
	}
	if du.Renames().Lookup(0, 3) != r1.Reg {
		t.Fatal("rename table not updated")
	}

	// #4: array_idx 28 -> element 6, maps to entry 6 mod 4 = 2: conflict
	// miss with entry replacement.
	r4, _ := du.Access(0, 5, addrOf(28), 0)
	if r4.Kind != AccessMiss || r4.ID.Elem != 6 {
		t.Fatalf("inst 4: %+v", r4)
	}
	st := du.LHBStats()
	if st.Replacements != 1 {
		t.Fatalf("expected the Table II entry replacement, stats %+v", st)
	}
	if st.Hits != 1 || st.Misses != 2 || st.Lookups != 3 {
		t.Fatalf("stats %+v", st)
	}
	_ = seq1
}

func TestDetectionUnitBypassWhenAsleep(t *testing.T) {
	du, err := NewDetectionUnit(DefaultDetectionUnitConfig(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := du.Access(0, 0, 0x1000, 0)
	if r.Kind != AccessBypass {
		t.Fatal("power-gated unit must bypass")
	}
	du.Store(0x1000) // must not panic while asleep
}

func TestDetectionUnitPadColBypass(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	layout := lowering.NewLayout(p, 0x1000, 2)
	du, _ := NewDetectionUnit(DefaultDetectionUnitConfig(), 2, 4)
	if err := du.Program(p, layout); err != nil {
		t.Fatal(err)
	}
	// Column 12 is K-padding (K=9, KPad=16).
	r, _ := du.Access(0, 0, layout.Addr(1, 12), 0)
	if r.Kind != AccessBypass {
		t.Fatalf("pad column must bypass: %+v", r)
	}
}

func TestDetectionUnitRetireAndStore(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	layout := lowering.NewLayout(p, 0, 2)
	du, _ := NewDetectionUnit(DefaultDetectionUnitConfig(), 2, 4)
	if err := du.Program(p, layout); err != nil {
		t.Fatal(err)
	}
	addr := layout.Addr(0, 2)
	r1, seq := du.Access(0, 0, addr, 0)
	if r1.Kind != AccessMiss {
		t.Fatal("expected miss")
	}
	du.Retire(seq)
	r2, _ := du.Access(0, 1, layout.Addr(1, 1), 0) // same element ID (intra-patch dup)
	if r2.Kind != AccessMiss {
		t.Fatalf("after retirement the duplicate must miss again: %+v", r2)
	}
	// Store invalidation path.
	r3, _ := du.Access(0, 2, addr, 0)
	if r3.Kind != AccessHit {
		t.Fatalf("expected hit before store: %+v", r3)
	}
	du.Store(addr)
	r4, _ := du.Access(0, 3, layout.Addr(1, 1), 0)
	if r4.Kind != AccessMiss {
		t.Fatalf("store must invalidate: %+v", r4)
	}
	if du.Latency() != 2 {
		t.Fatalf("latency %d", du.Latency())
	}
}

func TestRenameTable(t *testing.T) {
	rt := NewRenameTable(2, 4)
	if rt.Lookup(0, 0) != InvalidReg {
		t.Fatal("fresh slot must be invalid")
	}
	a := rt.Alloc(0, 0)
	b := rt.Alloc(0, 1)
	if a == b {
		t.Fatal("fresh allocations must differ")
	}
	rt.RenameTo(1, 0, a)
	if rt.Lookup(1, 0) != a {
		t.Fatal("rename not visible")
	}
	if rt.SharedWith(a) != 2 {
		t.Fatalf("sharing count %d", rt.SharedWith(a))
	}
	if rt.LivePhysRegs() != 2 {
		t.Fatalf("live phys regs %d", rt.LivePhysRegs())
	}
	// Overwriting a slot releases its previous mapping.
	rt.Alloc(1, 0)
	if rt.SharedWith(a) != 1 {
		t.Fatalf("sharing count after overwrite %d", rt.SharedWith(a))
	}
	if rt.Renames != 1 || rt.Allocs != 3 {
		t.Fatalf("counters renames=%d allocs=%d", rt.Renames, rt.Allocs)
	}
}

func TestRenameTablePanics(t *testing.T) {
	rt := NewRenameTable(1, 1)
	for _, f := range []func(){
		func() { rt.Lookup(1, 0) },
		func() { rt.Lookup(0, -1) },
		func() { rt.RenameTo(0, 0, InvalidReg) },
		func() { NewRenameTable(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// End-to-end duplicate elimination fraction on a real layer shape: with an
// oracle LHB and no retirement, the eliminated fraction must equal
// 1 - unique/total workspace entries.
func TestEliminationFractionMatchesAnalytic(t *testing.T) {
	p := conv.Params{N: 2, H: 8, W: 8, C: 4, K: 8, FH: 3, FW: 3, Pad: 1, Stride: 1}
	layout := lowering.NewLayout(p, 0x100, 2)
	du, err := NewDetectionUnit(DetectionUnitConfig{
		LHB: LHBConfig{Oracle: true, NeverEvict: true},
	}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := du.Program(p, layout); err != nil {
		t.Fatal(err)
	}
	total, hits := 0, 0
	for row := 0; row < p.GemmM(); row++ {
		for col := 0; col < p.GemmK(); col++ {
			r, _ := du.Access(row%4, col%8, layout.Addr(row, col), 0)
			total++
			if r.Kind == AccessHit {
				hits++
			}
		}
	}
	// Unique (padded) elements referenced = misses.
	misses := total - hits
	seen := map[ID]bool{}
	for row := 0; row < p.GemmM(); row++ {
		for col := 0; col < p.GemmK(); col++ {
			seen[SemanticIDs(p, row, col)] = true
		}
	}
	if misses != len(seen) {
		t.Fatalf("misses %d != unique IDs %d", misses, len(seen))
	}
	if hits == 0 {
		t.Fatal("expected duplicate eliminations")
	}
}

// TestDetectionUnitRetireReleasesAtMostOne pins the chain-length claim of
// lhbEntry.nextUser: Access gives every row load its own sequence number
// and a row load inserts or relays exactly one entry, so Retire(seq)
// releases at most one entry — in every LHB mode, with hits relaying
// entries between sequence numbers and retirement running out of order.
func TestDetectionUnitRetireReleasesAtMostOne(t *testing.T) {
	p := conv.Params{N: 2, H: 8, W: 8, C: 4, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 1}
	layout := lowering.NewLayout(p, 0x1000, 2)
	for _, lhb := range []LHBConfig{DefaultLHBConfig(), {Entries: 64, Ways: 4}, {Oracle: true}} {
		du, err := NewDetectionUnit(DetectionUnitConfig{LHB: lhb, LatencyCycles: 2}, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := du.Program(p, layout); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var pending []uint64
		hits, ones := 0, 0
		retire := func(i int) {
			before := du.LHBStats().Releases
			du.Retire(pending[i])
			switch d := du.LHBStats().Releases - before; d {
			case 0:
			case 1:
				ones++
			default:
				t.Fatalf("%+v: Retire(%d) released %d entries", lhb, pending[i], d)
			}
			pending = append(pending[:i], pending[i+1:]...)
		}
		for step := 0; step < 20000; step++ {
			addr := layout.Addr(rng.Intn(p.GemmM()), rng.Intn(p.GemmK()))
			res, seq := du.Access(rng.Intn(8), rng.Intn(16), addr, int64(step))
			if res.Kind == AccessHit {
				hits++
			}
			pending = append(pending, seq)
			if len(pending) > 48 {
				retire(rng.Intn(len(pending)))
			}
		}
		for len(pending) > 0 {
			retire(len(pending) - 1)
		}
		if hits == 0 || ones == 0 {
			t.Fatalf("%+v: vacuous run (hits=%d, single releases=%d)", lhb, hits, ones)
		}
		if live := du.lhb.Live(); live != 0 {
			t.Fatalf("%+v: %d entries live after every load retired", lhb, live)
		}
	}
}

// TestRenameSharingMatchesTable checks SharedWith and LivePhysRegs against
// counts rebuilt from the table after every op of seeded random
// Alloc/RenameTo sequences, across Resets.
func TestRenameSharingMatchesTable(t *testing.T) {
	const warps, regs = 8, 16
	rt := NewRenameTable(warps, regs)
	rng := rand.New(rand.NewSource(7))
	var allocated []PhysReg
	for step := 0; step < 5000; step++ {
		w, a := rng.Intn(warps), rng.Intn(regs)
		switch r := rng.Intn(100); {
		case r == 0:
			rt.Reset()
			allocated = allocated[:0]
		case r < 30 || len(allocated) == 0:
			allocated = append(allocated, rt.Alloc(w, a))
		default:
			rt.RenameTo(w, a, allocated[rng.Intn(len(allocated))])
		}
		counts := map[PhysReg]int{}
		for w := 0; w < warps; w++ {
			for a := 0; a < regs; a++ {
				if r := rt.Lookup(w, a); r != InvalidReg {
					counts[r]++
				}
			}
		}
		if got := rt.LivePhysRegs(); got != len(counts) {
			t.Fatalf("step %d: LivePhysRegs %d, table holds %d distinct", step, got, len(counts))
		}
		for _, r := range allocated {
			if got := rt.SharedWith(r); got != counts[r] {
				t.Fatalf("step %d: SharedWith(%d) = %d, table holds %d", step, r, got, counts[r])
			}
		}
		if got := rt.SharedWith(InvalidReg); got != 0 {
			t.Fatalf("step %d: SharedWith(InvalidReg) = %d", step, got)
		}
	}
}
