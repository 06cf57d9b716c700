// Package flatmap provides Map, a small open-addressed hash table keyed by
// uint64. It replaces Go maps on the simulator's per-access path (the LHB's
// user chains and oracle index, and the per-SM MSHR), where the runtime's
// generic map code cost about a third of simulation time.
//
// The table uses linear probing over a power-of-two slot array, a
// multiplicative (Fibonacci) hash that takes the product's top bits, and
// backward-shift deletion, so there are no tombstones and a probe run never
// outlives the entries that formed it. Reset keeps the slot array, so a
// table reused across pooled simulator runs allocates only when it grows
// past its previous peak.
package flatmap

import "math/bits"

// minSlots is the slot count of a table's first allocation.
const minSlots = 16

type slot[V any] struct {
	key  uint64
	val  V
	used bool
}

// Map is an open-addressed hash table from uint64 keys to values of type V.
// The zero value is an empty table ready to use. A Map is not safe for
// concurrent use.
type Map[V any] struct {
	slots []slot[V] // len is 0 or a power of two
	n     int       // live entries
	shift uint      // 64 - log2(len(slots))
}

// home returns the slot index key hashes to.
func (m *Map[V]) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> m.shift)
}

// find returns the slot holding key, or -1.
func (m *Map[V]) find(key uint64) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored under key and whether it was present.
func (m *Map[V]) Get(key uint64) (V, bool) {
	if i := m.find(key); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put stores val under key and returns the value it replaced and whether
// there was one.
func (m *Map[V]) Put(key uint64, val V) (V, bool) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			*s = slot[V]{key: key, val: val, used: true}
			m.n++
			var zero V
			return zero, false
		}
		if s.key == key {
			old := s.val
			s.val = val
			return old, true
		}
	}
}

// Delete removes key and returns the value it held and whether it was
// present.
func (m *Map[V]) Delete(key uint64) (V, bool) {
	i := m.find(key)
	if i < 0 {
		var zero V
		return zero, false
	}
	val := m.slots[i].val
	m.deleteAt(i)
	return val, true
}

// DeleteIf removes every entry for which drop returns true. The result
// depends only on the table's contents, not on slot order: the scan runs
// up the slot array, and backward-shift deletion only moves an entry the
// scan has not reached yet down to the current slot or above it, so every
// entry is tested at least once (a kept entry that is tested again is kept
// again).
func (m *Map[V]) DeleteIf(drop func(key uint64, val V) bool) {
	for i := 0; i < len(m.slots); {
		s := &m.slots[i]
		if s.used && drop(s.key, s.val) {
			m.deleteAt(i) // may refill slot i: test it again
			continue
		}
		i++
	}
}

// deleteAt empties slot i and shifts later members of its probe run back
// so that every remaining entry stays reachable from its home slot.
func (m *Map[V]) deleteAt(i int) {
	mask := len(m.slots) - 1
	hole := i
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j]: then moving it before its home would
		// make it unreachable.
		if h := m.home(m.slots[j].key); (j-h)&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = slot[V]{}
	m.n--
}

// Reset removes every entry, keeping the slot array for reuse.
func (m *Map[V]) Reset() {
	clear(m.slots)
	m.n = 0
}

// grow doubles the slot array (or allocates the first one) and rehashes.
func (m *Map[V]) grow() {
	old := m.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	m.slots = make([]slot[V], size)
	m.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	m.n = 0
	for i := range old {
		if old[i].used {
			m.Put(old[i].key, old[i].val)
		}
	}
}
