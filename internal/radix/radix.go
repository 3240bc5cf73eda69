// Package radix implements the per-process radix tree DeX uses at the origin
// to index per-page protocol state by virtual page number (§III-B: "the list
// of owners and page state is maintained in a per-process radix tree which
// indexes the information by the virtual page address").
//
// The layout mirrors the Linux radix tree / x86 page-table shape: four
// levels of 9 bits each, covering the 36-bit page-number space of a 48-bit
// virtual address space with 4 KB pages.
package radix

import "fmt"

const (
	bitsPerLevel = 9
	fanout       = 1 << bitsPerLevel
	levels       = 4
	// MaxKey is the largest key the tree can index (36 bits).
	MaxKey = 1<<(bitsPerLevel*levels) - 1
)

// Tree maps uint64 keys (virtual page numbers) to pointers to E, which it
// stores as they are: a Set allocates nothing beyond the nodes of a new path,
// and a lookup ends at the caller's object. A nil pointer marks an empty slot,
// so it cannot be stored. The zero value is an empty tree ready for use.
type Tree[E any] struct {
	root *node[E]
	size int
	// spare holds up to one path of pruned (all-zero) nodes for Set to take
	// before it allocates, so a key that comes and goes — a directory entry
	// whose page bounces between two nodes' tables — allocates no node.
	spare []*node[E]
}

type node[E any] struct {
	children [fanout]*node[E]
	values   [fanout]*E
	count    int // populated slots (children or values)
}

// newNode returns an all-zero node: a spare one if there is any.
func (t *Tree[E]) newNode() *node[E] {
	if n := len(t.spare); n > 0 {
		nd := t.spare[n-1]
		t.spare = t.spare[:n-1]
		return nd
	}
	return &node[E]{}
}

// retire keeps an emptied node that Delete has unlinked, if there is room.
func (t *Tree[E]) retire(nd *node[E]) {
	if len(t.spare) < levels {
		t.spare = append(t.spare, nd)
	}
}

func index(key uint64, level int) int {
	shift := uint(bitsPerLevel * (levels - 1 - level))
	return int(key>>shift) & (fanout - 1)
}

func checkKey(key uint64) {
	if key > MaxKey {
		panic(fmt.Sprintf("radix: key %#x exceeds %d-bit key space", key, bitsPerLevel*levels))
	}
}

// Len reports the number of keys present.
func (t *Tree[E]) Len() int { return t.size }

// Get returns the value stored at key.
func (t *Tree[E]) Get(key uint64) (*E, bool) {
	checkKey(key)
	n := t.root
	for level := 0; level < levels-1; level++ {
		if n == nil {
			return nil, false
		}
		n = n.children[index(key, level)]
	}
	if n == nil {
		return nil, false
	}
	v := n.values[index(key, levels-1)]
	return v, v != nil
}

// Set stores value at key, replacing any existing value. A nil value panics:
// it would read back as absent. Use Delete.
func (t *Tree[E]) Set(key uint64, value *E) {
	checkKey(key)
	if value == nil {
		panic(fmt.Sprintf("radix: Set(%#x, nil)", key))
	}
	if t.root == nil {
		t.root = t.newNode()
	}
	n := t.root
	for level := 0; level < levels-1; level++ {
		i := index(key, level)
		if n.children[i] == nil {
			n.children[i] = t.newNode()
			n.count++
		}
		n = n.children[i]
	}
	i := index(key, levels-1)
	if n.values[i] == nil {
		n.count++
		t.size++
	}
	n.values[i] = value
}

// GetOrCreate returns the value at key, calling mk to create and store one
// if absent. It reports whether the value already existed.
func (t *Tree[E]) GetOrCreate(key uint64, mk func() *E) (*E, bool) {
	if v, ok := t.Get(key); ok {
		return v, true
	}
	v := mk()
	t.Set(key, v)
	return v, false
}

// Delete removes key, reporting whether it was present. Interior nodes left
// empty by the removal are pruned.
func (t *Tree[E]) Delete(key uint64) bool {
	checkKey(key)
	if t.root == nil {
		return false
	}
	var path [levels]*node[E]
	n := t.root
	for level := 0; level < levels-1; level++ {
		path[level] = n
		n = n.children[index(key, level)]
		if n == nil {
			return false
		}
	}
	path[levels-1] = n
	i := index(key, levels-1)
	if n.values[i] == nil {
		return false
	}
	n.values[i] = nil
	n.count--
	t.size--
	for level := levels - 1; level > 0; level-- {
		if path[level].count > 0 {
			break
		}
		parent := path[level-1]
		parent.children[index(key, level-1)] = nil
		parent.count--
		t.retire(path[level])
	}
	if t.root.count == 0 {
		t.retire(t.root)
		t.root = nil
	}
	return true
}

// ForEach visits all entries in ascending key order until fn returns false.
func (t *Tree[E]) ForEach(fn func(key uint64, value *E) bool) {
	t.ForRange(0, MaxKey, fn)
}

// ForRange visits entries with lo <= key <= hi in ascending key order until
// fn returns false.
func (t *Tree[E]) ForRange(lo, hi uint64, fn func(key uint64, value *E) bool) {
	checkKey(lo)
	if hi > MaxKey {
		hi = MaxKey
	}
	if t.root == nil || lo > hi {
		return
	}
	t.walk(t.root, 0, 0, lo, hi, fn)
}

func (t *Tree[E]) walk(n *node[E], level int, prefix uint64, lo, hi uint64, fn func(uint64, *E) bool) bool {
	shift := uint(bitsPerLevel * (levels - 1 - level))
	span := uint64(1)<<shift - 1
	// The scan ends at the node's last populated slot (left counts those not
	// yet passed) or past hi, not at the end of the node: a full walk of a
	// small table visits a few slots per node instead of 512.
	for i, left := 0, n.count; i < fanout && left > 0; i++ {
		base := prefix | uint64(i)<<shift
		if base > hi {
			break
		}
		c, v := n.children[i], n.values[i]
		if c == nil && v == nil {
			continue
		}
		left--
		if base+span < lo {
			continue
		}
		if level == levels-1 {
			if !fn(base, v) {
				return false
			}
		} else if !t.walk(c, level+1, base, lo, hi, fn) {
			return false
		}
	}
	return true
}
